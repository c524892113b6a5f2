"""Random instance generators for stress-testing.

Fans come from central hyperplane arrangements: the full-dimensional sign
cells of an arrangement tile the space, so any subset of cells (plus faces)
is a valid fan.  Colour points are placed inside chosen cells and every cone
containing a point carries its colour, which is automatically consistent
across shared faces.  All generators are driven by a caller-supplied
`random.Random` so runs are reproducible.
"""

from __future__ import annotations

import random
from itertools import product

from . import cones as pc
from . import dynkin as dk
from . import lattice
from .fans import (ColouredCone, ColouredFan, ColouredLattice, map_fan,
                   validate_fan)
from .lattice import Mat, Vec


def random_unimodular(rng: random.Random, n: int) -> Mat:
    """A random unimodular matrix: 12 random elementary operations on the identity."""
    M = [list(r) for r in lattice.identity(n)]
    for _ in range(12):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            q = rng.choice((-2, -1, 1, 2))
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        elif op == 1 and i != j:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-a for a in M[i]]
    return lattice.freeze_matrix(M)


_FAMILY_POOL = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                ("B", 2), ("B", 3), ("C", 3), ("C", 4),
                ("D", 4), ("F", 4), ("G", 2)]


def random_diagram(rng: random.Random, max_components: int = 2) -> dk.DynkinData:
    """A random diagram; each node is parabolic with probability 1/2."""
    pairs = [rng.choice(_FAMILY_POOL) for _ in range(rng.randint(1, max_components))]
    torus_rank = rng.randint(0, 1)
    parabolic = [n for n in dk.node_names(pairs) if rng.random() < 0.5]
    specs = [(*pair, prefix) for pair, prefix in zip(pairs, dk.component_prefixes(pairs))]
    return dk.standard_diagram(specs, torus_rank, parabolic)


def arrangement_cells(rng: random.Random, rank: int,
                      n_hyperplanes: int = 3) -> list[pc.Cone]:
    """Full-dimensional cells of a random central hyperplane arrangement."""
    normals: list[Vec] = []
    attempts = 0
    # low ranks cannot host many distinct hyperplane directions; give up
    # gracefully instead of insisting on the requested count
    while len(normals) < n_hyperplanes and attempts < 50 * n_hyperplanes:
        attempts += 1
        v = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(v) and v not in normals and tuple(-x for x in v) not in normals:
            normals.append(v)
    # make the arrangement essential so every cell is strongly convex
    for e in lattice.identity(rank):
        if lattice.rank_of(normals) == rank:
            break
        if lattice.rank_of(normals + [e]) > lattice.rank_of(normals):
            normals.append(e)

    cells: list[pc.Cone] = []
    for signs in product((1, -1), repeat=len(normals)):
        rows = [tuple(s * x for x in n) for s, n in zip(signs, normals)]
        cell = pc.cone_from_generators(pc.extreme_rays(rows, rank)[0], rank)
        if cell.dim == rank and cell not in cells:
            cells.append(cell)
    return cells


def _point_inside(rng: random.Random, cone: pc.Cone) -> Vec | None:
    for _ in range(8):
        coeffs = [rng.randint(0, 2) for _ in cone.rays]
        if not any(coeffs):
            continue
        v = tuple(sum(c * r[i] for c, r in zip(coeffs, cone.rays))
                  for i in range(cone.ambient_rank))
        if any(v):
            return v
    return None


def random_coloured_fan(rng: random.Random, diagram: dk.DynkinData, rank: int,
                        n_hyperplanes: int = 3, max_cells: int | None = None,
                        complete: bool = False, colour_in_fan: float = 0.7
                        ) -> ColouredFan:
    """A valid coloured fan over the diagram's colour set.

    Each colour point lands inside a randomly chosen cell (with probability
    `colour_in_fan`) or is an arbitrary small vector otherwise, possibly
    zero or outside every cone.  Cones carry every colour whose point they
    contain, the canonical consistent colouring.
    """
    cells = arrangement_cells(rng, rank, n_hyperplanes)
    if not complete:
        top = len(cells) if max_cells is None else min(max_cells, len(cells))
        cells = rng.sample(cells, rng.randint(1, top))
    points = []
    for _ in diagram.colours:
        p = None
        if cells and rng.random() < colour_in_fan:
            p = _point_inside(rng, rng.choice(cells))
        if p is None:
            p = tuple(rng.randint(-2, 2) for _ in range(rank))
        points.append(p)
    L = ColouredLattice(rank, diagram.colours, tuple(points))
    members = []
    for cell in cells:
        cols = frozenset(a for a in L.colours
                         if any(L.xi(a)) and pc.contains(cell, L.xi(a)) != pc.OUTSIDE)
        members.append(ColouredCone(cell, cols))
    return validate_fan(L, members)


def transform_fan(fan: ColouredFan, T: Mat) -> ColouredFan:
    """Apply a unimodular change of coordinates v -> v @ T to the whole fan."""
    return map_fan(fan, fan.lattice.rank, lambda v: lattice.vec_mat(v, T))


def embed_with_torus_factor(rng: random.Random, fan: ColouredFan,
                            extra_rank: int) -> ColouredFan:
    """Pad the fan into a larger lattice and shuffle coordinates unimodularly,
    producing a fan with a torus factor of exactly `extra_rank`."""
    n = fan.lattice.rank + extra_rank
    padded = map_fan(fan, n, lambda v: tuple(v) + (0,) * extra_rank)
    return transform_fan(padded, random_unimodular(rng, n))
