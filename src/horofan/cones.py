"""Exact strongly convex rational polyhedral cones.

A cone is stored by its primitive extreme rays, its dimension, facet
normals and equations (linear forms vanishing exactly on its span):

    sigma = {x : <n, x> >= 0 for every normal n, <e, x> == 0 for every e}

All arithmetic is integral, with no SNF and no change of basis.  One double
description, `extreme_rays`, returns extreme rays with bitmasks of the rows
vanishing on them, and a lineality basis; it eliminates its equalities in
one step and starts from the subspace they cut out.  On the dual
system {y : <y, g> >= 0} it yields the facet normals and, as its lineality,
the equations; the masks tell which generators are extreme and whether the
cone holds a line.  `intersect` runs it once on both cones' normals, with
their equations as equalities, and reads its facets off the masks.
Faces are derived from their parent: the facets' ray sets, as bitmasks
over the parent's rays, are closed under intersection, and each face keeps
one parent normal per facet of its own.  Rays are primitive and sorted;
equality is equality of ray sets; normals and equations are not canonical.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd, lcm
from operator import and_

from . import lattice
from .errors import DimensionMismatch, NotStronglyConvex, ZeroVector
from .lattice import Mat, Vec, dot, rank_of
from .record import Record

OUTSIDE = "outside"
BOUNDARY = "boundary"
RELATIVE_INTERIOR = "relative_interior"


class Cone(Record):
    """Rays, one normal per facet, dim (the rank of the rays, stored), and
    equations generating the linear forms that vanish on span(rays); from
    `cone_from_generators` they are the lineality basis of the dual cone.

    Faces from `faces` and results of `intersect` keep their parents'
    normals and redundant equations, which may differ from those of
    `cone_from_generators(rays)` by forms vanishing on the span; neither is
    canonical, so equality and hash read the rays only.  `contains` and
    `intersect` test the span with the equations and read the normals on it.
    """

    ambient_rank: int
    rays: Mat
    facet_normals: Mat
    dim: int
    equations: Mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cone):
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and self.rays == other.rays

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.rays))

    def __repr__(self) -> str:
        return f"Cone(rank={self.ambient_rank}, rays={list(map(list, self.rays))})"


def zero_cone(ambient_rank: int) -> Cone:
    return Cone(ambient_rank, (), (), 0, lattice.identity(ambient_rank))


def primitive(v) -> Vec:
    """v divided by the (positive) gcd of its entries; direction preserved."""
    v = lattice.freeze_vector(v)
    g = gcd(*v)
    if g == 1:
        return v
    if g == 0:
        raise ZeroVector("the zero vector has no primitive generator")
    return tuple(x // g for x in v)


def cone_from_generators(gens, ambient_rank: int) -> Cone:
    """The cone spanned by the generators, with extreme rays and facets extracted."""
    frozen = []
    for g in gens:
        g = lattice.freeze_vector(g)
        if len(g) != ambient_rank:
            raise DimensionMismatch(
                f"generator of length {len(g)} in ambient rank {ambient_rank}")
        if not any(g):
            raise ZeroVector("zero vector among the cone generators")
        frozen.append(g)
    prims = tuple(sorted({primitive(g) for g in frozen}))
    if not prims:
        return zero_cone(ambient_rank)

    # the facet normals are the extreme rays of the dual cone, each with the
    # generators it vanishes on, and its lineality is the span's orthogonal
    # complement; the cone holds a line iff there is no normal (the cone is
    # the whole span) or some generator lies on all of them
    normals, lin = extreme_rays(prims, ambient_rank)
    full = (1 << len(prims)) - 1
    if not normals or reduce(and_, normals.values(), full):
        raise NotStronglyConvex("the generators span a cone containing a line")

    # a generator is extreme iff the facets it lies on cut out its own ray
    rays = tuple(g for i, g in enumerate(prims)
                 if reduce(and_, (z for z in normals.values() if z >> i & 1),
                           full) == 1 << i)
    return Cone(ambient_rank, rays, tuple(sorted(normals)),
                ambient_rank - len(lin), tuple(lin))


def contains(c: Cone, v) -> str:
    """Classify v as outside, on the boundary, or in the relative interior of c."""
    v = lattice.freeze_vector(v)
    if len(v) != c.ambient_rank:
        raise DimensionMismatch(
            f"point of length {len(v)} against ambient rank {c.ambient_rank}")
    if any(dot(e, v) for e in c.equations):
        return OUTSIDE
    dots = [dot(n, v) for n in c.facet_normals]
    if any(x < 0 for x in dots):
        return OUTSIDE
    return BOUNDARY if any(x == 0 for x in dots) else RELATIVE_INTERIOR


@lru_cache(maxsize=None)
def faces(c: Cone) -> tuple[Cone, ...]:
    """Every face of c, including the zero cone and c itself.

    Every face is an intersection of facets, so the faces' ray sets, as
    bitmasks over c.rays, are the closure of the facets' masks under `&` (c
    itself is the empty intersection).  The proper faces of a face s are
    the sets s & m, so its facets are those of them of the largest
    dimension; the face keeps one parent normal for each, and adds those of
    the facets containing it to the parent's equations.  Sorted by
    (dim, rays).
    """
    if not c.rays:
        return (c,)
    facets = {sum(1 << i for i, r in enumerate(c.rays) if dot(n, r) == 0): n
              for n in c.facet_normals}
    full = (1 << len(c.rays)) - 1
    seen = {full}
    todo = [full]
    while todo:
        sel = todo.pop()
        new = {sel & m for m in facets} - seen
        seen |= new
        todo += new
    dims: dict[int, int] = {}
    out = []
    for sel in sorted(seen, key=int.bit_count):  # subfaces first
        below = {sel & m: n for m, n in facets.items() if sel & m != sel}
        top = max((dims[t] for t in below), default=-1)
        dims[sel] = top + 1
        on = tuple(n for m, n in facets.items() if sel & m == sel)
        out.append(Cone(c.ambient_rank,
                        tuple(r for i, r in enumerate(c.rays) if sel >> i & 1),
                        tuple(sorted(n for t, n in below.items() if dims[t] == top)),
                        top + 1, c.equations + on))
    return tuple(sorted(out, key=lambda f: (f.dim, f.rays)))


def _equality_basis(eqs, k: int) -> list[Vec]:
    """A primitive basis of {x in R^k : e @ x == 0 for all e in eqs}, by one
    fraction-free Gauss-Jordan elimination of the distinct equalities that
    keeps each row primitive.  Each row has a pivot column where the others
    vanish, so a free column f gives l at f and -row[f] * l / row[p] at each
    pivot p, l the lcm of those row[p].  With no equalities, the identity."""
    done: dict[int, Vec] = {}  # pivot column -> row
    for e in dict.fromkeys(eqs):
        for p, row in done.items():
            if e[p]:
                e = [row[p] * x - e[p] * y for x, y in zip(e, row)]
        if any(e):  # not zero, nor a combination of the rows before it
            e = primitive(e)
            q = next(j for j, x in enumerate(e) if x)
            done = {p: primitive([e[q] * x - row[q] * y for x, y in zip(row, e)])
                    if row[q] else row for p, row in done.items()}
            done[q] = e
    basis = []
    for f in range(k):
        if f not in done:
            l = lcm(*(row[p] for p, row in done.items() if row[f]))
            v = [-done[j][f] * l // done[j][j] if j in done else 0 for j in range(k)]
            v[f] = l
            basis.append(primitive(v))
    return basis


def extreme_rays(rows, k: int, eqs=()) -> tuple[dict[Vec, int], list[Vec]]:
    """(rays, lin) with {x in R^k : row @ x >= 0 for all rows, e @ x == 0
    for all e in eqs} equal to cone(rays) + span(lin).  rays maps each
    primitive extreme ray, one per ray modulo span(lin), to the bitmask of
    the positions in rows (not eqs) vanishing on it; lin is a primitive
    basis of {x : row @ x == 0 for all rows and eqs}.

    Incremental double description (Fukuda & Prodon 1996).  The equalities
    are eliminated in one step (`_equality_basis`): lin starts as a basis
    of the subspace of dimension dim that they cut out, R^k without them,
    and the rows so far vanish on lin.  A row nonzero on lin makes one p in
    lin, oriented to pair positively with it, a ray, and moves the rest
    along p onto its hyperplane.  Any other row keeps the rays it does not
    cut and combines each adjacent positive/negative pair: rp, rm are
    adjacent iff z = mask(rp) & mask(rm) has at least dim - len(lin) - 2
    bits and no third ray's mask contains z (the smallest face holding
    both).  Zero and repeated rows only set bits.  On the generators of a
    cone it returns the facet normals and a basis of the forms vanishing
    on the span.
    """
    lin = _equality_basis(eqs, k)
    dim = len(lin)
    zs: dict[Vec, int] = {}
    for i, m in enumerate(rows):
        bit = 1 << i
        vals = {r: dot(m, r) for r in zs}
        on_lin = [dot(m, v) for v in lin]
        if any(on_lin):
            j = min((j for j, x in enumerate(on_lin) if x), key=lambda j: abs(on_lin[j]))
            a, p = on_lin.pop(j), lin.pop(j)
            if a < 0:
                a, p = -a, tuple(-x for x in p)
            # v - (m @ v / a) * p, scaled by a > 0, lies on the hyperplane;
            # v already on it stays as it is
            lin = [primitive([a * y - x * q for y, q in zip(v, p)]) if x else v
                   for v, x in zip(lin, on_lin)]
            zs = {(primitive([a * y - vals[r] * q for y, q in zip(r, p)])
                   if vals[r] else r): z | bit for r, z in zs.items()}
            zs[p] = bit - 1  # p lies on every earlier row
            continue
        plus = [r for r in zs if vals[r] > 0]
        minus = [r for r in zs if vals[r] < 0]
        new = {r: z | bit if vals[r] == 0 else z
               for r, z in zs.items() if vals[r] >= 0}
        for rp in plus:
            for rm in minus:
                zp, zm = zs[rp], zs[rm]
                z = zp & zm
                if z.bit_count() < dim - len(lin) - 2 or any(
                        y & z == z and y != zp and y != zm for y in zs.values()):
                    continue  # not adjacent in the current cone
                comb = tuple(vals[rp] * b - vals[rm] * a for a, b in zip(rp, rm))
                new[primitive(comb)] = z | bit
        zs = new
    return zs, lin


@lru_cache(maxsize=None)
def intersect(a: Cone, b: Cone) -> Cone:
    """The cone a ∩ b.  When one ray set holds the other, that cone: a cone
    spanned by some of b's rays lies in b.  Otherwise one double
    description in ambient coordinates: the equations of a and b enter as
    equalities, not as opposite row pairs, and both cones' normals are its
    rows.  a is pointed, so no lineality is left.  The normals vanishing on
    all its rays are equations, and each maximal zero set of the others
    over the rays is a facet."""
    if a.ambient_rank != b.ambient_rank:
        raise DimensionMismatch("cones in different ambient lattices")
    n = a.ambient_rank
    ra, rb = set(a.rays), set(b.rays)
    if ra <= rb:
        return a
    if rb <= ra:
        return b

    eqs = a.equations + b.equations
    normals = a.facet_normals + b.facet_normals
    found = sorted(extreme_rays(normals, n, eqs)[0].items())
    if not found:
        return zero_cone(n)
    rays = tuple(r for r, _ in found)
    every = (1 << len(rays)) - 1
    zeros = [sum(1 << t for t, (_, z) in enumerate(found) if z >> j & 1)
             for j in range(len(normals))]
    by_zeros = {s: nv for s, nv in zip(zeros, normals) if s != every}
    facets = sorted(nv for s, nv in by_zeros.items()
                    if not any(s != y and s & y == s for y in by_zeros))
    return Cone(n, rays, tuple(facets), rank_of(rays),
                eqs + tuple(nv for nv, s in zip(normals, zeros) if s == every))
