"""Exact strongly convex rational polyhedral cones.

A cone is stored by its primitive extreme rays, its dimension, facet
normals and equations (linear forms vanishing exactly on its span):

    sigma = {x : <n, x> >= 0 for every normal n, <e, x> == 0 for every e}

All arithmetic is integral.  One double-description routine,
`extreme_rays`, converts between the two descriptions: it turns a halfspace
system into extreme rays (used by `intersect`), and, applied to the dual
system {y : <y, g> >= 0} in coordinates of the generators' span, it turns
generators into facet normals; the SNF behind those coordinates also gives
the equations.  Adjacency of rays, and extremality of generators, are read
off bitmasks of the rows (normals) they lie on, with no rank computed.
Faces are derived from their parent without another conversion: the
facets' ray sets, as bitmasks over the parent's rays, are closed under
intersection, and each face keeps one parent normal per facet of its own.
Rays are primitive and lexicographically sorted, and equality is equality
of ray sets; normals and equations are not canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import lattice
from .errors import DimensionMismatch, NotStronglyConvex, ZeroVector
from .lattice import Mat, Vec, dot, rank_of

OUTSIDE = "outside"
BOUNDARY = "boundary"
RELATIVE_INTERIOR = "relative_interior"


@dataclass(frozen=True, eq=False)
class Cone:
    """Rays, one normal per facet, dim (the rank of the rays, stored), and
    equations generating the linear forms that vanish on span(rays).

    A face from `faces` keeps its parent's normals, and a redundant set of
    equations, which may differ from those of `cone_from_generators(face.rays)`
    by forms vanishing on the face's span; neither choice is canonical, so
    equality and hash read the rays only.  `contains` and `intersect` test
    the span with the equations and read the normals only on it.
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
    g = lattice.vector_gcd(v)
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

    _, coords, Binv = lattice.span_coordinates(prims, ambient_rank)
    d = len(coords[0])
    # the facet normals are the extreme rays of the dual cone; it is
    # full-dimensional exactly when the cone contains no line
    normals_d = extreme_rays(coords, d)
    if rank_of(normals_d) != d:
        raise NotStronglyConvex("the generators span a cone containing a line")

    # a generator is extreme iff no other generator lies on every facet it
    # lies on (the face those facets cut out is then its own ray)
    masks = [sum(1 << i for i, n in enumerate(normals_d) if dot(n, c) == 0)
             for c in coords]
    rays = tuple(sorted(g for g, z in zip(prims, masks)
                        if sum(y & z == z for y in masks) == 1))

    amb_normals = []
    for n in normals_d:
        padded = tuple(n) + (0,) * (ambient_rank - d)
        amb_normals.append(lattice.mat_vec(Binv, padded))
    # x @ Binv has zero entries from d on exactly when x is in the span
    return Cone(ambient_rank, rays, tuple(sorted(amb_normals)), d,
                lattice.transpose(Binv)[d:])


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


def is_face_of(t: Cone, c: Cone) -> bool:
    """True iff t is a face of c (compared as ray sets)."""
    if t.ambient_rank != c.ambient_rank:
        raise DimensionMismatch("cones in different ambient lattices")
    if not set(t.rays) <= set(c.rays):
        return False
    return t in faces(c)


def extreme_rays(rows, k: int) -> list[Vec]:
    """Primitive extreme rays, sorted, of {x in R^k : row @ x >= 0 for all rows}.

    Incremental double description (Fukuda & Prodon 1996): start from a
    simplicial subsystem of full rank and insert the remaining halfspaces
    one at a time, combining positive/negative rays that are adjacent.  The
    test is combinatorial: each ray keeps a bitmask of the inserted rows it
    lies on, and rp, rm are adjacent iff their common mask z (which cuts out
    the smallest face holding both) has at least k - 2 bits and no third
    ray's mask contains z.  The rows must have rank k (that is exactly
    pointedness of the cone).  Applied to the generators of a
    full-dimensional cone as rows, it returns the dual cone's extreme rays:
    the facet normals.
    """
    if k == 0:
        return []
    base: list[Vec] = []
    rest: list[Vec] = []
    for r in dict.fromkeys(rows):
        if not any(r):
            continue
        if len(base) < k and rank_of(base + [r]) > len(base):
            base.append(r)
        else:
            rest.append(r)
    if len(base) < k:
        raise NotStronglyConvex("halfspace system with a lineality space")

    # U @ base @ V == D, so column j of V @ diag(last / d_i) @ U = last * base^-1
    # is orthogonal to every base row but row j, and pairs positively with it
    U, D, V = lattice.smith_normal_form(base)
    last = D[k - 1][k - 1]
    scaled = tuple(tuple(x * (last // D[i][i]) for i, x in enumerate(row)) for row in V)
    cols = lattice.transpose(lattice.mat_mul(scaled, U))
    full = (1 << k) - 1
    zs = {primitive(col): full & ~(1 << j) for j, col in enumerate(cols)}

    for i, m in enumerate(rest, k):
        bit = 1 << i
        vals = {r: dot(m, r) for r in zs}
        plus = [r for r in zs if vals[r] > 0]
        minus = [r for r in zs if vals[r] < 0]
        new = {r: z | bit if vals[r] == 0 else z
               for r, z in zs.items() if vals[r] >= 0}
        for rp in plus:
            for rm in minus:
                zp, zm = zs[rp], zs[rm]
                z = zp & zm
                if z.bit_count() < k - 2 or any(
                        y & z == z and y != zp and y != zm for y in zs.values()):
                    continue  # not adjacent in the current cone
                comb = tuple(vals[rp] * b - vals[rm] * a for a, b in zip(rp, rm))
                new[primitive(comb)] = z | bit
        zs = new
        if not zs:
            break
    return sorted(zs)


@lru_cache(maxsize=None)
def intersect(a: Cone, b: Cone) -> Cone:
    """The cone a ∩ b: the combined facet systems in a basis W of the common span."""
    if a.ambient_rank != b.ambient_rank:
        raise DimensionMismatch("cones in different ambient lattices")
    n = a.ambient_rank
    if a == b:
        return a
    if not a.rays or not b.rays:
        return zero_cone(n)

    W = lattice.kernel_basis(a.equations + b.equations, n)
    k = len(W)
    if k == 0:
        return zero_cone(n)

    rays_w = extreme_rays([tuple(dot(nv, w) for w in W)
                           for nv in a.facet_normals + b.facet_normals], k)
    rays_amb = [lattice.vec_mat(r, W) for r in rays_w]
    return cone_from_generators(rays_amb, n)
