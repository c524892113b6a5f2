"""Coloured lattices, coloured cones, and coloured fans.

A coloured lattice is Z^rank equipped with an ordered universal colour set
and a point for each colour.  A coloured cone pairs a strongly convex cone
with a subset of colours whose points lie on the cone (away from the
origin).  A coloured fan is a finite collection of coloured cones closed
under faces and intersections.

A face inherits exactly the colours whose points lie on it (`_inherit`,
the one implementation of the rule).  That rule forces colour consistency
across the fan: two members sharing an underlying cone must carry
identical colour sets.

`validate_fan` checks unchecked cones and completes the face closure (callers
supply the maximal cones): at the input boundary `document.build`, in
`sampling.random_coloured_fan`, and in the Cox lift, whose cones are new.
Full-dimensional cones are accepted by their walls when they tile space:
every facet lies in exactly two cones, on opposite sides, and one point is
covered once.  Any other collection checks every pair: `intersect` gives
the smaller cone of a nested pair without a double description, and the
intersection must be among the faces of both, looked up by its rays in
one face list per input, which the face closure reuses.
Maps of a valid fan build their result member for member instead:
`local.decolour` only shrinks colour sets, and `map_fan` (torus splitting,
the sampling transforms) pushes members through an injective linear map,
which keeps faces, intersections and colour incidences.  `ColouredFan`
owns the canonical member order.
"""

from __future__ import annotations

from itertools import combinations

from . import cones as pc
from .errors import (
    ColourPointOutsideCone,
    DimensionMismatch,
    InconsistentColours,
    OverlappingCones,
    UnknownColour,
    ZeroColourPoint,
)
from .lattice import Vec, dot, freeze_vector
from .record import Lookup, Record


class ColouredLattice(Lookup, Record):
    """Looks a colour up in one map from colour to position, built once."""

    rank: int
    colours: tuple[str, ...]
    colour_points: tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "colours", tuple(self.colours))
        object.__setattr__(self, "colour_points",
                           tuple(freeze_vector(p) for p in self.colour_points))
        if len(self.colours) != len(self.colour_points):
            raise DimensionMismatch("one point per colour required")
        position = {a: i for i, a in enumerate(self.colours)}
        if len(position) != len(self.colours):
            raise UnknownColour("duplicate colour identifiers")
        object.__setattr__(self, "_lookup", position)
        for p in self.colour_points:
            if len(p) != self.rank:
                raise DimensionMismatch(
                    f"colour point of length {len(p)} in a rank-{self.rank} lattice")

    def xi(self, colour: str) -> Vec:
        try:
            return self.colour_points[self._lookup[colour]]
        except KeyError:
            raise UnknownColour(f"unknown colour {colour!r}") from None

    def colour_order(self, colour: str) -> int:
        return self._lookup[colour]


class ColouredCone(Record):
    cone: pc.Cone
    colours: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "colours", frozenset(self.colours))


class ColouredFan(Record):
    """Trusts its members to form a fan, so no two members share a cone;
    sorts them by their cone, (dim, rays), the order `local --cone INDEX`
    numbers."""

    lattice: ColouredLattice
    cones: tuple[ColouredCone, ...]

    def __post_init__(self):
        object.__setattr__(self, "cones", tuple(sorted(
            self.cones, key=lambda sc: (sc.cone.dim, sc.cone.rays))))

    def maximal_cones(self) -> tuple[ColouredCone, ...]:
        """Members whose ray set is no proper subset of another member's,
        in fan order.  Taken largest first, a member is compared only with
        the maximal ray sets found so far, since a proper superset has more
        rays: the work is members times maximal cones.

        In a fan that is being no proper face of another member: if
        rays(s) ⊊ rays(t) then s ⊆ t, so s = s ∩ t, which is a face of t
        because members of a fan meet in a common face; and a proper face
        of t is spanned by a proper subset of t's rays.
        """
        ray_sets = [frozenset(m.cone.rays) for m in self.cones]
        top: list[frozenset] = []
        for r in sorted(ray_sets, key=len, reverse=True):
            if not any(r < o for o in top):
                top.append(r)
        top_set = set(top)
        return tuple(m for m, r in zip(self.cones, ray_sets) if r in top_set)

    def ray_members(self) -> tuple[ColouredCone, ...]:
        return tuple(m for m in self.cones if m.cone.dim == 1)

    def non_coloured_rays(self) -> tuple[Vec, ...]:
        """Primitive generators of the rays carrying no colour, sorted."""
        return tuple(sorted(m.cone.rays[0] for m in self.ray_members()
                            if not m.colours))


def map_fan(fan: ColouredFan, rank: int, f) -> ColouredFan:
    """The image of the fan under an injective linear map f into Z^rank."""
    L = fan.lattice
    L2 = ColouredLattice(rank, L.colours, tuple(f(p) for p in L.colour_points))
    return ColouredFan(L2, tuple(
        ColouredCone(pc.cone_from_generators([f(r) for r in sc.cone.rays], rank),
                     sc.colours) for sc in fan.cones))


def _check_coloured_cone(sc: ColouredCone, L: ColouredLattice) -> None:
    if sc.cone.ambient_rank != L.rank:
        raise DimensionMismatch(
            f"cone of ambient rank {sc.cone.ambient_rank} on a rank-{L.rank} lattice")
    for alpha in sc.colours:
        u = L.xi(alpha)
        if not any(u):
            raise ZeroColourPoint(f"colour {alpha!r} has the zero point")
        if pc.contains(sc.cone, u) == pc.OUTSIDE:
            raise ColourPointOutsideCone(
                f"point of colour {alpha!r} lies outside its cone")


def _inherit(sc: ColouredCone, t: pc.Cone, L: ColouredLattice) -> ColouredCone:
    """The face t of sc with the colours whose points lie on it."""
    return ColouredCone(t, frozenset(a for a in sc.colours
                                     if pc.contains(t, L.xi(a)) != pc.OUTSIDE))


def _complete_by_walls(cones: list[pc.Cone], rank: int) -> bool:
    """True if the cones are the maximal cones of a complete fan in R^rank,
    decided by their walls; False if some cone is not full-dimensional or
    a test below fails, which leaves the question open.

    The tests: every facet of a cone, keyed by its ray set, is a facet of
    exactly one other cone (it is a wall), whose other rays lie strictly
    on the negative side of the first cone's facet normal; and the sum p
    of the first cone's rays, an interior point of it, lies in no other
    cone.  They suffice (De Loera, Rambau and Santos, *Triangulations*,
    Ch. 4, prove it for simplices):

    1. Count the cones holding a point x in their interior, for x off
       every facet's hyperplane.  Along a segment avoiding every face of
       codimension 2, the count can change only where the segment crosses
       a facet.  There each cone holding the crossing point on its boundary
       holds it in the relative interior of exactly one facet, and that
       facet is a wall, shared with one cone on the other side.  So these
       cones pair off, one on each side, and the count does not change:
       it is the same everywhere, and next to p it is 1.  So the cones
       cover R^rank, and no two share an interior point.
    2. Let z lie in the relative interior of a face A of a cone C.  If A
       is a face of a cone, each facet of that cone through z holds A (it
       meets A in a face of A through a relative interior point), so A is
       a face of the cone across it too.  So every cone reached from C
       across walls through z has A as a face.  In a small ball around z,
       which meets only faces through z, every boundary point of such a
       cone off the faces of codimension 2 lies on such a wall, and the
       cone across it is reached too.  So their union is open and closed
       in the ball minus a set of codimension 2, which is connected, and
       it covers the ball.  A cone holding z has interior points near z,
       inside one of these cones, so by 1 it is one of them: every cone
       holding z holds it in the relative interior of A.
    3. For two cones, take z in the relative interior of their
       intersection K.  By 2, the face A at z is the same in both.  A face
       through a relative interior point of a convex subset holds all of
       it, so K lies in A, and A lies in both cones: K = A is a face of
       both.
    """
    if any(c.dim != rank for c in cones):
        return False
    walls: dict[tuple[Vec, ...], list[tuple[pc.Cone, Vec]]] = {}
    for c in cones:
        for n in c.facet_normals:
            wall = tuple(r for r in c.rays if dot(n, r) == 0)
            walls.setdefault(wall, []).append((c, n))
    for wall, sides in walls.items():
        if len(sides) != 2:
            return False
        (_, n), (other, _) = sides
        if any(dot(n, r) >= 0 for r in other.rays if r not in wall):
            return False
    p = tuple(map(sum, zip(*cones[0].rays)))
    return all(pc.contains(c, p) == pc.OUTSIDE for c in cones[1:])


def validate_fan(L: ColouredLattice, coloured_cones) -> ColouredFan:
    """Build a coloured fan from unchecked cones: validate, close under faces.

    Raises ColourPointOutsideCone / ZeroColourPoint for invalid coloured
    cones, OverlappingCones when two cones do not meet along a common face,
    and InconsistentColours when one underlying cone would need two
    different colour sets.  The origin cone is always a member.

    Full-dimensional cones that pass the wall test of `_complete_by_walls`
    form a complete fan, and no pair is checked.  Otherwise every pair is:
    their `intersect` (no double description when one ray set holds the
    other) must be a face of both, looked up by its rays among the faces
    of each, which the face closure reuses.
    """
    inputs = list(dict.fromkeys(coloured_cones))
    for sc in inputs:
        _check_coloured_cone(sc, L)
    cone_faces = [pc.faces(sc.cone) for sc in inputs]

    if len(inputs) > 1 and not _complete_by_walls([sc.cone for sc in inputs], L.rank):
        face_rays = [{t.rays for t in fs} for fs in cone_faces]
        for (a, fa), (b, fb) in combinations(zip(inputs, face_rays), 2):
            t = pc.intersect(a.cone, b.cone)
            if t.rays not in fa or t.rays not in fb:
                raise OverlappingCones(
                    f"cones with rays {a.cone.rays} and {b.cone.rays} "
                    f"meet outside a common face")

    origin = pc.zero_cone(L.rank)
    members: dict[pc.Cone, ColouredCone] = {origin: ColouredCone(origin, frozenset())}
    for sc, fs in zip(inputs, cone_faces):
        for t in fs:
            cf = _inherit(sc, t, L)  # t is a face of sc.cone by construction
            prev = members.get(t)
            if prev is None:
                members[t] = cf
            elif prev.colours != cf.colours:
                raise InconsistentColours(
                    f"cone with rays {t.rays} carries colour sets "
                    f"{sorted(prev.colours)} and {sorted(cf.colours)}")
    return ColouredFan(L, tuple(members.values()))
