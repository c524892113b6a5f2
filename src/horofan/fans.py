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
Maps of a valid fan build their result member for member instead:
`local.decolour` only shrinks colour sets, and `map_fan` (torus splitting,
the sampling transforms) pushes members through an injective linear map,
which keeps faces, intersections and colour incidences.  `ColouredFan`
owns the canonical member order.
"""

from __future__ import annotations

from . import cones as pc
from .errors import (
    ColourPointOutsideCone,
    DimensionMismatch,
    InconsistentColours,
    OverlappingCones,
    UnknownColour,
    ZeroColourPoint,
)
from .lattice import Vec, freeze_vector
from .record import Record


class ColouredLattice(Record):
    rank: int
    colours: tuple[str, ...]
    colour_points: tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "colours", tuple(self.colours))
        object.__setattr__(self, "colour_points",
                           tuple(freeze_vector(p) for p in self.colour_points))
        if len(self.colours) != len(self.colour_points):
            raise DimensionMismatch("one point per colour required")
        if len(set(self.colours)) != len(self.colours):
            raise UnknownColour("duplicate colour identifiers")
        for p in self.colour_points:
            if len(p) != self.rank:
                raise DimensionMismatch(
                    f"colour point of length {len(p)} in a rank-{self.rank} lattice")

    def xi(self, colour: str) -> Vec:
        try:
            return self.colour_points[self.colours.index(colour)]
        except ValueError:
            raise UnknownColour(f"unknown colour {colour!r}") from None

    def colour_order(self, colour: str) -> int:
        return self.colours.index(colour)


class ColouredCone(Record):
    cone: pc.Cone
    colours: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "colours", frozenset(self.colours))


def _sort_key(L: ColouredLattice):
    def key(sc: ColouredCone):
        return (sc.cone.dim, sc.cone.rays,
                tuple(sorted(L.colour_order(a) for a in sc.colours)))
    return key


class ColouredFan(Record):
    """Trusts its members to form a fan; sorts them by (dim, rays, colour
    order), the order `local --cone INDEX` numbers."""

    lattice: ColouredLattice
    cones: tuple[ColouredCone, ...]

    def __post_init__(self):
        object.__setattr__(self, "cones",
                           tuple(sorted(self.cones, key=_sort_key(self.lattice))))

    def maximal_cones(self) -> tuple[ColouredCone, ...]:
        """Members whose ray set is no proper subset of another member's.

        In a fan that is being no proper face of another member: if
        rays(s) ⊊ rays(t) then s ⊆ t, so s = s ∩ t, which is a face of t
        because members of a fan meet in a common face; and a proper face
        of t is spanned by a proper subset of t's rays.
        """
        ray_sets = [frozenset(m.cone.rays) for m in self.cones]
        return tuple(m for m, r in zip(self.cones, ray_sets)
                     if not any(r < o for o in ray_sets))

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


def validate_fan(L: ColouredLattice, coloured_cones) -> ColouredFan:
    """Build a coloured fan from unchecked cones: validate, close under faces.

    Raises ColourPointOutsideCone / ZeroColourPoint for invalid coloured
    cones, OverlappingCones when two cones do not meet along a common face,
    and InconsistentColours when one underlying cone would need two
    different colour sets.  The origin cone is always a member.
    """
    inputs: list[ColouredCone] = []
    for sc in coloured_cones:
        _check_coloured_cone(sc, L)
        if sc not in inputs:
            inputs.append(sc)

    for i, a in enumerate(inputs):
        for b in inputs[i + 1:]:
            t = pc.intersect(a.cone, b.cone)
            if not (pc.is_face_of(t, a.cone) and pc.is_face_of(t, b.cone)):
                raise OverlappingCones(
                    f"cones with rays {a.cone.rays} and {b.cone.rays} "
                    f"meet outside a common face")

    origin = pc.zero_cone(L.rank)
    members: dict[pc.Cone, ColouredCone] = {origin: ColouredCone(origin, frozenset())}
    for sc in inputs:
        for t in pc.faces(sc.cone):
            cf = _inherit(sc, t, L)  # t is a face of sc.cone by construction
            prev = members.get(t)
            if prev is None:
                members[t] = cf
            elif prev.colours != cf.colours:
                raise InconsistentColours(
                    f"cone with rays {t.rays} carries colour sets "
                    f"{sorted(prev.colours)} and {sorted(cf.colours)}")
    return ColouredFan(L, tuple(members.values()))
