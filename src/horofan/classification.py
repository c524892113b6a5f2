"""Singularity classification of coloured fans.

Per cone, four flags: the multiset of non-coloured ray generators together
with the colour points (counted with multiplicity) is R-linearly independent
(simplicial) or part of a Z-basis (regular); every colour passes the diagram
condition (vivid); the colour set is empty (toroidal).

Globally, over the whole fan:

    Q-factorial             <=> every cone simplicial
    factorial               <=> every cone regular
    smooth                  <=> every cone regular and vivid
    quotient singularities  <=> every cone simplicial and vivid
"""

from __future__ import annotations

from . import cones as pc
from . import dynkin, lattice
from .dynkin import DynkinData
from .errors import ColourSetMismatch
from .fans import ColouredCone, ColouredFan, ColouredLattice
from .lattice import Vec
from .record import Record


class ConeClassification(Record):
    simplicial: bool
    regular: bool
    vivid: bool
    toroidal: bool


class Verdict(Record):
    cones: tuple[ConeClassification, ...]  # aligned with fan.cones
    q_factorial: bool
    factorial: bool
    smooth: bool
    quotient_singularities: bool
    toroidal: bool

    @property
    def vivid(self) -> bool:
        return all(c.vivid for c in self.cones)


def simplicial_multiset(sc: ColouredCone, L: ColouredLattice) -> tuple[Vec, ...]:
    """Non-coloured ray generators plus one colour point per colour of the cone.

    A ray is coloured when it generates the point of a colour of the cone.
    Colour points are taken with multiplicity: two colours sharing a point
    contribute it twice, which makes independence fail.
    """
    on_rays = {pc.primitive(L.xi(a)) for a in sc.colours}
    points = [r for r in sc.cone.rays if r not in on_rays]
    points += [L.xi(a) for a in sc.colours]
    return tuple(sorted(points))


def check_colour_sets(L: ColouredLattice, d: DynkinData) -> None:
    """The lattice and the diagram must name the same colours."""
    if set(L.colours) != set(d.colours):
        raise ColourSetMismatch(
            f"lattice colours {sorted(L.colours)} do not match the "
            f"diagram colour set {sorted(d.colours)}")


def is_vivid(sc: ColouredCone, L: ColouredLattice, d: DynkinData) -> bool:
    """True iff every colour of the cone passes the diagram condition."""
    return all(dynkin.vivid_colour_ok(d, sc.colours, a) for a in sc.colours)


def classify_cone(sc: ColouredCone, L: ColouredLattice, d: DynkinData
                  ) -> ConeClassification:
    # the multiset spans the cone's span (a coloured ray is a multiple of one
    # of its colour points, which lie on the cone), so it is independent iff
    # its size is dim; and a part of a Z-basis is independent
    points = simplicial_multiset(sc, L)
    simplicial = len(points) == sc.cone.dim
    regular = simplicial and lattice.extends_to_Z_basis(points, L.rank)
    return ConeClassification(
        simplicial=simplicial,
        regular=regular,
        vivid=is_vivid(sc, L, d),
        toroidal=not sc.colours,
    )


def classify(fan: ColouredFan, d: DynkinData) -> Verdict:
    """Per-cone flags and the global verdicts for a coloured fan."""
    check_colour_sets(fan.lattice, d)
    per_cone = tuple(classify_cone(sc, fan.lattice, d) for sc in fan.cones)
    q_factorial = all(c.simplicial for c in per_cone)
    factorial = all(c.regular for c in per_cone)
    vivid = all(c.vivid for c in per_cone)
    return Verdict(
        cones=per_cone,
        q_factorial=q_factorial,
        factorial=factorial,
        smooth=factorial and vivid,
        quotient_singularities=q_factorial and vivid,
        toroidal=all(c.toroidal for c in per_cone),
    )
