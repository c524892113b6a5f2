"""Affine local structure and decolouration.

Every coloured cone of a fan determines a local model: the same cone and
lattice, but with the universal colour set shrunk to the cone's own colours
and the diagram shrunk to the parabolic nodes plus those colours (the Levi
subdiagram).  Decolouration keeps the underlying fan and intersects every
colour set with a chosen subset; removing colours never makes a cone less
simplicial, less regular, or less vivid.
"""

from __future__ import annotations

from .classification import check_colour_sets
from .dynkin import DynkinData
from .errors import UnknownColour
from .fans import ColouredCone, ColouredFan, ColouredLattice
from .record import Record


class LocalModel(Record):
    levi_diagram: DynkinData
    restricted_lattice: ColouredLattice
    cone: ColouredCone


def affine_local(sc: ColouredCone, L: ColouredLattice, d: DynkinData) -> LocalModel:
    """Local model of one coloured cone: Levi diagram on I ∪ F, colours F.

    The Levi diagram is an induced subdiagram of `d`.  A principal
    submatrix of a positive definite Cartan form is positive definite
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    §11), so it is of finite type whenever `d` is; its nodes and edges are
    sorted subsequences of `d`'s, so it needs no checks and no recognition.
    """
    check_colour_sets(L, d)
    keep = set(d.parabolic) | sc.colours
    nodes = tuple(n for n in d.nodes if n in keep)
    edges = tuple(e for e in d.edges if e.a in keep and e.b in keep)
    levi = DynkinData(nodes, edges, d.torus_rank, d.parabolic)

    kept_colours = tuple(a for a in L.colours if a in sc.colours)
    restricted = ColouredLattice(
        L.rank, kept_colours, tuple(L.xi(a) for a in kept_colours))
    return LocalModel(levi, restricted, sc)


def decolour(fan: ColouredFan, keep) -> ColouredFan:
    """Intersect every colour set of the fan with `keep`; same underlying cones.

    Not re-validated: a face still inherits exactly its parent's colours
    that lie on it, now intersected with `keep`, so the result is a fan.
    """
    keep = frozenset(keep)
    if not keep <= set(fan.lattice.colours):
        raise UnknownColour(
            f"colours outside the universal colour set: "
            f"{sorted(keep - set(fan.lattice.colours))}")
    return ColouredFan(fan.lattice, tuple(ColouredCone(sc.cone, sc.colours & keep)
                                          for sc in fan.cones))
