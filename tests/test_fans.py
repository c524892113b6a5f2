import random

import pytest

from horofan import cones as pc
from horofan import cox
from horofan.classification import simplicial_multiset
from horofan import fans as F
from horofan import sampling as S
from horofan.local import decolour
from horofan.errors import (ColourPointOutsideCone, InconsistentColours,
                            OverlappingCones, UnknownColour, ZeroColourPoint)

from oracles import face_colours_oracle


def plain(gens, rank=2):
    return F.ColouredCone(pc.cone_from_generators(gens, rank), frozenset())


TORIC2 = F.ColouredLattice(2, (), ())


def test_p2_closure():
    fan = F.validate_fan(TORIC2, [plain([(1, 0), (0, 1)]),
                                  plain([(0, 1), (-1, -1)]),
                                  plain([(-1, -1), (1, 0)])])
    assert len(fan.cones) == 7
    assert len(fan.maximal_cones()) == 3
    assert len(fan.ray_members()) == 3
    assert fan.non_coloured_rays() == ((-1, -1), (0, 1), (1, 0))


def test_overlapping_rejected():
    with pytest.raises(OverlappingCones):
        F.validate_fan(TORIC2, [plain([(1, 0), (0, 1)]),
                                plain([(1, 1), (1, -1)])])


def test_colour_point_outside():
    L = F.ColouredLattice(2, ("a",), ((-1, 0),))
    sc = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                        frozenset({"a"}))
    with pytest.raises(ColourPointOutsideCone):
        F.validate_fan(L, [sc])


def test_zero_colour_point_only_rejected_when_used():
    L = F.ColouredLattice(2, ("a",), ((0, 0),))
    used = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                          frozenset({"a"}))
    with pytest.raises(ZeroColourPoint):
        F.validate_fan(L, [used])
    unused = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                            frozenset())
    assert len(F.validate_fan(L, [unused]).cones) == 4


def test_unknown_colour():
    sc = F.ColouredCone(pc.cone_from_generators([(1, 0)], 2),
                        frozenset({"ghost"}))
    with pytest.raises(UnknownColour):
        F.validate_fan(TORIC2, [sc])


def test_inconsistent_colours_same_cone():
    L = F.ColouredLattice(2, ("a",), ((1, 1),))
    cone = pc.cone_from_generators([(1, 0), (0, 1)], 2)
    with pytest.raises(InconsistentColours):
        F.validate_fan(L, [F.ColouredCone(cone, frozenset({"a"})),
                           F.ColouredCone(cone, frozenset())])


def test_inconsistent_colours_shared_ray():
    # colour point on the shared ray, only one side uses the colour
    L = F.ColouredLattice(2, ("a",), ((0, 1),))
    left = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                          frozenset({"a"}))
    right = F.ColouredCone(pc.cone_from_generators([(-1, 0), (0, 1)], 2),
                           frozenset())
    with pytest.raises(InconsistentColours):
        F.validate_fan(L, [left, right])
    # both using it is fine
    right2 = F.ColouredCone(pc.cone_from_generators([(-1, 0), (0, 1)], 2),
                            frozenset({"a"}))
    fan = F.validate_fan(L, [left, right2])
    by_ray = {m.cone.rays[0]: m.colours for m in fan.ray_members()}
    assert by_ray[(0, 1)] == {"a"}
    assert by_ray[(1, 0)] == frozenset()


def test_coloured_face_rule():
    L = F.ColouredLattice(2, ("a",), ((1, 0),))
    sc = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                        frozenset({"a"}))
    members = F.validate_fan(L, [sc]).cones
    on = face_colours_oracle(sc, pc.cone_from_generators([(1, 0)], 2), L)
    assert on.colours == {"a"} and on in members
    off = face_colours_oracle(sc, pc.cone_from_generators([(0, 1)], 2), L)
    assert off.colours == frozenset() and off in members
    origin = face_colours_oracle(sc, pc.zero_cone(2), L)
    assert origin.colours == frozenset() and origin in members


def test_coloured_face_requires_a_face():
    sc = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                        frozenset({"a"}))
    assert not pc.is_face_of(pc.cone_from_generators([(1, 1)], 2), sc.cone)


def test_coloured_rays_partition():
    L = F.ColouredLattice(2, ("a",), ((1, 0),))
    sc = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                        frozenset({"a"}))
    # the colour lies on the ray (1, 0): the ray gives way to its point
    assert simplicial_multiset(sc, L) == ((0, 1), (1, 0))

    # interior colour point: all rays stay non-coloured
    L2 = F.ColouredLattice(2, ("a",), ((1, 1),))
    sc2 = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                         frozenset({"a"}))
    assert simplicial_multiset(sc2, L2) == ((0, 1), (1, 0), (1, 1))

    colour_free = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                                 frozenset())
    assert simplicial_multiset(colour_free, L2) == ((0, 1), (1, 0))


def test_closure_idempotent():
    fan = F.validate_fan(TORIC2, [plain([(1, 0), (0, 1)]),
                                  plain([(0, 1), (-1, -1)])])
    assert F.validate_fan(TORIC2, list(fan.cones)) == fan


def test_every_face_is_member():
    L = F.ColouredLattice(2, ("a",), ((1, 0),))
    sc = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                        frozenset({"a"}))
    fan = F.validate_fan(L, [sc])
    for m in fan.cones:
        for t in pc.faces(m.cone):
            assert face_colours_oracle(m, t, L) in fan.cones


def test_empty_input_gives_origin_fan():
    fan = F.validate_fan(TORIC2, [])
    assert len(fan.cones) == 1
    assert fan.cones[0].cone == pc.zero_cone(2)


def _same_as_validated(fan):
    again = F.validate_fan(fan.lattice, fan.cones)
    assert fan == again
    assert [m.cone.dim for m in fan.cones] == [m.cone.dim for m in again.cones]
    return fan


def test_maps_build_what_validation_builds():
    # decolour, torus_split and the sampling transforms build their fans
    # member for member without validate_fan; validating changes nothing
    rng = random.Random(2024)
    for i in range(30):
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3), max_cells=3)
        if i % 3 == 0:
            fan = _same_as_validated(
                S.embed_with_torus_factor(rng, fan, rng.randint(1, 2)))
        colours = fan.lattice.colours
        for keep in ((), rng.sample(colours, rng.randint(0, len(colours))), colours):
            _same_as_validated(decolour(fan, keep))
        _same_as_validated(cox.torus_split(fan).restricted_fan)
        T = S.random_unimodular(rng, fan.lattice.rank)
        _same_as_validated(S.transform_fan(fan, T))
        assert F.ColouredFan(fan.lattice, reversed(fan.cones)) == fan


def test_maximal_cones_are_no_proper_faces():
    # maximal_cones compares ray sets; in a fan that agrees with the face
    # relation of the cones themselves
    rng = random.Random(77)
    for i in range(30):
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 4),
                                    n_hyperplanes=rng.randint(1, 3),
                                    max_cells=None if i % 2 else 3,
                                    complete=i % 5 == 0)
        if i % 3 == 0:
            fan = S.embed_with_torus_factor(rng, fan, 1)
        by_faces = tuple(m for m in fan.cones
                         if not any(o.cone != m.cone and pc.is_face_of(m.cone, o.cone)
                                    for o in fan.cones))
        assert fan.maximal_cones() == by_faces
