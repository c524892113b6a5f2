import random

import pytest

from horofan import classification as cl
from horofan import cones as pc
from horofan import cox
from horofan import dynkin as dk
from horofan import fans as F
from horofan import lattice as lat
from horofan import sampling as S
from horofan.errors import ColourSetMismatch

from oracles import face_colours_oracle, linearly_independent

TORIC2 = dk.standard_diagram([], torus_rank=2)
L2 = F.ColouredLattice(2, (), ())


def toric_fan(*gen_lists):
    return F.validate_fan(L2, [
        F.ColouredCone(pc.cone_from_generators(g, 2), frozenset())
        for g in gen_lists])


def colour_line_fan():
    """One coloured ray on Z: the minimal regular-but-not-vivid example."""
    d = dk.standard_diagram([("A", 3, "A3")], parabolic=["A3.1", "A3.3"])
    L = F.ColouredLattice(1, ("A3.2",), ((1,),))
    sc = F.ColouredCone(pc.cone_from_generators([(1,)], 1),
                        frozenset({"A3.2"}))
    return d, F.validate_fan(L, [sc])


def test_multiset_examples():
    d, fan = colour_line_fan()
    ray = [m for m in fan.cones if m.cone.dim == 1][0]
    assert cl.simplicial_multiset(ray, fan.lattice) == ((1,),)

    # duplicated colour point counts twice
    L = F.ColouredLattice(2, ("X.1", "Y.1"), ((1, 0), (1, 0)))
    sc = F.ColouredCone(pc.cone_from_generators([(1, 0), (0, 1)], 2),
                        frozenset({"X.1", "Y.1"}))
    assert cl.simplicial_multiset(sc, L) == ((0, 1), (1, 0), (1, 0))
    XY = dk.standard_diagram([("A", 1, "X"), ("A", 1, "Y")])
    assert not cl.classify_cone(sc, L, XY).simplicial

    # colour-free cone: its primitive ray generators
    sc2 = F.ColouredCone(pc.cone_from_generators([(2, 0), (0, 3)], 2),
                         frozenset())
    assert cl.simplicial_multiset(sc2, L) == ((0, 1), (1, 0))


def test_simplicial_vs_regular():
    sc = F.ColouredCone(pc.cone_from_generators([(1, 0), (1, 2)], 2),
                        frozenset())
    flags = cl.classify_cone(sc, L2, TORIC2)
    assert flags.simplicial
    assert not flags.regular

    L1 = F.ColouredLattice(1, ("c",), ((1,),))
    sc1 = F.ColouredCone(pc.cone_from_generators([(1,)], 1), frozenset({"c"}))
    flags1 = cl.classify_cone(sc1, L1, dk.DynkinData(("c",), ()))
    assert flags1.simplicial and flags1.regular


def test_vivid_per_cone():
    d = dk.standard_diagram([("A", 3, "A3")], parabolic=["A3.1", "A3.3"])
    L = F.ColouredLattice(1, ("A3.2",), ((1,),))
    empty = F.ColouredCone(pc.zero_cone(1), frozenset())
    assert cl.is_vivid(empty, L, d)
    coloured = F.ColouredCone(pc.cone_from_generators([(1,)], 1),
                              frozenset({"A3.2"}))
    assert not cl.is_vivid(coloured, L, d)

    d2 = dk.standard_diagram([("A", 3, "A3")], parabolic=["A3.2", "A3.3"])
    L2_ = F.ColouredLattice(1, ("A3.1",), ((1,),))
    ok = F.ColouredCone(pc.cone_from_generators([(1,)], 1),
                        frozenset({"A3.1"}))
    assert cl.is_vivid(ok, L2_, d2)


def test_golden_colour_line():
    d, fan = colour_line_fan()
    v = cl.classify(fan, d)
    assert v.factorial and v.q_factorial
    assert not v.vivid and not v.smooth and not v.quotient_singularities
    assert not v.toroidal


def test_toric_quadric_cone():
    v = cl.classify(toric_fan([(1, 0), (1, 2)]), TORIC2)
    assert v.q_factorial and v.quotient_singularities
    assert not v.factorial and not v.smooth
    assert v.toroidal


def test_p2_smooth():
    v = cl.classify(toric_fan([(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                              [(-1, -1), (1, 0)]), TORIC2)
    assert v.smooth and v.factorial and v.q_factorial \
        and v.quotient_singularities and v.toroidal


def test_colour_set_mismatch():
    d = dk.standard_diagram([("A", 2, "A2")])
    with pytest.raises(ColourSetMismatch):
        cl.classify(toric_fan([(1, 0)]), d)


def test_implication_chain_random():
    rng = random.Random(99)
    for _ in range(40):
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3))
        v = cl.classify(fan, d)
        if v.smooth:
            assert v.factorial and v.quotient_singularities
        if v.quotient_singularities:
            assert v.q_factorial
        if v.factorial:
            assert v.q_factorial
        assert v.quotient_singularities == (v.q_factorial and v.vivid)
        for c in v.cones:
            if c.regular:
                assert c.simplicial
            if c.toroidal:
                assert c.vivid


def test_toroidal_specialization():
    rng = random.Random(7)
    toric = dk.standard_diagram([], torus_rank=3)
    for _ in range(25):
        fan = S.random_coloured_fan(rng, toric, rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3))
        v = cl.classify(fan, toric)
        assert v.toroidal
        assert v.quotient_singularities == v.q_factorial
        assert v.smooth == v.factorial


def test_unimodular_invariance():
    rng = random.Random(31)
    for _ in range(15):
        d = S.random_diagram(rng, max_components=1)
        fan = S.random_coloured_fan(rng, d, 2, n_hyperplanes=2)
        v1 = cl.classify(fan, d)
        fan2 = S.transform_fan(fan, S.random_unimodular(rng, 2))
        v2 = cl.classify(fan2, d)
        assert (v1.q_factorial, v1.factorial, v1.smooth,
                v1.quotient_singularities, v1.toroidal) == \
               (v2.q_factorial, v2.factorial, v2.smooth,
                v2.quotient_singularities, v2.toroidal)


def test_cone_flags_metamorphic():
    # per-cone flags survive a change of coordinates and a reversed listing,
    # and the simplicial flag agrees with plain linear independence
    rng = random.Random(47)
    coloured = 0
    while coloured < 20:
        d = S.random_diagram(rng)
        rank = rng.randint(2, 4)
        fan = S.random_coloured_fan(rng, d, rank, n_hyperplanes=rng.randint(1, 2),
                                    colour_in_fan=0.9)
        if not any(m.colours for m in fan.cones):
            continue
        coloured += 1
        v = cl.classify(fan, d)
        T = S.random_unimodular(rng, rank)
        moved = S.transform_fan(fan, T)
        flags = dict(zip(moved.cones, cl.classify(moved, d).cones))
        for m, f in zip(fan.cones, v.cones):
            image = pc.cone_from_generators(
                [lat.vec_mat(r, T) for r in m.cone.rays], rank)
            assert flags[F.ColouredCone(image, m.colours)] == f
        listed = F.validate_fan(fan.lattice, reversed(fan.maximal_cones()))
        assert cl.classify(listed, d) == v
        for g in (fan, moved):
            for m in g.cones:
                simplicial = cl.classify_cone(m, g.lattice, d).simplicial
                assert simplicial == linearly_independent(
                    cl.simplicial_multiset(m, g.lattice))


def test_face_monotonicity():
    rng = random.Random(13)
    for _ in range(15):
        d = S.random_diagram(rng, max_components=1)
        fan = S.random_coloured_fan(rng, d, rng.randint(2, 3), n_hyperplanes=2)
        flags = {m: cl.classify_cone(m, fan.lattice, d) for m in fan.cones}
        for m in fan.cones:
            for t in pc.faces(m.cone):
                sub = flags[face_colours_oracle(m, t, fan.lattice)]
                sup = flags[m]
                if sup.simplicial:
                    assert sub.simplicial
                if sup.regular:
                    assert sub.regular
                if sup.vivid:
                    assert sub.vivid


def test_simplicial_multiset_agrees_with_the_cox_ray_set():
    # two statements of the colour-on-ray rule: per cone, a ray is coloured
    # when it is the primitive generator of one of the cone's colour points;
    # per fan, when its ray member carries a colour (the Cox basis)
    rng = random.Random(67)
    torus_factors = 0
    for i in range(40):
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3),
                                    max_cells=3, complete=i % 3 == 0)
        if i % 4 == 1:
            fan = S.embed_with_torus_factor(rng, fan, rng.randint(1, 2))
            split = cox.torus_split(fan)
            torus_factors += split.quotient_rank > 0
            fan = split.restricted_fan
        L = fan.lattice
        non_coloured = set(fan.non_coloured_rays())
        for m in fan.cones:
            want = [r for r in m.cone.rays if r in non_coloured]
            want += [L.xi(a) for a in m.colours]
            assert cl.simplicial_multiset(m, L) == tuple(sorted(want))
    assert torus_factors == 10


def _flags(v):
    """The global verdicts and the sorted per-cone flags of a verdict."""
    return ((v.q_factorial, v.factorial, v.smooth, v.quotient_singularities,
             v.toroidal),
            sorted((c.simplicial, c.regular, c.vivid, c.toroidal) for c in v.cones))


def test_flags_do_not_change_under_a_torus_factor():
    # a torus factor is a smooth product factor and the criterion is local:
    # adding one, or splitting it off again, changes no flag of any cone
    rng = random.Random(1919)
    seen = set()
    for i in range(30):
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3),
                                    max_cells=3, complete=i % 3 == 0)
        embedded = S.embed_with_torus_factor(rng, fan, rng.randint(1, 2))
        split = cox.torus_split(embedded)
        want = _flags(cl.classify(fan, d))
        assert _flags(cl.classify(embedded, d)) == want
        assert _flags(cl.classify(split.restricted_fan, d)) == want
        seen.add(want[0])
    assert len(seen) >= 4  # six distinct global verdicts at this seed
