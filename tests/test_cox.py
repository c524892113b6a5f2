import random
from itertools import combinations

import pytest

from horofan import classification as cl
from horofan import cones as pc
from horofan import cox
from horofan import dynkin as dk
from horofan import fans as F
from horofan import lattice as lat
from horofan import sampling as S
from horofan.errors import HasTorusFactors

from oracles import cox_lift_oracle

TORIC2 = dk.standard_diagram([], torus_rank=2)
L2 = F.ColouredLattice(2, (), ())


def toric_fan(*gen_lists):
    return F.validate_fan(L2, [
        F.ColouredCone(pc.cone_from_generators(g, 2), frozenset())
        for g in gen_lists])


P2 = toric_fan([(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)])


def test_torus_split_single_ray():
    fan = toric_fan([(1, 0)])
    sp = cox.torus_split(fan)
    assert sp.quotient_rank == 1
    assert sp.restricted_fan.lattice.rank == 1
    assert [m.cone.rays for m in sp.restricted_fan.cones] == [(), ((1,),)]


def test_torus_split_full_fan():
    sp = cox.torus_split(P2)
    assert sp.quotient_rank == 0
    assert lat.rank_of(sp.n_prime_basis) == 2


def test_torus_split_origin_only():
    sp = cox.torus_split(F.validate_fan(L2, []))
    assert sp.quotient_rank == 2
    assert sp.restricted_fan.lattice.rank == 0
    assert len(sp.restricted_fan.cones) == 1


def test_torus_split_counts_all_colour_points():
    # a colour point outside every cone still spans into the sublattice
    L = F.ColouredLattice(2, ("c",), ((0, 1),))
    fan = F.validate_fan(L, [F.ColouredCone(
        pc.cone_from_generators([(1, 0)], 2), frozenset())])
    assert not cox.has_torus_factors(fan)


def test_has_torus_factors():
    assert not cox.has_torus_factors(P2)
    assert cox.has_torus_factors(toric_fan([(1, 0)]))
    assert cox.has_torus_factors(F.validate_fan(L2, []))


def test_cox_p2():
    data = cox.cox_construct(P2)
    assert data.n_hat_rank == 3
    assert data.basis_index == (("ray", (-1, -1)), ("ray", (0, 1)),
                                ("ray", (1, 0)))
    assert data.mu == ((-1, 0, 1), (-1, 1, 0))
    assert data.class_group == lat.FGAbelianGroup(1, ())
    assert data.k_hat_rank == 1
    maximal = data.cox_fan.maximal_cones()
    assert len(maximal) == 3 and all(m.cone.dim == 2 for m in maximal)
    assert cl.classify(data.cox_fan, TORIC2).smooth


def test_cox_weighted_fan():
    fan = toric_fan([(1, 0), (0, 1)], [(0, 1), (-1, -2)], [(-1, -2), (1, 0)])
    v = cl.classify(fan, TORIC2)
    assert v.q_factorial and not v.factorial
    data = cox.cox_construct(fan)
    assert data.class_group == lat.FGAbelianGroup(1, ())
    assert data.k_hat_rank == 1


def test_cox_colour_line():
    d = dk.standard_diagram([("A", 3, "A3")], parabolic=["A3.1", "A3.3"])
    L = F.ColouredLattice(1, ("A3.2",), ((1,),))
    fan = F.validate_fan(L, [F.ColouredCone(
        pc.cone_from_generators([(1,)], 1), frozenset({"A3.2"}))])
    data = cox.cox_construct(fan)
    assert data.n_hat_rank == 1
    assert data.mu == ((1,),)
    assert data.class_group == lat.FGAbelianGroup(0)
    m = data.cox_fan.maximal_cones()
    assert len(m) == 1 and m[0].cone.rays == ((1,),) \
        and m[0].colours == {"A3.2"}


def test_cox_nonprimitive_colour_point():
    # colour point 2 on Z: factorial fails upstairs too, class group Z/2
    d = dk.standard_diagram([("A", 2, "A2")], parabolic=["A2.2"])
    L = F.ColouredLattice(1, ("A2.1",), ((2,),))
    fan = F.validate_fan(L, [F.ColouredCone(
        pc.cone_from_generators([(1,)], 1), frozenset({"A2.1"}))])
    data = cox.cox_construct(fan)
    assert data.class_group == lat.FGAbelianGroup(0, (2,))
    assert data.k_hat_rank == 0


def test_cox_requires_no_torus_factors():
    with pytest.raises(HasTorusFactors):
        cox.cox_construct(toric_fan([(1, 0)]))


def test_consistency_p2():
    rep = cox.cox_consistency(P2, TORIC2)
    assert rep.equivalences_hold
    assert rep.affine_space is None  # not simple full-colour


def test_consistency_colour_line():
    d = dk.standard_diagram([("A", 3, "A3")], parabolic=["A3.1", "A3.3"])
    L = F.ColouredLattice(1, ("A3.2",), ((1,),))
    fan = F.validate_fan(L, [F.ColouredCone(
        pc.cone_from_generators([(1,)], 1), frozenset({"A3.2"}))])
    rep = cox.cox_consistency(fan, d)
    assert rep.cox_fan_regular
    assert not rep.fan_vivid and not rep.cox_fan_smooth
    assert rep.orthant_shape and not rep.affine_space
    assert not rep.projective_space_product
    assert rep.equivalences_hold


def test_consistency_affine_vivid():
    d = dk.standard_diagram([("A", 2, "A2")], parabolic=["A2.2"])
    L = F.ColouredLattice(1, ("A2.1",), ((1,),))
    fan = F.validate_fan(L, [F.ColouredCone(
        pc.cone_from_generators([(1,)], 1), frozenset({"A2.1"}))])
    rep = cox.cox_consistency(fan, d)
    assert rep.projective_space_product and rep.fan_vivid and rep.affine_space
    assert rep.equivalences_hold


def test_vividness_transfers_random():
    rng = random.Random(21)
    count = 0
    while count < 20:
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                    n_hyperplanes=2, complete=True)
        if cox.has_torus_factors(fan):
            continue
        data = cox.cox_construct(fan)
        v = cl.classify(fan, d)
        hv = cl.classify(data.cox_fan, d)
        assert hv.factorial  # the lifted fan is always regular
        assert v.vivid == hv.vivid == hv.smooth
        assert lat.rank_of(data.mu) == fan.lattice.rank
        assert data.k_hat_rank == data.class_group.free_rank
        count += 1


def test_mu_changes_by_left_multiplication_only():
    rng = random.Random(77)
    fan = P2
    data = cox.cox_construct(fan)
    old_cols = lat.transpose(data.mu, ncols=data.n_hat_rank)
    for _ in range(5):
        T = S.random_unimodular(rng, 2)
        fan2 = S.transform_fan(fan, T)
        data2 = cox.cox_construct(fan2)
        assert data2.class_group == data.class_group
        assert data2.n_hat_rank == data.n_hat_rank
        # the columns of mu are the old columns times T, up to the canonical
        # reordering of ray tags
        new_cols = lat.transpose(data2.mu, ncols=data2.n_hat_rank)
        assert sorted(new_cols) == sorted(lat.vec_mat(c, T) for c in old_cols)


def test_split_then_cox_matches_direct_recipe():
    rng = random.Random(55)
    for _ in range(10):
        d = S.random_diagram(rng, max_components=1)
        base = S.random_coloured_fan(rng, d, 2, n_hyperplanes=2, complete=True)
        q = rng.randint(1, 2)
        fan = S.embed_with_torus_factor(rng, base, q)
        split = cox.torus_split(fan)
        assert split.quotient_rank == q
        data = cox.cox_construct(split.restricted_fan)

        # direct count on the original fan
        n_hat_direct = len(fan.lattice.colours) + len(fan.non_coloured_rays())
        assert data.n_hat_rank == n_hat_direct

        # class group from the ambient-coordinate columns, no splitting
        cols = [fan.lattice.xi(a) for a in fan.lattice.colours]
        cols += list(fan.non_coloured_rays())
        ambient_mu_T = lat.freeze_matrix(cols)
        assert lat.cokernel_structure(ambient_mu_T) == data.class_group

        # block recipe: mu' extended by an identity on the quotient
        mu_prime = data.mu
        n_prime = split.restricted_fan.lattice.rank
        block = [tuple(row) + (0,) * q for row in
                 lat.transpose(mu_prime, ncols=data.n_hat_rank)]
        for i in range(q):
            block.append((0,) * n_prime + tuple(
                1 if j == i else 0 for j in range(q)))
        assert lat.cokernel_structure(lat.freeze_matrix(block)) \
            == data.class_group


def test_lift_matches_the_containment_oracle():
    # the lift picks each member's generators by its ray set; the oracle
    # tests every non-coloured ray for containment and validates every pair
    rng = random.Random(61)
    torus_factors = 0
    for i in range(40):
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3),
                                    max_cells=3, complete=i % 4 == 0)
        if i % 2:
            fan = S.embed_with_torus_factor(rng, fan, rng.randint(1, 2))
        split = cox.torus_split(fan)
        torus_factors += split.quotient_rank > 0
        fan = split.restricted_fan
        lifted, want = cox.cox_construct(fan).cox_fan, cox_lift_oracle(fan)
        assert lifted.lattice == want.lattice
        assert [(m.cone.rays, m.colours) for m in lifted.cones] == \
            [(m.cone.rays, m.colours) for m in want.cones]
    assert torus_factors >= 20


def test_lifted_fan_has_one_member_per_subset_of_a_maximal_cone():
    # a member's lift is the coordinate cone of its colours and non-coloured
    # rays, S; a maximal cone's lift has a face for each subset of its S, and
    # every member lies in a maximal cone, so the lifted fan has exactly
    # |union of 2^S| members
    rng = random.Random(1506)
    for i in range(40):
        fan = S.random_coloured_fan(rng, S.random_diagram(rng), rng.randint(1, 4),
                                    n_hyperplanes=rng.randint(1, 3),
                                    complete=i % 2 == 0)
        fan = cox.torus_split(fan).restricted_fan
        data = cox.cox_construct(fan)
        uncoloured = set(fan.non_coloured_rays())
        subsets = set()
        for m in fan.maximal_cones():
            s = m.colours | (set(m.cone.rays) & uncoloured)
            subsets.update(frozenset(c) for k in range(len(s) + 1)
                           for c in combinations(s, k))
        assert len(data.cox_fan.cones) == len(subsets)
        assert data.k_hat_rank == data.n_hat_rank - fan.lattice.rank


def test_lifted_members_are_the_cones_of_their_generators(monkeypatch):
    # the lift writes each member down as a coordinate cone; it must be the
    # cone that the double description builds from the same basis vectors,
    # with the same faces (each derived from its own normals) and the same
    # membership answers
    build = pc.cone_from_generators
    calls = []
    monkeypatch.setattr(pc, "cone_from_generators",
                        lambda *args: calls.append(args) or build(*args))
    rng = random.Random(73)
    torus_factors = 0
    for i in range(40):
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3),
                                    max_cells=3, complete=i % 4 == 0)
        if i % 2:
            fan = S.embed_with_torus_factor(rng, fan, rng.randint(1, 2))
        split = cox.torus_split(fan)
        torus_factors += split.quotient_rank > 0
        calls.clear()
        data = cox.cox_construct(split.restricted_fan)
        assert calls == []
        n_hat = data.n_hat_rank
        points = list(lat.identity(n_hat))
        for m in data.cox_fan.cones:
            c = m.cone
            want = build(c.rays, n_hat)
            assert (c.rays, c.dim) == (want.rays, want.dim)
            assert [f.rays for f in pc.faces.__wrapped__(c)] == \
                [f.rays for f in pc.faces.__wrapped__(want)]
            total = tuple(sum(r[j] for r in c.rays) for j in range(n_hat))
            for p in points + [total]:
                assert pc.contains(c, p) == pc.contains(want, p)
    assert torus_factors >= 20
