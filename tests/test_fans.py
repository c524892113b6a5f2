import pathlib
import random
import time
from math import comb

import pytest

from horofan import cones as pc
from horofan import cox
from horofan import document as doc
from horofan import lattice
from horofan.classification import simplicial_multiset
from horofan import fans as F
from horofan import sampling as S
from horofan.local import decolour
from horofan.errors import (ColourPointOutsideCone, InconsistentColours,
                            NotStronglyConvex, OverlappingCones,
                            UnknownColour, ZeroColourPoint)

from oracles import face_colours_oracle, is_face_of, pair_check_oracle

GOLDENS = pathlib.Path(__file__).parent.parent / "goldens"


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
    assert not is_face_of(pc.cone_from_generators([(1, 1)], 2), sc.cone)


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
    # decolour keeps each member's cone; torus_split and the sampling
    # transforms map the maximal cones and read every other member off
    # their faces; none calls validate_fan, and validating changes nothing
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
    # the sampled fans are pure; here the maximal cones differ in dimension
    L = F.ColouredLattice(2, ("a",), ((-2, -2),))
    fan = F.validate_fan(L, [plain([(1, 0), (0, 1)]), F.ColouredCone(
        pc.cone_from_generators([(-1, -1)], 2), frozenset({"a"}))])
    for _ in range(5):
        embedded = _same_as_validated(
            S.embed_with_torus_factor(rng, fan, rng.randint(1, 2)))
        split = _same_as_validated(cox.torus_split(embedded).restricted_fan)
        assert [m.cone.dim for m in split.cones] == [0, 1, 1, 1, 2]
        T = S.random_unimodular(rng, embedded.lattice.rank)
        _same_as_validated(S.transform_fan(embedded, T))


def test_maps_convert_only_the_maximal_cones(monkeypatch):
    build = pc.cone_from_generators
    calls = []
    monkeypatch.setattr(pc, "cone_from_generators",
                        lambda *args: calls.append(args) or build(*args))
    rng = random.Random(25)
    for _ in range(20):
        d = S.random_diagram(rng)
        fan = S.random_coloured_fan(rng, d, rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3), max_cells=3)
        fan = S.embed_with_torus_factor(rng, fan, rng.randint(1, 2))
        T = S.random_unimodular(rng, fan.lattice.rank)
        for mapped in (lambda: cox.torus_split(fan), lambda: S.transform_fan(fan, T)):
            calls.clear()
            mapped()
            assert len(calls) == len(fan.maximal_cones())


def test_a_map_that_breaks_primitivity_is_refused():
    fan = F.validate_fan(TORIC2, [plain([(1, 0), (0, 1)])])
    with pytest.raises(KeyError):
        F.map_fan(fan, 2, lambda v: tuple(2 * x for x in v))


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
                         if not any(o.cone != m.cone and is_face_of(m.cone, o.cone)
                                    for o in fan.cones))
        assert fan.maximal_cones() == by_faces


def test_maximal_cones_time_is_linear_in_the_members():
    # every face of the orthant of rank 15, 32,768 members under one
    # maximal cone: tested against the maximal ray sets found so far, they
    # take a tenth of a second; tested against every other member, 25 s
    # (2-core VM)
    n = 15
    e = lattice.identity(n)
    members = []
    for mask in range(1 << n):
        on = [i for i in range(n) if mask >> i & 1]
        rays = tuple(sorted(e[i] for i in on))
        off = tuple(e[i] for i in range(n) if i not in on)
        members.append(F.ColouredCone(pc.Cone(n, rays, rays, len(on), off),
                                      frozenset()))
    fan = F.ColouredFan(F.ColouredLattice(n, (), ()), members)
    start = time.perf_counter()
    assert [m.cone.rays for m in fan.maximal_cones()] == [tuple(sorted(e))]
    assert time.perf_counter() - start < 5


def _canonical(L, cone):
    """The cone with every colour whose point lies on it, as the sampler
    colours its cells."""
    return F.ColouredCone(cone, frozenset(
        a for a in L.colours
        if any(L.xi(a)) and pc.contains(cone, L.xi(a)) != pc.OUTSIDE))


def _collections(rng):
    """Seeded inputs for validate_fan: the maximal cones of a sampled fan,
    complete or not, and collections that are no fan or that colour one
    cone twice."""
    rank = rng.randint(1, 4)
    fan = S.random_coloured_fan(rng, S.random_diagram(rng), rank,
                                n_hyperplanes=rng.randint(1, 3 if rank == 4 else 4),
                                complete=rng.random() < 0.5)
    L = fan.lattice
    top = list(fan.maximal_cones())
    yield "sampled", L, top
    cells = [_canonical(L, c) for c in S.arrangement_cells(rng, rank, rng.randint(1, 3))]
    yield "stacked", L, top + cells  # a second arrangement over the first
    a = rng.choice(top).cone
    for b in top:
        if b.cone != a and pc.intersect(a, b.cone).dim == rank - 1:  # a neighbour
            try:
                union = pc.cone_from_generators(a.rays + b.cone.rays, rank)
            except NotStronglyConvex:
                break
            yield "union", L, top + [_canonical(L, union)]
            break
    i = rng.randrange(len(top))
    T = S.random_unimodular(rng, rank)
    moved = pc.cone_from_generators([lattice.vec_mat(r, T) for r in top[i].cone.rays], rank)
    yield "moved", L, top[:i] + [_canonical(L, moved)] + top[i + 1:]
    sc = rng.choice(top)
    face = pc.cone_from_generators(rng.choice(pc.faces(sc.cone)).rays, rank)
    inherited = _canonical(L, face).colours & sc.colours
    kept = frozenset(rng.sample(sorted(inherited), rng.randint(0, len(inherited))))
    yield "face", L, top + [F.ColouredCone(face, kept)]
    if sc.colours:  # one colour dropped from a maximal cone
        gone = rng.choice(sorted(sc.colours))
        yield "recoloured", L, [F.ColouredCone(m.cone, m.colours - {gone})
                                if m == sc else m for m in top]


def _outcome(check, L, coloured_cones):
    try:
        return frozenset(check(L, coloured_cones))
    except (OverlappingCones, InconsistentColours) as exc:
        return type(exc)


def test_validate_fan_agrees_with_the_pair_check_oracle():
    # the wall test for complete fans, the nested and ray-set shortcuts
    # otherwise: every collection gets the oracle's members or its error
    rng = random.Random(2026)
    seen = set()
    for _ in range(60):
        for kind, L, cones in _collections(rng):
            rng.shuffle(cones)
            want = _outcome(pair_check_oracle, L, cones)
            got = _outcome(lambda L, cs: F.validate_fan(L, cs).cones, L, cones)
            assert got == want, kind
            seen.add(want if isinstance(want, type) else "fan")
    assert seen == {"fan", OverlappingCones, InconsistentColours}


def test_walls_need_opposite_sides_and_a_point_covered_once():
    # every wall of these lies in exactly two cones, so only the side test
    # or the interior point tells them from a complete fan
    star = [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)]
    twice_around = [plain([star[i], star[(i + 1) % 5]]) for i in range(5)]
    L = F.ColouredLattice(2, ("a",), ((0, -1),))
    below = pc.cone_from_generators([(-1, -2), (1, -2)], 2)
    quadrants = [plain([(1, 0), (0, 1)]), plain([(0, 1), (-1, 0)]),
                 plain([(-1, 0), (0, -1)]), plain([(0, -1), (1, 0)])]
    below_twice = quadrants + [F.ColouredCone(below, {"a"}),
                               F.ColouredCone(below, frozenset())]
    for lattice_, cones in ((TORIC2, twice_around), (L, below_twice)):
        with pytest.raises(OverlappingCones):
            pair_check_oracle(lattice_, cones)
        with pytest.raises(OverlappingCones):
            F.validate_fan(lattice_, cones)


def test_complete_fans_are_validated_by_their_walls(monkeypatch):
    # machine-independent: a complete document or sampled complete fan is
    # validated with no intersect call; a fan that is not complete checks
    # its pairs.  More hyperplanes than the rank give non-simplicial
    # maximal cones, the case the proof of `_complete_by_walls` is for
    calls = []
    intersect = pc.intersect
    monkeypatch.setattr(pc, "intersect", lambda a, b: calls.append(1) or intersect(a, b))
    for name in ("p2.json", "p112.json"):
        doc.build(doc.parse((GOLDENS / name).read_text()))
    rng = random.Random(5)
    for _ in range(10):
        fan = S.random_coloured_fan(rng, S.random_diagram(rng), rng.randint(1, 4),
                                    n_hyperplanes=rng.randint(1, 3), complete=True)
        assert F.validate_fan(fan.lattice, fan.maximal_cones()) == fan
    rng = random.Random(1503)
    non_simplicial = 0
    for _ in range(10):
        rank = rng.randint(1, 4)
        fan = S.random_coloured_fan(rng, S.random_diagram(rng), rank,
                                    n_hyperplanes=rank + rng.randint(0, 2), complete=True)
        assert F.validate_fan(fan.lattice, fan.maximal_cones()) == fan
        non_simplicial += sum(len(m.cone.rays) > rank for m in fan.maximal_cones())
    assert non_simplicial > 0
    assert calls == []
    F.validate_fan(TORIC2, [plain([(1, 0), (0, 1)]), plain([(0, 1), (-1, 0)])])
    assert len(calls) == 1


def _member_images(rng, fan):
    """The fan, its decolour, torus_split and transform_fan images, and the
    Cox lift of its split fan."""
    colours = fan.lattice.colours
    split = cox.torus_split(fan).restricted_fan
    T = S.random_unimodular(rng, fan.lattice.rank)
    return (fan, decolour(fan, rng.sample(colours, rng.randint(0, len(colours)))),
            split, S.transform_fan(fan, T), cox.cox_construct(split).cox_fan)


def test_members_are_distinct_cones_so_colours_never_order_them():
    # ColouredFan sorts its members by their cone alone: no two members of
    # a fan or of its images share a ray set, so the colour order that
    # once broke ties never decides
    rng = random.Random(2318)
    fans = [doc.build(doc.parse(p.read_text()))[2] for p in sorted(GOLDENS.glob("*.json"))]
    for i in range(40):
        fan = S.random_coloured_fan(rng, S.random_diagram(rng), rng.randint(1, 3),
                                    n_hyperplanes=rng.randint(1, 3), max_cells=3,
                                    complete=i % 2 == 0)
        if i % 3 == 0:
            fan = S.embed_with_torus_factor(rng, fan, rng.randint(1, 2))
        fans.append(fan)
    for fan in fans:
        for image in _member_images(rng, fan):
            L = image.lattice
            members = list(image.cones)
            assert len({frozenset(m.cone.rays) for m in members}) == len(members)
            assert members == sorted(members, key=lambda m: (m.cone.dim, m.cone.rays))
            assert members == sorted(members, key=lambda m: (
                m.cone.dim, m.cone.rays, sorted(map(L.colour_order, m.colours))))


def _euler(cones):
    return sum((-1) ** c.dim for c in cones)


def test_faces_of_each_nonzero_member_have_euler_characteristic_zero():
    # Euler-Poincare on the face lattice of a nonzero pointed cone, the
    # zero cone included (Ziegler, Lectures on Polytopes, 8.1)
    rng = random.Random(1501)
    for i in range(30):
        fan = S.random_coloured_fan(rng, S.random_diagram(rng), rng.randint(1, 4),
                                    n_hyperplanes=rng.randint(1, 3),
                                    complete=i % 2 == 0)
        for m in fan.cones:
            if m.cone.dim:
                assert _euler(pc.faces(m.cone)) == 0


def test_members_of_a_complete_fan_have_the_euler_characteristic_of_a_sphere():
    # the members of a complete fan of rank d, the origin included, give
    # sum_j (-1)^j f_j = (-1)^d
    rng = random.Random(1502)
    for _ in range(12):
        rank = rng.randint(1, 4)
        fan = S.random_coloured_fan(rng, S.random_diagram(rng), rank,
                                    n_hyperplanes=rank + rng.randint(0, 2),
                                    complete=True)
        assert _euler(m.cone for m in fan.cones) == (-1) ** rank


def test_complete_simplicial_fans_have_a_symmetric_h_vector():
    # Dehn-Sommerville: with f_j members of dimension j, the h-vector
    # h_k = sum_j (-1)^(k-j) C(d-j, k-j) f_j of a complete simplicial fan in
    # rank d is symmetric (Ziegler, Lectures on Polytopes, 8.3)
    rng = random.Random(1505)
    simplicial = 0
    for _ in range(16):
        rank = rng.randint(1, 4)
        fan = S.random_coloured_fan(rng, S.random_diagram(rng), rank,
                                    n_hyperplanes=rank + rng.randint(0, 2),
                                    complete=True)
        if any(len(m.cone.rays) != m.cone.dim for m in fan.cones):
            continue
        f = [sum(m.cone.dim == j for m in fan.cones) for j in range(rank + 1)]
        h = [sum((-1) ** (k - j) * comb(rank - j, k - j) * f[j] for j in range(k + 1))
             for k in range(rank + 1)]
        assert h == h[::-1], (f, h)
        simplicial += 1
    assert simplicial >= 10
