import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from horofan import cones as pc
from horofan import lattice
from horofan.errors import DimensionMismatch, NotStronglyConvex, ZeroVector
from horofan.lattice import rank_of

from oracles import (extreme_rays_oracle, faces3d_oracle, faces_oracle, is_face_of,
                     member_oracle, relint_oracle)


def test_primitive():
    assert pc.primitive((2, 4)) == (1, 2)
    assert pc.primitive((1, 0)) == (1, 0)
    assert pc.primitive((0, -3)) == (0, -1)
    with pytest.raises(ZeroVector):
        pc.primitive((0, 0))


def test_redundant_generator_dropped():
    c = pc.cone_from_generators([(1, 0), (0, 1), (1, 1)], 2)
    assert c.rays == ((0, 1), (1, 0))


def test_line_rejected():
    with pytest.raises(NotStronglyConvex):
        pc.cone_from_generators([(1, 0), (-1, 0)], 2)
    with pytest.raises(NotStronglyConvex):
        pc.cone_from_generators([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(NotStronglyConvex):  # the whole plane: no normal at all
        pc.cone_from_generators([(1, 0), (0, 1), (-1, -1)], 2)


def test_zero_generator_rejected():
    with pytest.raises(ZeroVector):
        pc.cone_from_generators([(0, 0), (1, 0)], 2)


def test_four_ray_cone():
    c = pc.cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    assert len(c.rays) == 4
    assert len(c.facet_normals) == 4


def test_contains_classification():
    c = pc.cone_from_generators([(1, 0), (0, 1)], 2)
    assert pc.contains(c, (1, 1)) == pc.RELATIVE_INTERIOR
    assert pc.contains(c, (1, 0)) == pc.BOUNDARY
    assert pc.contains(c, (-1, 0)) == pc.OUTSIDE
    assert pc.contains(c, (0, 0)) == pc.BOUNDARY
    z = pc.zero_cone(2)
    assert pc.contains(z, (0, 0)) == pc.RELATIVE_INTERIOR
    assert pc.contains(z, (1, 0)) == pc.OUTSIDE
    with pytest.raises(DimensionMismatch):
        pc.contains(c, (1, 0, 0))


def test_contains_off_span():
    r = pc.cone_from_generators([(1, 2, 0)], 3)
    assert pc.contains(r, (2, 4, 0)) == pc.RELATIVE_INTERIOR
    assert pc.contains(r, (1, 2, 1)) == pc.OUTSIDE
    assert pc.contains(r, (-1, -2, 0)) == pc.OUTSIDE


def test_faces_counts():
    c = pc.cone_from_generators([(1, 0), (1, 2)], 2)
    assert len(pc.faces(c)) == 4
    ray = pc.cone_from_generators([(1, 0)], 2)
    assert len(pc.faces(ray)) == 2
    c4 = pc.cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    assert len(pc.faces(c4)) == 10  # origin + 4 rays + 4 facets + itself


def test_is_face_of():
    c = pc.cone_from_generators([(1, 0), (0, 1)], 2)
    assert is_face_of(pc.cone_from_generators([(1, 0)], 2), c)
    assert is_face_of(pc.zero_cone(2), c)
    assert is_face_of(c, c)
    assert not is_face_of(pc.cone_from_generators([(1, 1)], 2), c)


def test_intersections():
    a = pc.cone_from_generators([(1, 0), (1, 2)], 2)
    b = pc.cone_from_generators([(1, 2), (0, 1)], 2)
    assert pc.intersect(a, b).rays == ((1, 2),)
    assert pc.intersect(a, a) == a
    l = pc.cone_from_generators([(1, 0), (0, 1)], 2)
    r = pc.cone_from_generators([(-1, 0), (0, 1)], 2)
    assert pc.intersect(l, r).rays == ((0, 1),)
    o = pc.cone_from_generators([(-1, 0), (0, -1)], 2)
    assert pc.intersect(l, o) == pc.zero_cone(2)


def test_intersection_with_new_rays():
    # square and diamond cones over z=1, intersection is an octagonal cone
    sq = pc.cone_from_generators(
        [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)], 3)
    dm = pc.cone_from_generators(
        [(3, 0, 2), (0, 3, 2), (-3, 0, 2), (0, -3, 2)], 3)
    i = pc.intersect(sq, dm)
    assert len(i.rays) == 8
    for r in i.rays:
        assert pc.contains(sq, r) != pc.OUTSIDE
        assert pc.contains(dm, r) != pc.OUTSIDE


def _assert_span_equations(c):
    # the equations vanish on the span and cut out nothing larger
    assert all(lattice.dot(e, r) == 0 for e in c.equations for r in c.rays)
    assert rank_of(c.equations) == c.ambient_rank - c.dim


def test_round_trip():
    for gens, n in (([(1, 0), (0, 1)], 2), ([(1, 2, 0), (0, 1, 1), (2, 1, 1)], 3),
                    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3), ([], 2),
                    ([], 0), ([], 4),
                    # a square cone in a 3-dimensional sub-span of Z^5
                    ([(1, 1, 1, 2, 0), (-1, 1, 1, 0, 0), (-1, -1, 1, 0, -2),
                      (1, -1, 1, 2, -2)], 5)):
        c = pc.cone_from_generators(gens, n)
        assert c.dim == rank_of(c.rays) and (c == pc.zero_cone(n)) == (not gens)
        assert gens or c.equations == lattice.identity(n)
        assert pc.cone_from_generators(c.rays, c.ambient_rank) == c
        assert pc.cone_from_generators(c.rays, c.ambient_rank).facet_normals \
            == c.facet_normals
        _assert_span_equations(c)
        _assert_span_equations(pc.zero_cone(n))


def _random_pointed_gens(rng, dim, count):
    # points with positive last coordinate span a pointed cone
    gens = []
    while len(gens) < count:
        v = tuple(rng.randint(-3, 3) for _ in range(dim - 1)) + (rng.randint(1, 3),)
        gens.append(v)
    return gens


def test_contains_matches_membership_oracle():
    rng = random.Random(17)
    for _ in range(40):
        dim = rng.randint(2, 3)
        gens = _random_pointed_gens(rng, dim, rng.randint(1, 5))
        c = pc.cone_from_generators(gens, dim)
        for _ in range(8):
            v = tuple(rng.randint(-4, 4) for _ in range(dim))
            got = pc.contains(c, v)
            assert (got != pc.OUTSIDE) == member_oracle(gens, v)
            assert (got == pc.RELATIVE_INTERIOR) == relint_oracle(list(c.rays), v)


def test_faces_match_oracle():
    rng = random.Random(23)
    for _ in range(25):
        gens = _random_pointed_gens(rng, 3, rng.randint(3, 6))
        c = pc.cone_from_generators(gens, 3)
        if c.dim != 3:
            continue
        got = {frozenset(f.rays) for f in pc.faces(c)}
        assert got == faces3d_oracle(gens)


def _subspace_cases():
    """(k, gens, points): seeded pointed cones of dim d in a random subspace
    of Z^k, k <= 6, on up to 10 generators, random or on the moment curve,
    each with 8 points of Z^k and 6 of the span, mostly in the cone."""
    rng = random.Random(53)
    cases = []
    for k, d in ((6, 6), (6, 5), (6, 3), (5, 5), (5, 2), (4, 4), (4, 3),
                 (3, 3), (3, 1), (2, 2)):
        while rank_of(B := [tuple(rng.randint(-2, 2) for _ in range(k))
                            for _ in range(d)]) < d:
            pass
        count = rng.randint(d, 10)
        for coords in (_random_pointed_gens(rng, d, count),
                       [(1,) + tuple(t ** i for i in range(1, d)) for t in range(count)]):
            points = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(8)]
            points += [lattice.vec_mat(x, B) for x in _random_pointed_gens(rng, d, 6)]
            cases.append((k, [lattice.vec_mat(x, B) for x in coords], points))
    return cases


def test_faces_match_the_hyperplane_oracle_in_any_rank():
    # each face is listed once, with its dim, and its derived normals and
    # equations act as the rebuilt cone's
    for k, gens, points in _subspace_cases():
        c = pc.cone_from_generators(gens, k)
        listed = [(frozenset(f.rays), f.dim) for f in pc.faces(c)]
        assert len(listed) == len(set(listed))
        assert set(listed) == faces_oracle(gens), (k, gens)
        for f in pc.faces(c):
            _assert_matches_rebuilt(f, points)


def test_faces_do_not_depend_on_facet_order():
    # every face is an intersection of facets, met in whatever order; the
    # cache keys a cone by its rays, so the uncached function is compared
    rng = random.Random(59)
    cyclic = [([[t ** i for i in range(r)] for t in range(n)], r)
              for r, n in ((6, 10), (8, 12))]
    for gens, k in cyclic + [(gens, k) for k, gens, _ in _subspace_cases()]:
        c = pc.cone_from_generators(gens, k)
        normals = list(c.facet_normals)
        rng.shuffle(normals)
        shuffled = pc.Cone(k, c.rays, tuple(normals), c.dim, c.equations)
        assert [(f.dim, f.rays, len(f.facet_normals))
                for f in pc.faces.__wrapped__(shuffled)] == [
            (f.dim, f.rays, len(f.facet_normals)) for f in pc.faces.__wrapped__(c)]


def test_extreme_rays_match_oracle():
    rng = random.Random(29)
    for _ in range(30):
        dim = rng.randint(2, 3)
        gens = [pc.primitive(g)
                for g in _random_pointed_gens(rng, dim, rng.randint(2, 6))]
        c = pc.cone_from_generators(gens, dim)
        expected = {g for g in set(gens)
                    if not member_oracle([h for h in set(gens) if h != g], g)}
        assert set(c.rays) == expected


def test_lower_dimensional_cones_match_oracle():
    # cones on 1-3 generators of a random sub-span of Z^4 or Z^5: their
    # equations come from the lineality of the dual double description
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(4, 5)
        s = rng.randint(1, 3)
        while rank_of(B := [tuple(rng.randint(-2, 2) for _ in range(n))
                            for _ in range(s)]) < s:
            pass

        def in_span():
            return lattice.vec_mat(tuple(rng.randint(-3, 3) for _ in range(s)), B)
        gens, count = [], rng.randint(1, 3)
        while len(gens) < count:
            # a positive first coordinate on B keeps the cone pointed
            g = in_span()
            if lattice.dot(g, B[0]) > 0:
                gens.append(pc.primitive(g))
        c = pc.cone_from_generators(gens, n)
        assert set(c.rays) == {g for g in set(gens)
                               if not member_oracle([h for h in set(gens) if h != g], g)}
        assert c.dim == rank_of(gens) and len(c.equations) == n - c.dim
        _assert_span_equations(c)
        points = [in_span() for _ in range(8)] + gens + [tuple(map(sum, zip(*gens)))]
        points += [tuple(x + rng.randint(-1, 1) for x in p) for p in points]
        for p in points:
            assert (pc.contains(c, p) != pc.OUTSIDE) == member_oracle(gens, p)


@st.composite
def _halfspace_systems(draw):
    k = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k),
                         min_size=k, max_size=k + 2))
    if draw(st.booleans()):
        # orient the rows towards (1, ..., 1) so the cone is rarely {0}
        rows = [r if sum(r) >= 0 else tuple(-x for x in r) for r in rows]
    # repeated directions, inserted early so that many rays lie on both
    # copies, and a redundant row (the sum of two others)
    twice = [tuple(2 * x for x in r) for r in rows[:draw(st.integers(0, k))]]
    rows = rows[:k] + twice + rows[k:]
    if draw(st.booleans()):
        rows.append(tuple(a + b for a, b in zip(rows[0], rows[1])))
    return rows, k


@given(_halfspace_systems())
@settings(max_examples=120, deadline=None)
def test_extreme_rays_match_halfspace_oracle(system):
    rows, k = system
    got, lin = pc.extreme_rays(rows, k)
    rank = rank_of(rows)
    # lin is a basis of the common kernel of the rows
    assert len(lin) == k - rank == rank_of(lin)
    assert all(lattice.dot(row, v) == 0 for row in rows for v in lin)
    for r, mask in got.items():
        assert mask == sum(1 << i for i, row in enumerate(rows)
                           if lattice.dot(row, r) == 0)
    if rank == k:
        assert lin == []
        assert sorted(got) == extreme_rays_oracle(rows, k)


@st.composite
def _systems_with_equalities(draw):
    rows, k = draw(_halfspace_systems())
    eqs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), max_size=3))
    return rows, k, eqs


@given(_systems_with_equalities())
@settings(max_examples=150, deadline=None)
@seed(43)
def test_extreme_rays_with_equalities_match_row_pairs(system):
    # an equality e @ x == 0 restricts the start of the double description;
    # it must give what the row pair (e, -e) gives, with the pairs' bits
    # (set on every ray) left out of the masks
    rows, k, eqs = system
    got, lin = pc.extreme_rays(rows, k, eqs)
    pairs = [r for e in eqs for r in (e, tuple(-x for x in e))]
    old, old_lin = pc.extreme_rays(pairs + rows, k)
    assert got == {r: z >> len(pairs) for r, z in old.items()}
    assert rank_of(lin) == rank_of(old_lin) == rank_of(lin + old_lin)


@given(_systems_with_equalities())
@settings(max_examples=1000, deadline=None)
@seed(47)
def test_extreme_rays_with_equalities_match_row_pairs_modulo_lin(system):
    # each ray is one representative modulo span(lin), and the equality
    # start and the row-pair start may pick different bases of that span:
    # the masks agree, and each ray agrees exactly when lin is empty and
    # otherwise up to a vector of span(lin), on the same side of every row
    rows, k, eqs = system
    got, lin = pc.extreme_rays(rows, k, eqs)
    pairs = _row_pairs(eqs)
    old, old_lin = pc.extreme_rays(pairs + rows, k)
    want = {z >> len(pairs): r for r, z in old.items()}
    assert rank_of(lin) == rank_of(old_lin) == rank_of(lin + old_lin)
    assert sorted(got.values()) == sorted(want)
    for r, z in got.items():
        s = want[z]
        assert r == s if not lin else rank_of(lin + [r, s]) == len(lin) + 1
        assert all((lattice.dot(row, r) > 0) == (lattice.dot(row, s) > 0)
                   for row in rows)


def _row_pairs(eqs):
    return [r for e in eqs for r in (e, tuple(-x for x in e))]


def _assert_masks(got, rows):
    for r, mask in got.items():
        assert mask == sum(1 << i for i, row in enumerate(rows)
                           if lattice.dot(row, r) == 0)


def test_equalities_match_the_row_pair_oracle():
    # rows of rank k keep the cone pointed, so its rays are canonical; the
    # oracle takes each equality as the rows e and -e and runs no double
    # description.  Half the equalities vanish on (1, ..., 1), which the
    # rows, oriented towards it, keep inside the cone
    rng = random.Random(83)
    for _ in range(80):
        k = rng.randint(2, 5)
        while True:
            rows = [tuple(rng.randint(-3, 3) for _ in range(k))
                    for _ in range(rng.randint(k, k + 2))]
            if rank_of(rows) == k:
                break
        rows = [r if sum(r) >= 0 else tuple(-x for x in r) for r in rows]
        eqs = []
        for _ in range(rng.randint(0, 3)):
            e = [rng.randint(-3, 3) for _ in range(k)]
            if rng.random() < 0.5:
                e[-1] -= sum(e)
            eqs.append(tuple(e))
        got, lin = pc.extreme_rays(rows, k, eqs)
        assert lin == []
        assert sorted(got) == extreme_rays_oracle(rows + _row_pairs(eqs), k)
        _assert_masks(got, rows)
        # callers may pass generators; each is read once
        assert pc.extreme_rays(iter(rows), k, (e for e in eqs)) == (got, lin)


def test_equalities_repeated_zero_or_of_full_rank():
    # the orthant of R^3 cut by x == y, given three times and with a zero
    rows = list(lattice.identity(3))
    eqs = [(1, -1, 0), (0, 0, 0), (1, -1, 0), (2, -2, 0)]
    got = pc.extreme_rays(rows, 3, eqs)
    assert got == ({(1, 1, 0): 0b100, (0, 0, 1): 0b011}, [])
    assert sorted(got[0]) == extreme_rays_oracle(rows + _row_pairs(eqs), 3)
    # equalities of rank k leave the origin only: no rays, empty lin
    full = [(1, 0, 0), (0, 1, 1), (0, 1, -1), (1, 1, 1)]
    assert pc.extreme_rays(rows, 3, full) == ({}, [])
    assert pc.extreme_rays((), 3, full) == ({}, [])
    # with no rows, lin is a basis of the equalities' kernel
    assert pc.extreme_rays((), 3, [(1, 1, 1), (2, 2, 2)]) == (
        {}, [(-1, 1, 0), (-1, 0, 1)])


def test_equalities_with_large_entries_in_rank_8():
    # {x >= 0, x0 == x1, x2 == x3} in R^8 has the six rays e0 + e1, e2 + e3
    # and e4..e7.  In the coordinates y with x == V @ y, V = L @ U a product
    # of unit triangular matrices with entries up to 10^9, the rows are the
    # rows of V (entries near 10^18), the equalities their differences, and
    # V maps each ray of the new cone onto a ray of the old one
    rng = random.Random(97)
    n = 8
    L = [[rng.randint(-10 ** 9, 10 ** 9) if j < i else int(i == j) for j in range(n)]
         for i in range(n)]
    U = [[rng.randint(-10 ** 9, 10 ** 9) if j > i else int(i == j) for j in range(n)]
         for i in range(n)]
    V = [tuple(sum(L[i][t] * U[t][j] for t in range(n)) for j in range(n))
         for i in range(n)]
    assert max(abs(x) for row in V for x in row) > 10 ** 17
    eqs = [tuple(a - b for a, b in zip(V[0], V[1])),
           tuple(a - b for a, b in zip(V[2], V[3]))]
    got, lin = pc.extreme_rays(V, n, eqs)
    assert lin == []
    images = sorted(tuple(lattice.dot(row, y) for row in V) for y in got)
    e = lattice.identity(n)
    assert images == sorted([tuple(a + b for a, b in zip(e[0], e[1])),
                             tuple(a + b for a, b in zip(e[2], e[3])), *e[4:]])
    _assert_masks(got, V)


def test_intersect_of_cones_in_one_plane():
    # both cones span the plane y == z; the ray (1, 1, 1) of a ∩ b is lost
    # if the adjacency prefilter counts the dimension of R^3, not of the plane
    a = pc.cone_from_generators([(2, 1, 1), (-2, 1, 1)], 3)
    b = pc.cone_from_generators([(-1, 0, 0), (1, 1, 1)], 3)
    assert pc.intersect(a, b).rays == ((-2, 1, 1), (1, 1, 1))
    assert pc.intersect(b, a).rays == ((-2, 1, 1), (1, 1, 1))


def _assert_matches_rebuilt(t, points):
    # t must behave exactly like the cone rebuilt from its rays
    g = pc.cone_from_generators(t.rays, t.ambient_rank)
    assert t == g and t.dim == rank_of(t.rays) == g.dim
    assert len(t.facet_normals) == len(g.facet_normals)
    _assert_span_equations(t)  # a redundant generating set
    # the ray sum is relatively interior; differences of rays lie in the
    # span, mostly outside the cone
    in_span = [tuple(map(sum, zip(*t.rays)))] if t.rays else []
    in_span += [tuple(a - b for a, b in zip(r, s))
                for r in t.rays for s in t.rays if r != s]
    for p in points + in_span:
        assert pc.contains(t, p) == pc.contains(g, p)
    assert [(h.dim, h.rays) for h in pc.faces(t)] \
        == [(h.dim, h.rays) for h in pc.faces(g)]


def _random_cone_pair(rng, dim):
    kind = rng.randrange(5)
    if kind == 0:  # two full-dimensional cones, the second reflected
        a = _random_pointed_gens(rng, dim, rng.randint(2, 6))
        count = rng.randint(2, 6)
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        b = [tuple(e * x for e, x in zip(signs, v))
             for v in _random_pointed_gens(rng, dim, count)]
    elif kind == 1:  # a cone in a random sub-span, and one in the same
        # sub-span or a full-dimensional one; all have positive last entries
        s = rng.randint(1, dim - 1)
        while rank_of(B := _random_pointed_gens(rng, dim, s)) < s:
            pass

        def in_span(count):
            coeffs = [tuple(rng.randint(0, 3) for _ in range(s - 1)) + (rng.randint(1, 3),)
                      for _ in range(count)]
            return [lattice.vec_mat(c, B) for c in coeffs]
        a = in_span(rng.randint(1, 5))
        b = in_span(rng.randint(1, 5)) if rng.random() < 0.5 \
            else _random_pointed_gens(rng, dim, rng.randint(2, 6))
    elif kind == 2:  # cones sharing rays
        a = list(pc.cone_from_generators(
            _random_pointed_gens(rng, dim, rng.randint(2, 6)), dim).rays)
        b = rng.sample(a, rng.randint(1, len(a))) \
            + _random_pointed_gens(rng, dim, rng.randint(0, 3))
    elif kind == 3:  # two faces of one cone
        fs = pc.faces(pc.cone_from_generators(
            _random_pointed_gens(rng, dim, rng.randint(2, 7)), dim))
        return rng.choice(fs), rng.choice(fs)
    else:  # a zero cone
        a, b = [], _random_pointed_gens(rng, dim, rng.randint(1, 5))
    pair = [pc.cone_from_generators(a, dim), pc.cone_from_generators(b, dim)]
    rng.shuffle(pair)
    return pair


def test_derived_faces_match_rebuilt_cones():
    # faces keep their parent's normals, and intersections read theirs off
    # the double description, instead of being rebuilt; they must behave
    # exactly like the cone rebuilt from their rays
    rng = random.Random(31)
    for _ in range(40):
        dim = rng.randint(2, 5)
        c = pc.cone_from_generators(
            _random_pointed_gens(rng, dim, rng.randint(2, 7)), dim)
        points = list(c.rays) + [tuple(-x for x in r) for r in c.rays]
        points += [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(8)]
        for f in pc.faces(c):
            _assert_matches_rebuilt(f, points)

    rng = random.Random(37)
    for _ in range(150):
        dim = rng.randint(2, 5)
        a, b = _random_cone_pair(rng, dim)
        t = pc.intersect(a, b)
        points = list(a.rays + b.rays + t.rays) + [tuple(-x for x in r) for r in t.rays]
        points += [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(8)]
        _assert_matches_rebuilt(t, points)
        for p in points:  # and t is a ∩ b
            in_both = pc.contains(a, p) != pc.OUTSIDE and pc.contains(b, p) != pc.OUTSIDE
            assert (pc.contains(t, p) != pc.OUTSIDE) == in_both


def test_work_counts_of_intersect_and_contains(monkeypatch):
    # machine-independent: intersect and cone_from_generators run one double
    # description in ambient coordinates, with no SNF, and intersect no
    # second cone_from_generators and no row pair per equation; contains
    # tests the span with no rank, and cone_from_generators reads lines and
    # extreme rays off the masks
    a = pc.cone_from_generators([(1, 0, 0, 0), (0, 1, 0, 0)], 4)
    b = pc.cone_from_generators([(1, 1, 0, 0), (0, 0, 1, 0)], 4)
    calls = {"smith_normal_form": 0, "_bareiss": 0, "cone_from_generators": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((lattice, "smith_normal_form"), (lattice, "_bareiss"),
                         (pc, "cone_from_generators")):
        counted(module, name)
    conversions = []
    extreme_rays = pc.extreme_rays

    def recorded(rows, k, eqs=()):
        conversions.append((len(rows), tuple(eqs)))
        return extreme_rays(rows, k, eqs)
    monkeypatch.setattr(pc, "extreme_rays", recorded)
    pc.intersect.cache_clear()
    pc.faces.cache_clear()
    assert pc.intersect(a, b).rays == ((1, 1, 0, 0),)
    assert calls["smith_normal_form"] == calls["cone_from_generators"] == 0
    # one conversion: the normals as rows, the equations as equalities
    assert conversions == [(len(a.facet_normals) + len(b.facet_normals),
                            a.equations + b.equations)]
    calls["_bareiss"] = 0
    for p in [(1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 0), (0, 0, 0, 0)]:
        pc.contains(a, p)
        pc.contains(pc.zero_cone(4), p)
    assert calls["_bareiss"] == 0
    c = pc.cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    assert len(c.rays) == 4 and c.dim == 3
    assert calls["smith_normal_form"] == 0 and calls["_bareiss"] == 0
    c = pc.cone_from_generators([(1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 2, 0)], 4)
    assert len(c.rays) == 2 and c.dim == 2
    assert calls["smith_normal_form"] == 0 and calls["_bareiss"] == 0


def test_intersect_of_nested_cones_runs_no_double_description(monkeypatch):
    # a cone spanned by some of another's rays lies in it: the smaller one
    # is the intersection, in either order, with no conversion
    c = pc.cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    # d lies in c, but (1, 1, 1) is no ray of c: one conversion
    d = pc.cone_from_generators([(1, 0, 0), (1, 1, 1)], 3)
    conversions = []
    extreme_rays = pc.extreme_rays

    def recorded(rows, k, eqs=()):
        conversions.append(len(rows))
        return extreme_rays(rows, k, eqs)
    monkeypatch.setattr(pc, "extreme_rays", recorded)
    pc.intersect.cache_clear()
    for f in pc.faces(c):
        for g in pc.faces(f):
            assert pc.intersect(f, g) == g and pc.intersect(g, f) == g
    assert conversions == []
    assert pc.intersect(c, d) == d
    assert len(conversions) == 1


def test_faces_closed_under_intersection():
    c = pc.cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    fs = pc.faces(c)
    for f, g in combinations(fs, 2):
        assert pc.intersect(f, g) in fs


def test_face_transitivity():
    c = pc.cone_from_generators([(1, 0, 0), (1, 2, 0), (1, 1, 3)], 3)
    for f in pc.faces(c):
        for g in pc.faces(f):
            assert is_face_of(g, c)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(1, 3)),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_membership_property(gens):
    c = pc.cone_from_generators(gens, 3)
    for g in gens:
        assert pc.contains(c, g) != pc.OUTSIDE
    s = tuple(sum(g[i] for g in gens) for i in range(3))
    assert pc.contains(c, s) != pc.OUTSIDE


def test_cyclic_cone_faces():
    # rank-6 cyclic cone: rays (1, t, ..., t^5) on the moment curve, t = 0..9
    c = pc.cone_from_generators([[t ** i for i in range(6)] for t in range(10)], 6)
    assert len(c.rays) == 10
    assert len(pc.faces(c)) == 304


def _cyclic_face_count(r, n):
    """The faces of the cone over the cyclic (r-1)-polytope with n vertices,
    the zero cone and the cone itself included.  The polytope is simplicial
    and neighbourly, so with d = r - 1 its h-vector is h_i = C(n-d-1+i, i)
    for i <= d/2, mirrored above (Ziegler, Lectures on Polytopes, 8.3 and
    8.4); its faces of every dimension below d, the empty one included,
    number sum_i h_i 2^(d-i), and the polytope itself is one more."""
    d = r - 1
    h = [comb(n - d - 1 + i, i) for i in range(d // 2 + 1)]
    h += h[:(d + 1) // 2][::-1]
    return sum(hi << (d - i) for i, hi in enumerate(h)) + 1


@pytest.mark.parametrize("r, n", [(3, 7), (4, 8), (5, 9), (6, 10), (5, 14), (8, 12)])
def test_cyclic_cone_face_count_is_the_h_vector_closed_form(r, n):
    c = pc.cone_from_generators([[t ** i for i in range(r)] for t in range(n)], r)
    assert len(c.rays) == n
    assert len(pc.faces(c)) == _cyclic_face_count(r, n)


def test_extreme_rays_of_halfspaces():
    # the positive quadrant cut by x >= y: rays (1, 0) and (1, 1)
    assert sorted(pc.extreme_rays([(1, 0), (0, 1), (1, -1)], 2)[0]) == [(1, 0), (1, 1)]
    # facet normals of a cone are the extreme rays of its dual
    c = pc.cone_from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    assert tuple(sorted(pc.extreme_rays(c.rays, 3)[0])) == c.facet_normals
    # a half-plane: one ray and the line x == 0 as its lineality
    assert pc.extreme_rays([(1, 0)], 2) == ({(1, 0): 0}, [(0, 1)])
