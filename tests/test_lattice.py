import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horofan import lattice as lat
from horofan.cones import extreme_rays
from horofan.errors import DimensionMismatch

from oracles import minors_gcd_invariant_factors, snf_diagonal


def test_rank_basics():
    assert lat.rank_of([(1, 0), (0, 1)]) == 2
    assert lat.rank_of([(1, 0), (1, 0), (0, 1)]) == 2
    assert lat.rank_of([(2, 4), (3, 6)]) == 1
    assert lat.rank_of([]) == 0


def test_rank_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lat.rank_of([(1, 0), (1, 0, 0)])


def _independent(vs, n):
    return len(lat.span_coordinates(vs, n)[0]) == len(vs)


def test_independence():
    assert _independent([(1, 0), (1, 2)], 2)
    assert not _independent([(1, 0), (1, 0)], 2)
    assert _independent([], 2)


def test_snf_examples():
    _, D, _ = lat.smith_normal_form([[1, 0], [1, 2]])
    assert D == ((1, 0), (0, 2))
    _, D, _ = lat.smith_normal_form(lat.identity(4))
    assert D == lat.identity(4)
    _, D, _ = lat.smith_normal_form([[0]])
    assert D == ((0,),)


def test_snf_deterministic():
    A = ((6, 10), (15, 4))
    assert lat.smith_normal_form(A) == lat.smith_normal_form(A)


def test_one_smith_normal_form(monkeypatch):
    # cokernels and saturations run one SNF each, through the public name,
    # and an empty generating set runs none
    calls = []
    snf = lat.smith_normal_form

    def counted(A):
        calls.append(A)
        return snf(A)
    monkeypatch.setattr(lat, "smith_normal_form", counted)
    assert lat.cokernel_structure([(2, 0), (0, 3)]) == lat.FGAbelianGroup(0, (6,))
    assert len(calls) == 1
    assert lat.span_coordinates([(2, 4, 0)], 3) == (((1, 2, 0),), ((2,),))
    assert len(calls) == 2
    assert lat.span_coordinates([], 3) == ((), ())
    assert len(calls) == 2
    assert not hasattr(lat, "_snf") and not hasattr(lat, "_SnfState")


def test_extends_to_Z_basis():
    assert lat.extends_to_Z_basis([(1, 0), (0, 1)], 2)
    assert not lat.extends_to_Z_basis([(1, 0), (1, 2)], 2)
    assert lat.extends_to_Z_basis([(1,)], 1)
    assert not lat.extends_to_Z_basis([(2,)], 1)
    assert lat.extends_to_Z_basis([], 3)
    # repeats never extend
    assert not lat.extends_to_Z_basis([(1, 0), (1, 0)], 2)


def test_saturate_examples():
    assert lat.span_coordinates([(2, 0)], 2)[0] == ((1, 0),)
    sat = lat.span_coordinates([(1, 1), (1, -1)], 2)[0]
    assert lat.rank_of(sat) == 2
    assert lat.extends_to_Z_basis(sat, 2)
    assert lat.span_coordinates([], 2)[0] == ()


def _in_z_span(B, v):
    # adding v leaves the row lattice, hence its invariant factors, unchanged
    # iff v already lies in it; otherwise the rank or the index drops
    return snf_diagonal(list(B) + [v]) == snf_diagonal(B)


def test_saturate_membership_and_idempotence():
    vs = [(2, 4, 0), (0, 6, 2)]
    B = lat.span_coordinates(vs, 3)[0]
    for v in vs:
        assert _in_z_span(B, v)
    # half of vs[0] is in the saturation but not in the span of vs
    assert _in_z_span(B, (1, 2, 0)) and not _in_z_span(vs, (1, 2, 0))
    assert not _in_z_span(B, (0, 0, 1))
    assert snf_diagonal(B) == (1, 1)
    # idempotence up to span: both saturations span the same lattice
    B2 = lat.span_coordinates(B, 3)[0]
    assert snf_diagonal(B2) == (1, 1)
    for v in B:
        assert _in_z_span(B2, v)
    for v in B2:
        assert _in_z_span(B, v)


def test_cokernel_examples():
    # columns (1,0),(0,1),(-1,-1): as a matrix that is mu^T with 3 rows
    g = lat.cokernel_structure([(1, 0), (0, 1), (-1, -1)])
    assert g == lat.FGAbelianGroup(1, ())
    assert lat.cokernel_structure([[2]]) == lat.FGAbelianGroup(0, (2,))
    assert lat.cokernel_structure([(), (), ()]) == lat.FGAbelianGroup(3, ())


def test_fg_abelian_group_str():
    assert str(lat.FGAbelianGroup(0, ())) == "0"
    assert str(lat.FGAbelianGroup(1, ())) == "Z"
    assert str(lat.FGAbelianGroup(2, (2, 6))) == "Z^2 x Z/2 x Z/6"


def test_fg_abelian_group_validation():
    with pytest.raises(ValueError):
        lat.FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        lat.FGAbelianGroup(0, (4, 6))  # 4 does not divide 6


def test_kernel_basis():
    # a kernel is the lineality space the double description returns
    K = extreme_rays([(1, 1, 1)], 3)[1]
    assert len(K) == 2
    for v in K:
        assert sum(v) == 0
    assert extreme_rays((), 3) == ({}, list(lat.identity(3)))


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_snf_postconditions(A):
    A = lat.freeze_matrix(A)
    U, D, V = lat.smith_normal_form(A)
    assert lat.mat_mul(lat.mat_mul(U, A), V) == D
    assert abs(lat.determinant(U)) == 1
    assert abs(lat.determinant(V)) == 1
    diag = [D[i][i] for i in range(min(len(A), len(A[0])))]
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        elif b:
            assert b % a == 0


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_saturation_coordinates(A):
    A = lat.freeze_matrix(A)
    n = len(A[0])
    B, coords = lat.span_coordinates(A, n)
    assert len(B) == lat.rank_of(A)
    assert lat.extends_to_Z_basis(B, n)
    # each generator is rebuilt from its coordinates; when A is zero the
    # basis is empty, and the generators are zero vectors of length n
    assert len(coords) == len(A)
    for a, c in zip(A, coords):
        assert (lat.vec_mat(c, B) if B else (0,) * n) == a


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_invariant_factors_match_minors_oracle(A):
    A = lat.freeze_matrix(A)
    assert list(snf_diagonal(A)) == minors_gcd_invariant_factors(A)


def test_invariant_factors_match_sympy():
    # an independent SNF at sizes the gcd-of-minors oracle cannot reach
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(41)
    for _ in range(12):
        m, n = rng.randint(6, 8), rng.randint(6, 8)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.4:  # rank-deficient
            A[-1] = [a - 2 * b for a, b in zip(A[0], A[1])]
        want = invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)
        assert snf_diagonal(A) == tuple(abs(int(d)) for d in want if d)


@st.composite
def _row_sets(draw):
    n = draw(st.integers(1, 5))
    vs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                       min_size=1, max_size=n))
    # make the last row dependent, repeated or non-primitive
    extra = draw(st.sampled_from(["none", "sum", "repeat", "double"]))
    if extra == "sum" and len(vs) > 2:
        vs[-1] = tuple(a + b for a, b in zip(vs[0], vs[1]))
    elif extra == "repeat" and len(vs) > 1:
        vs[-1] = vs[0]
    elif extra == "double":
        vs[-1] = tuple(2 * x for x in vs[-1])
    return vs, n


@given(_row_sets())
@settings(max_examples=300, deadline=None)
def test_extends_to_Z_basis_matches_minors_oracle(system):
    vs, n = system
    assert lat.extends_to_Z_basis(vs, n) \
        == (minors_gcd_invariant_factors(vs) == [1] * len(vs))


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_extends_implies_independent(vs):
    if lat.extends_to_Z_basis(vs, 3):
        assert _independent(vs, 3)


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_cokernel_free_rank(vs):
    A = lat.freeze_matrix(vs)
    g = lat.cokernel_structure(A)
    # free rank of Z^rows / colspan = rows - rank(A)
    assert g.free_rank == len(A) - lat.rank_of(lat.transpose(A))
