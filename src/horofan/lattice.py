"""Exact linear algebra over the integers.

Vectors are tuples of Python ints and matrices are tuples of row tuples, so
everything here is exact at arbitrary precision.  The two workhorses are
Bareiss elimination (ranks, determinants) and one Smith normal form, which
always returns both unimodular transforms and on which saturation and
cokernels are built; basis extension eliminates one row at a time instead.
Intended for desk-scale inputs (ranks up to about a dozen); there is
deliberately no modular or sparse acceleration.
"""

from __future__ import annotations

from operator import mul

from .errors import DimensionMismatch
from .record import Record

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def freeze_vector(v) -> Vec:
    return tuple(map(int, v))


def freeze_matrix(rows) -> Mat:
    return tuple(freeze_vector(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def dot(u: Vec, v: Vec) -> int:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of vectors of length {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def vec_mat(v: Vec, A: Mat) -> Vec:
    """v @ A with v a row vector."""
    if len(v) != len(A):
        raise DimensionMismatch(f"row vector of length {len(v)} times {len(A)}-row matrix")
    ncols = len(A[0]) if A else 0
    return tuple(sum(v[i] * A[i][j] for i in range(len(v))) for j in range(ncols))


def mat_mul(A: Mat, B: Mat) -> Mat:
    return tuple(vec_mat(row, B) for row in A)


def transpose(A: Mat, ncols: int | None = None) -> Mat:
    """Transpose; `ncols` disambiguates the shape of a 0-row matrix."""
    if not A:
        return tuple(() for _ in range(ncols or 0))
    return tuple(tuple(row[j] for row in A) for j in range(len(A[0])))


def _check_rectangular(rows: list[list[int]]) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch("matrix rows of unequal length")
    return ncols


def _bareiss(vs) -> tuple[int, int, list[list[int]]]:
    """Fraction-free Bareiss elimination: all intermediate entries stay integral.

    Returns the rank, the sign of the row permutation, and the eliminated
    rows.  Each pivot is a leading minor of the permuted rows, so for a
    square matrix of full rank the last pivot is sign * determinant.
    """
    M = [list(map(int, v)) for v in vs]
    ncols = _check_rectangular(M)
    row = 0
    piv = 1
    sign = 1
    for col in range(ncols):
        if row == len(M):
            break
        sel = next((i for i in range(row, len(M)) if M[i][col] != 0), None)
        if sel is None:
            continue
        if sel != row:
            M[row], M[sel] = M[sel], M[row]
            sign = -sign
        for i in range(row + 1, len(M)):
            for j in range(col + 1, ncols):
                M[i][j] = (M[i][j] * M[row][col] - M[i][col] * M[row][j]) // piv
            M[i][col] = 0
        piv = M[row][col]
        row += 1
    return row, sign, M


def rank_of(vs) -> int:
    """Rank over the rationals of a multiset of integer vectors (Bareiss)."""
    return _bareiss(vs)[0]


def determinant(A: Mat) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    rank, sign, M = _bareiss(A)
    if any(len(row) != len(M) for row in M):
        raise DimensionMismatch("determinant of a non-square matrix")
    if not M:
        return 1
    return sign * M[-1][-1] if rank == len(M) else 0


def smith_normal_form(A) -> tuple[Mat, Mat, Mat]:
    """Smith normal form: (U, D, V) with U @ A @ V == D.

    U and V are unimodular and D is diagonal with nonnegative entries in a
    divisibility chain d1 | d2 | ...  Deterministic: the pivot is the
    minimal-absolute-value nonzero entry of the remaining block, ties
    broken in row-major order.
    """
    A = freeze_matrix(A)
    nrows = len(A)
    ncols = _check_rectangular([list(r) for r in A])
    # One working matrix: each row of D carries its row of U to its right
    # and the rows of V sit below, so one row operation updates D and U and
    # one column operation updates D and V, keeping U @ A @ V == D.
    D = [list(row) + list(u) for row, u in zip(A, identity(nrows))]
    D += map(list, identity(ncols))

    def row_addmul(i: int, j: int, q: int) -> None:  # row_i += q * row_j
        D[i] = [a + q * b for a, b in zip(D[i], D[j])]

    def col_addmul(j: int, k: int, q: int) -> None:  # col_j += q * col_k
        for r in D:
            r[j] += q * r[k]

    def col_swap(i: int, j: int) -> None:
        for r in D:
            r[i], r[j] = r[j], r[i]

    def clear(t: int) -> None:
        # Zero out column t below and row t right of the pivot; whenever a
        # remainder survives it is strictly smaller than the pivot, so
        # swapping it up makes progress.
        while True:
            for i in range(t + 1, nrows):
                if D[i][t]:
                    row_addmul(i, t, -(D[i][t] // D[t][t]))
            rem = next((i for i in range(t + 1, nrows) if D[i][t]), None)
            if rem is not None:
                D[t], D[rem] = D[rem], D[t]
                continue
            for j in range(t + 1, ncols):
                if D[t][j]:
                    col_addmul(j, t, -(D[t][j] // D[t][t]))
            rem = next((j for j in range(t + 1, ncols) if D[t][j]), None)
            if rem is not None:
                col_swap(t, rem)
                continue
            return

    for t in range(min(nrows, ncols)):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                a = D[i][j]
                if a and (best is None or abs(a) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            D[t], D[best[0]] = D[best[0]], D[t]
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            clear(t)
            piv = D[t][t]
            viol = next(
                (i for i in range(t + 1, nrows)
                 if any(D[i][j] % piv for j in range(t + 1, ncols))),
                None,
            )
            if viol is None:
                break
            # Pull a non-divisible entry into row t; the next clear() shrinks
            # the pivot, so this terminates.
            row_addmul(t, viol, 1)
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]

    return (tuple(tuple(r[ncols:]) for r in D[:nrows]),
            tuple(tuple(r[:ncols]) for r in D[:nrows]),
            tuple(map(tuple, D[nrows:])))


def extends_to_Z_basis(vs, ambient_rank: int) -> bool:
    """True iff the multiset of vectors is part of a Z-basis of Z^ambient_rank.

    Column operations (Euclid) bring one row to a single entry, which must be
    +-1; that column is then dropped and the other rows must extend in turn.
    """
    rows = [list(map(int, v)) for v in vs]
    for v in rows:
        if len(v) != ambient_rank:
            raise DimensionMismatch(
                f"vector of length {len(v)} in a rank-{ambient_rank} lattice")
    while rows:
        top = rows.pop()
        while len(nz := [j for j, x in enumerate(top) if x]) > 1:
            p = min(nz, key=lambda j: abs(top[j]))
            qs = [(j, top[j] // top[p]) for j in nz if j != p]
            for r in rows + [top]:
                for j, q in qs:
                    r[j] -= q * r[p]
        if not nz or abs(top[nz[0]]) != 1:
            return False  # a dependent row ends as zero, a non-unit gcd stays
        for r in rows:
            del r[nz[0]]
    return True


def span_coordinates(vs, ncols: int) -> tuple[Mat, Mat]:
    """(B, coords): a Z-basis B of span_Q(vs) ∩ Z^ncols and each v's
    coordinates in B, from one Smith normal form U @ vs @ V == D.

    Since U @ vs == D @ V^-1, row i of B is row i of U @ vs divided by d_i,
    and V inverts a unimodular matrix whose first len(B) rows are B: the
    coordinates of v are (v @ V)[:len(B)], and the rest of v @ V vanishes
    exactly on the span.
    """
    vs = freeze_matrix(vs)
    if not vs:
        return (), ()
    if len(vs[0]) != ncols:
        raise DimensionMismatch("ambient rank disagrees with vector length")
    U, D, V = smith_normal_form(vs)
    rank = sum(1 for i in range(min(len(vs), ncols)) if D[i][i])
    basis = tuple(tuple(x // D[i][i] for x in vec_mat(U[i], vs))
                  for i in range(rank))
    coords = []
    for v in vs:
        full = vec_mat(v, V)
        if any(full[rank:]):
            raise AssertionError("vector not in the saturated span")
        coords.append(full[:rank])
    return basis, tuple(coords)


class FGAbelianGroup(Record):
    """Finitely generated abelian group: free rank plus invariant factors.

    The torsion factors satisfy d1 | d2 | ... and every factor is >= 2.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def cokernel_structure(A) -> FGAbelianGroup:
    """Structure of Z^rows / (column span of A)."""
    _, D, _ = smith_normal_form(A)
    diag = [row[i] for i, row in enumerate(D) if i < len(row) and row[i]]
    return FGAbelianGroup(free_rank=len(D) - len(diag),
                          torsion=tuple(d for d in diag if d > 1))
