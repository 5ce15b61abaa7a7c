import random
from fractions import Fraction

import pytest

from oracles import dense_det
from polyred.linalg import (
    RatMatrix,
    sparse_det,
    sparse_inverse,
    sparse_matmul,
    sparse_trace,
)


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return RatMatrix(
        [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(m)] for _ in range(n)]
    )


def naive_det(mat):
    n = mat.nrows
    if n == 1:
        return mat[0, 0]
    total = Fraction(0)
    for j in range(n):
        if mat[0, j] == 0:
            continue
        minor = RatMatrix([[mat[i, k] for k in range(n) if k != j] for i in range(1, n)])
        total += (-1) ** j * mat[0, j] * naive_det(minor)
    return total


def test_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n)
        assert dense_det(m.rows) == naive_det(m)


def test_det_of_identity_and_singular():
    assert dense_det(RatMatrix.identity(4).rows) == 1
    assert dense_det([[1, 2], [2, 4]]) == 0


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randrange(1, 5)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        assert dense_det((a * b).rows) == dense_det(a.rows) * dense_det(b.rows)


def test_inverse_roundtrip():
    rng = random.Random(8)
    done = 0
    while done < 15:
        n = rng.randrange(1, 5)
        a = random_matrix(rng, n)
        if dense_det(a.rows) == 0:
            continue
        assert a * a.inverse() == RatMatrix.identity(n)
        assert a.inverse() * a == RatMatrix.identity(n)
        done += 1


def test_inverse_of_singular_raises():
    with pytest.raises(ZeroDivisionError):
        RatMatrix([[1, 1], [1, 1]]).inverse()


def test_rank_and_nullspace():
    m = RatMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    ns = m.nullspace_basis()
    assert ns.nrows == 1
    for row in ns.rows:
        assert (m * RatMatrix([[x] for x in row])).is_zero()


def test_row_basis_spans_same_space():
    m = RatMatrix([[1, 1, 0], [2, 2, 0], [0, 0, 1]])
    b = m.row_basis()
    assert b.nrows == 2
    # every original row is solvable in terms of the basis rows
    for row in m.rows:
        sol = b.transpose().solve_right(RatMatrix([[x] for x in row]))
        assert sol is not None


def test_right_inverse():
    b = RatMatrix([[1, 1]])
    c = b.right_inverse()
    assert (b * c) == RatMatrix.identity(1)
    # dependent rows have none
    assert RatMatrix([[1, 1], [1, 1]]).right_inverse() is None


def test_solve_right_consistency():
    a = RatMatrix([[1, 2], [3, 4]])
    rhs = RatMatrix([[5], [6]])
    x = a.solve_right(rhs)
    assert a * x == rhs
    inconsistent = RatMatrix([[1, 1], [1, 1]]).solve_right(RatMatrix([[0], [1]]))
    assert inconsistent is None


def to_sparse(mat):
    return [{j: v for j, v in enumerate(row) if v != 0} for row in mat.rows]


def test_sparse_det_matches_dense():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(1, 6)
        m = random_matrix(rng, n)
        # thin it out
        rows = m.copy_rows()
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    rows[i][j] = Fraction(0)
        md = RatMatrix(rows)
        assert sparse_det(to_sparse(md), n) == dense_det(rows)


def test_sparse_det_permutation_signs():
    # pure permutation matrices exercise the sign bookkeeping
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randrange(2, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [{perm[i]: Fraction(1)} for i in range(n)]
        dense = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        assert sparse_det(rows, n) == dense_det(dense)


def test_sparse_inverse_matches_dense():
    rng = random.Random(11)
    done = 0
    while done < 15:
        n = rng.randrange(1, 6)
        m = random_matrix(rng, n)
        if dense_det(m.rows) == 0:
            continue
        inv_rows = sparse_inverse(to_sparse(m), n)
        dense_inv = m.inverse()
        got = RatMatrix([[inv_rows[i].get(j, Fraction(0)) for j in range(n)] for i in range(n)])
        assert got == dense_inv
        done += 1


def test_sparse_matmul_and_trace():
    a = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(3)}]
    b = [{0: Fraction(5)}, {0: Fraction(1), 1: Fraction(1)}]
    ab = sparse_matmul(a, b)
    assert ab == [{0: Fraction(7), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(3)}]
    assert sparse_trace(ab) == 10


def test_block_identity_inverse_stays_sparse():
    # diag(J, I_k) with a dense little J block: the shape the reduction
    # pipeline feeds the solver at its base point
    j = RatMatrix([[2, 1], [1, 1]])
    n = 50
    rows = to_sparse(j)
    rows = [dict(r) for r in rows] + [{i: Fraction(1)} for i in range(2, n)]
    inv = sparse_inverse(rows, n)
    assert inv[0] == {0: Fraction(1), 1: Fraction(-1)}
    assert inv[1] == {0: Fraction(-1), 1: Fraction(2)}
    for i in range(2, n):
        assert inv[i] == {i: Fraction(1)}
