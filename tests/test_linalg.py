import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DenseRatMatrix, dense_det, greedy_inverse, markowitz_det
from polyred.linalg import RatMatrix, sparse_det, sparse_inverse


def random_rows(rng, n, m=None):
    m = n if m is None else m
    return [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(m)]
            for _ in range(n)]


def random_matrix(rng, n, m=None):
    return RatMatrix.dense(random_rows(rng, n, m))


def naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * naive_det(minor)
    return total


def test_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(1, 5)
        rows = random_rows(rng, n)
        assert dense_det(rows) == naive_det(rows)
        assert sparse_det(RatMatrix.dense(rows).rows, n) == naive_det(rows)


def test_det_of_identity_and_singular():
    assert sparse_det(RatMatrix.identity(4).rows, 4) == 1
    assert sparse_det(RatMatrix.dense([[1, 2], [2, 4]]).rows, 2) == 0
    assert dense_det([[1, 2], [2, 4]]) == 0


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randrange(1, 5)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        assert sparse_det((a * b).rows, n) == sparse_det(a.rows, n) * sparse_det(b.rows, n)


def test_inverse_roundtrip():
    rng = random.Random(8)
    done = 0
    while done < 15:
        n = rng.randrange(1, 5)
        a = random_matrix(rng, n)
        if sparse_det(a.rows, n) == 0:
            continue
        assert a * a.inverse() == RatMatrix.identity(n)
        assert a.inverse() * a == RatMatrix.identity(n)
        done += 1


def test_inverse_of_singular_raises():
    with pytest.raises(ZeroDivisionError):
        RatMatrix.dense([[1, 1], [1, 1]]).inverse()


def test_rank_and_nullspace():
    m = RatMatrix.dense([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    ns = m.nullspace_basis()
    assert ns.nrows == 1
    assert m * ns.transpose() == RatMatrix.zero(3, 1)


def test_row_basis_spans_same_space():
    m = RatMatrix.dense([[1, 1, 0], [2, 2, 0], [0, 0, 1]])
    b = m.row_basis()
    assert b.nrows == 2
    # every original row is solvable in terms of the basis rows
    for i in range(m.nrows):
        sol = b.transpose().solve_right(RatMatrix([m.rows[i]], 3).transpose())
        assert sol is not None


def test_right_inverse():
    b = RatMatrix.dense([[1, 1]])
    c = b.right_inverse()
    assert (b * c) == RatMatrix.identity(1)
    # dependent rows have none
    assert RatMatrix.dense([[1, 1], [1, 1]]).right_inverse() is None


def test_solve_right_consistency():
    a = RatMatrix.dense([[1, 2], [3, 4]])
    rhs = RatMatrix.dense([[5], [6]])
    x = a.solve_right(rhs)
    assert a * x == rhs
    inconsistent = RatMatrix.dense([[1, 1], [1, 1]]).solve_right(RatMatrix.dense([[0], [1]]))
    assert inconsistent is None


def test_sparse_det_matches_dense():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(1, 6)
        rows = random_rows(rng, n)
        # thin it out
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    rows[i][j] = Fraction(0)
        assert sparse_det(RatMatrix.dense(rows).rows, n) == dense_det(rows)


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
        rows = random_rows(rng, n)
        if dense_det(rows) == 0:
            continue
        inv_rows = sparse_inverse(RatMatrix.dense(rows).rows, n)
        assert RatMatrix(inv_rows, n) == DenseRatMatrix(rows).inverse().to_sparse()
        done += 1


def test_sparse_product():
    a = RatMatrix([{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(3)}], 2)
    b = RatMatrix([{0: Fraction(5)}, {0: Fraction(1), 1: Fraction(1)}], 2)
    assert a * b == RatMatrix([{0: 7, 1: 2}, {0: 3, 1: 3}], 2)
    assert (a * b).rows == [{0: 7, 1: 2}, {0: 3, 1: 3}]
    # entries that cancel are not stored
    c = RatMatrix([{0: 1, 1: -1}], 2)
    assert (c * RatMatrix.dense([[1], [1]])).rows == [{}]


def test_block_identity_inverse_stays_sparse():
    # diag(J, I_k) with a dense little J block: the shape the reduction
    # pipeline feeds the solver at its base point
    n = 50
    rows = [{0: 2, 1: 1}, {0: 1, 1: 1}] + [{i: 1} for i in range(2, n)]
    inv = sparse_inverse(rows, n)
    assert inv[0] == {0: 1, 1: -1}
    assert inv[1] == {0: -1, 1: 2}
    for i in range(2, n):
        assert inv[i] == {i: 1}


# -- shapes ---------------------------------------------------------------------


def test_a_matrix_without_rows_keeps_its_column_count():
    assert RatMatrix.zero(0, 5).ncols == 5
    assert RatMatrix.zero(0, 5).nrows == 0


def test_equality_compares_shapes():
    assert RatMatrix.zero(0, 3) != RatMatrix.zero(0, 5)
    assert RatMatrix.zero(2, 3) != RatMatrix.zero(2, 4)
    assert RatMatrix.zero(2, 3) == RatMatrix.dense([[0, 0, 0], [0, 0, 0]])


def test_kernel_of_a_full_rank_square_matrix_is_zero_by_its_width():
    ns = RatMatrix.dense([[1, 2], [3, 4]]).nullspace_basis()
    assert (ns.nrows, ns.ncols) == (0, 2)
    assert ns == RatMatrix.zero(0, 2)


# -- the one elimination against the routes it replaced --------------------------

ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7)),
)
INT_ENTRIES = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def dense_rows(draw, entries, square=False):
    """(rows, ncols): rectangular or square, with zero rows, zero columns
    and rank-deficient ones among them, and no rows at all."""
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in draw(st.lists(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if nrows:
            rows[i] = [0] * ncols
    for j in draw(st.lists(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        for row in rows:
            if ncols:
                row[j] = 0
    if nrows >= 2 and draw(st.booleans()):  # a repeated multiple: singular
        k = draw(st.integers(-3, 3))
        rows[-1] = [k * a for a in rows[0]]
    return rows, ncols


def stored(m: RatMatrix) -> bool:
    """Every entry is a nonzero int, or a Fraction that is not integral."""
    return all(type(a) is int and a or type(a) is Fraction and a.denominator != 1
               for row in m.rows for a in row.values())


def check_against_oracles(rows, ncols):
    a = RatMatrix.dense(rows, ncols)
    d = DenseRatMatrix(rows, ncols)
    out = [a]

    reduced, pivots = a.rref()
    want_rows, want_pivots = d.rref()
    assert pivots == want_pivots
    assert reduced == DenseRatMatrix(want_rows, ncols).to_sparse()
    assert a.rank() == d.rank()
    assert a.row_basis() == d.row_basis().to_sparse()
    out += [reduced, a.row_basis()]

    kernel = a.nullspace_basis()
    assert kernel == d.nullspace_basis().to_sparse()
    assert (kernel.nrows, kernel.ncols) == (ncols - d.rank(), ncols)
    out.append(kernel)

    rhs = [[row[0] if row else 0, 1] for row in rows]
    x = a.solve_right(RatMatrix.dense(rhs, 2))
    want = d.solve_right(DenseRatMatrix(rhs, 2))
    assert (x is None) == (want is None)
    if x is not None:
        assert x == want.to_sparse()
        out.append(x)

    c = a.right_inverse()
    want = d.right_inverse()
    assert (c is None) == (want is None)
    if c is not None:
        assert c == want.to_sparse()
        out.append(c)

    if len(rows) == ncols:
        n = ncols
        det = sparse_det(a.rows, n)
        assert det == markowitz_det(a.rows, n) == dense_det(rows)
        if det:
            inv = a.inverse()
            assert inv == d.inverse().to_sparse()
            assert sparse_inverse(a.rows, n) == inv.rows
            assert RatMatrix(greedy_inverse(a.rows, n), n) == inv
            out.append(inv)
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            with pytest.raises(ZeroDivisionError):
                sparse_inverse(a.rows, n)
    return out


@settings(max_examples=600, deadline=None)
@given(square=st.booleans(), ints=st.booleans(), data=st.data())
def test_one_elimination_matches_the_dense_and_sparse_oracles(square, ints, data):
    rows, ncols = data.draw(dense_rows(INT_ENTRIES if ints else ENTRIES, square))
    # every result stores an entry as an int exactly when it is integral,
    # the rule qdiv keeps, so int inputs stay int wherever pivots divide
    for m in check_against_oracles(rows, ncols):
        assert stored(m)
    if ints and len(rows) == ncols:
        assert type(sparse_det(RatMatrix.dense(rows).rows, ncols)) is int
