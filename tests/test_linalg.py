import random
from fractions import Fraction

import pytest

import statesum as S
from statesum.errors import SingularMatrixError
from statesum.fields import GF, QQ
from statesum.linalg import Matrix


def mat(field, rows):
    return Matrix.from_rows(field, [[field.of_int(x) if isinstance(x, int) else x for x in row]
                                    for row in rows])


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    red, pivots, rank = m.rref()
    assert red == m and pivots == (0, 1) and rank == 2


def test_rref_zero():
    m = Matrix.zeros(QQ, 2, 2)
    red, pivots, rank = m.rref()
    assert red.is_zero() and pivots == () and rank == 0


def test_rref_rank_one():
    # hand row-reduction: [[2,4],[1,2]] -> [[1,2],[0,0]]
    m = mat(QQ, [[2, 4], [1, 2]])
    red, pivots, rank = m.rref()
    assert rank == 1 and pivots == (0,)
    assert red == mat(QQ, [[1, 2], [0, 0]])


def _dense_rref(m):
    """Reference Gauss-Jordan elimination on full row lists, with the pivot
    rule of ``Matrix.rref``: columns left to right, first row top to bottom."""
    rows = [row[:] for row in m.data]
    p = m.field.p
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if p is None:
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
        else:
            inv = pow(rows[r][c], -1, p)
            rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                if p is None:
                    rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
                else:
                    rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(m.field, m.rows, m.cols, rows), tuple(pivots), len(pivots)


def test_sparse_rref_matches_dense_elimination():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def matrices(draw):
        field = draw(st.sampled_from([QQ, GF(2), GF(10007)]))
        if field.p is None:
            value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        else:
            value = st.integers(0, field.p - 1)
        entry = st.one_of(st.just(field.zero()), value)
        cols = draw(st.integers(0, 9))
        data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=7))
        if data and draw(st.booleans()):  # a duplicated row
            data.insert(draw(st.integers(0, len(data))), data[draw(st.integers(0, len(data) - 1))][:])
        if draw(st.booleans()):  # a zero row
            data.insert(draw(st.integers(0, len(data))), [field.zero()] * cols)
        if draw(st.booleans()):  # a zero column
            at = draw(st.integers(0, cols))
            data = [row[:at] + [field.zero()] + row[at:] for row in data]
            cols += 1
        return Matrix(field, len(data), cols, data)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(matrices())
    def agrees(m):
        red, pivots, rank = m.rref()
        ref, ref_pivots, ref_rank = _dense_rref(m)
        assert (pivots, rank) == (ref_pivots, ref_rank)
        assert (red.rows, red.cols) == (ref.rows, ref.cols)
        assert red.data == ref.data
        assert [list(map(type, row)) for row in red.data] == \
            [list(map(type, row)) for row in ref.data]

    agrees()


def test_solve_identity_and_inconsistent():
    m = Matrix.identity(QQ, 3)
    b = [Fraction(5), Fraction(-1), Fraction(7)]
    assert m.solve(b) == b
    z = Matrix.zeros(QQ, 2, 2)
    assert z.solve([Fraction(1), Fraction(0)]) is None


def test_solve_back_substitution():
    m = mat(QQ, [[1, 1], [0, 1]])
    assert m.solve([Fraction(3), Fraction(1)]) == [Fraction(2), Fraction(1)]


def test_inverse_cases():
    assert Matrix.identity(QQ, 4).inverse() == Matrix.identity(QQ, 4)
    swap = mat(QQ, [[0, 1], [1, 0]])
    assert swap.inverse() == swap
    d = mat(QQ, [[2, 0], [0, 3]])
    inv = d.inverse()
    assert inv == Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(0)],
                                        [Fraction(0), Fraction(1, 3)]])
    assert d @ inv == Matrix.identity(QQ, 2)
    assert inv @ d == Matrix.identity(QQ, 2)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        mat(QQ, [[1, 2], [2, 4]]).inverse()


@pytest.mark.parametrize("call", [
    lambda wide: Matrix.from_rows(QQ, [[1, 2], [3]]),
    lambda wide: wide @ wide,
    lambda wide: wide.mul_vec([0, 0]),
    lambda wide: wide.solve([0]),
    lambda wide: wide.inverse(),
    lambda wide: wide.add(Matrix.zeros(QQ, 3, 2)),
], ids=["ragged rows", "matmul", "mul_vec", "solve", "inverse", "add"])
def test_shape_mismatches_are_refused(call):
    wide = Matrix.zeros(QQ, 2, 3)
    with pytest.raises(ValueError):
        call(wide)
    assert not wide.is_symmetric()


def test_sums_over_different_fields_are_refused():
    with pytest.raises(ValueError):
        Matrix.identity(GF(7), 2).add(Matrix.identity(QQ, 2))
    assert Matrix.identity(GF(7), 2).add(Matrix.identity(GF(7), 2)) == Matrix.identity(GF(7), 2).scale(2)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(11), GF(2), GF(10007)])
def test_random_invertible_roundtrip(field):
    rng = random.Random(7)
    n = 4
    for _ in range(8):
        while True:
            m = Matrix.from_rows(
                field, [[field.of_int(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
            )
            if m.rank() == n:
                break
        inv = m.inverse()
        assert m @ inv == Matrix.identity(field, n)
        assert inv @ m == Matrix.identity(field, n)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2), GF(10007)])
def test_kernel_basis_annihilates(field):
    rng = random.Random(3)
    m = Matrix.from_rows(
        field, [[field.of_int(rng.randrange(-3, 4)) for _ in range(6)] for _ in range(3)]
    )
    basis = m.kernel_basis()
    assert len(basis) == 6 - m.rank()
    for v in basis:
        assert all(x == 0 for x in m.mul_vec(v))


def test_solve_reproduces_solution_over_prime_field():
    f = GF(7)
    m = Matrix.from_rows(f, [[1, 2, 3], [2, 5, 6], [0, 2, 1]])
    x = [3, 1, 4]
    b = m.mul_vec(x)
    got = m.solve(b)
    assert m.mul_vec(got) == b


def test_kron_index_order():
    a = mat(QQ, [[1, 2], [3, 4]])
    b = mat(QQ, [[0, 1], [1, 0]])
    k = a.kron(b)
    # leftmost factor most significant: entry ((i,r),(j,c)) = a[i][j] b[r][c]
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for c in range(2):
                    assert k[(2 * i + r, 2 * j + c)] == a[(i, j)] * b[(r, c)]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_kron_of_sparse_matrices_is_entrywise(field):
    a = mat(field, [[0, 2, 0], [0, 0, 0]])
    b = mat(field, [[3, 0], [0, 0], [0, 5]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (6, 6)
    for i in range(2):
        for j in range(3):
            for r in range(3):
                for c in range(2):
                    entry = k[(3 * i + r, 2 * j + c)]
                    assert entry == field.mul(a[(i, j)], b[(r, c)])
                    assert type(entry) is type(field.zero())
    assert sum(x != 0 for row in k.data for x in row) == 2


def test_scalar_parse_format_roundtrip():
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    assert QQ.format(Fraction(4, 2)) == "2"
    f5 = GF(5)
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == 3  # inverse of 2 mod 5
    assert f5.format(13) == "3"


def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        S.Field(6)


def test_large_prime_field_builds():
    assert S.GF(2**61 - 1).p == 2**61 - 1


@pytest.mark.parametrize("n", [561, 2047, 2**61 + 1, 3215031751, 3825123056546413051])
def test_pseudoprimes_are_not_prime_fields(n):
    # a Carmichael number, a strong pseudoprime to base 2, 3 * 768614336404564651,
    # and strong pseudoprimes to the bases 2..7 (151 * 751 * 28351) and 2..23
    # (149491 * 747451 * 34233211), whose factors no trial division finds
    with pytest.raises(ValueError):
        S.Field(n)


def test_is_prime_matches_trial_division():
    from math import isqrt

    from statesum.fields import is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]


def test_rational_inverse_of_zero_is_refused():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero())


def test_modulus_beyond_certified_primality_bound_is_refused():
    from statesum.fields import MR_BOUND, is_prime
    assert not is_prime(MR_BOUND - 1)
    with pytest.raises(ValueError):
        is_prime(MR_BOUND)
