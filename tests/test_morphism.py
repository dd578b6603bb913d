"""The sparse ``Morphism`` against dense ``Matrix`` oracles, and the dense budget."""

import random
import time
from fractions import Fraction

import pytest

import statesum as S
from statesum.errors import DenseBudgetError, SignatureMismatchError
from statesum.linalg import DENSE_BUDGET, Matrix, check_dense
from statesum.morphism import Factor, Morphism, full_factor, signature_dim, split_factor

FIELDS = {"Q": S.QQ, "F7": S.GF(7)}


def _signature(rng):
    """Zero to two factors of dimension 1 to 3; the empty signature is the ground field."""
    return tuple(rng.choice((full_factor, split_factor))(rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2)))


def _random_morphism(rng, field, domain, codomain):
    """A random map, all zero in about one case in five."""
    rows = signature_dim(codomain)
    cols = signature_dim(domain)
    density = 0.0 if rng.random() < 0.2 else rng.random()
    data = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                data[i][j] = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if field.p is None
                              else rng.randint(0, 6))
    zero = field.zero()
    m = Matrix(field, rows, cols, [[x if x != 0 else zero for x in row] for row in data])
    return Morphism(field, domain, codomain, m)


@pytest.mark.parametrize("name", FIELDS)
def test_sparse_operations_match_dense_oracles(name):
    field = FIELDS[name]
    rng = random.Random(1729)
    for _ in range(200):
        a, b, c, d = (_signature(rng) for _ in range(4))
        f = _random_morphism(rng, field, b, c)
        g = _random_morphism(rng, field, a, b)
        h = _random_morphism(rng, field, c, d)
        assert Morphism(field, b, c, f.matrix).equal(f)
        fg = f.compose(g)
        assert (fg.domain, fg.codomain) == (a, c)
        assert fg.matrix == f.matrix @ g.matrix
        assert all(row and all(v != 0 for v in row.values()) for row in fg.nonzeros.values())
        fh = f.tensor(h)
        assert (fh.domain, fh.codomain) == (b + c, c + d)
        assert fh.matrix == f.matrix.kron(h.matrix)
        assert all(row for row in fh.nonzeros.values())
        other = _random_morphism(rng, field, b, c)
        assert f.equal(other) == (f.matrix == other.matrix)
        assert f.equal(Morphism(field, b, c, f.matrix.copy()))
    for _ in range(20):
        s = _random_morphism(rng, field, (), ())
        assert s.scalar_value() == s.matrix[0, 0]
        assert s.equal(Morphism.scalar(field, s.scalar_value()))
    sig = (full_factor(2), split_factor(3))
    f = _random_morphism(rng, field, sig, sig)
    assert Morphism.identity(field, sig).compose(f).equal(f)
    assert Morphism.identity(field, sig).matrix == Matrix.identity(field, 6)


def _random_matrix(rng, field, rows, cols):
    """Entries of the field's own type, about half of them zero; all zero in
    about one case in five."""
    density = 0.0 if rng.random() < 0.2 else 0.5
    return Matrix(field, rows, cols, [
        [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if field.p is None
          else rng.randrange(field.p)) if rng.random() < density else field.zero()
         for _ in range(cols)]
        for _ in range(rows)])


def _brute_product(a, b):
    """The rows of ``a @ b``, by the triple loop."""
    f = a.field
    out = []
    for i in range(a.rows):
        out.append([])
        for j in range(b.cols):
            acc = f.zero()
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a[i, k], b[k, j]))
            out[-1].append(acc)
    return out


def _brute_kron(a, b):
    """The rows of ``a.kron(b)``, the left factor the most significant."""
    return [[a.field.mul(x, y) for x in arow for y in brow] for arow in a.data for brow in b.data]


def _same(got, want, field):
    """Equal entries, each of the field's own type."""
    kind = type(field.zero())
    assert got == want
    assert all(type(x) is kind for row in got for x in row)


@pytest.mark.parametrize("name", FIELDS)
def test_dense_products_match_the_triple_loop(name):
    # @, mul_vec, kron and Morphism.tensor are contractions through
    # tensors.contract_pair; the loops here are the definitions they replace
    field = FIELDS[name]
    rng = random.Random(2718)
    for _ in range(300):
        n, m, k, r, c = (rng.randint(0, 3) for _ in range(5))
        a, b = _random_matrix(rng, field, n, m), _random_matrix(rng, field, m, k)
        got = a @ b
        assert (got.rows, got.cols) == (n, k)
        _same(got.data, _brute_product(a, b), field)
        vec = _random_matrix(rng, field, m, 1)
        _same([a.mul_vec(vec.column(0))], [[row[0] for row in _brute_product(a, vec)]], field)
        d = _random_matrix(rng, field, r, c)
        got = a.kron(d)
        assert (got.rows, got.cols) == (n * r, m * c)
        _same(got.data, _brute_kron(a, d), field)
        f = Morphism(field, (full_factor(m),), (full_factor(n),), a)
        h = Morphism(field, (split_factor(c),), (split_factor(r),), d)
        fh = f.tensor(h)
        assert (fh.domain, fh.codomain) == (f.domain + h.domain, f.codomain + h.codomain)
        want = Matrix(field, n * r, m * c, _brute_kron(a, d)).nonzero_rows()
        assert fh.nonzeros == want
        _same([list(row.values()) for row in fh.nonzeros.values()],
              [list(row.values()) for row in want.values()], field)


def test_matmul_refuses_an_oversized_result_before_it_contracts(monkeypatch):
    def contract(t1, t2):
        raise AssertionError("contracted")

    monkeypatch.setattr(S.tensors, "contract_pair", contract)
    with pytest.raises(DenseBudgetError):
        Matrix.zeros(S.QQ, 4000, 1) @ Matrix.zeros(S.QQ, 1, 4000)
    with pytest.raises(AssertionError, match="contracted"):
        Matrix.zeros(S.QQ, 1, 1) @ Matrix.zeros(S.QQ, 1, 1)


def test_only_a_scalar_has_a_scalar_value():
    from statesum.tensors import Tensor
    with pytest.raises(ValueError):
        Morphism.identity(S.QQ, (full_factor(2),)).scalar_value()
    with pytest.raises(ValueError):
        Tensor.vector(S.QQ, "i", [1, 0]).scalar()


def test_factor_is_a_value():
    f = Factor("full", 3)
    assert f == full_factor(3) and hash(f) == hash(full_factor(3))
    assert Factor(kind="full", dim=3) == f
    assert len({f, full_factor(3), split_factor(3)}) == 2
    assert f != split_factor(3) and f != full_factor(2)
    assert f != ("full", 3)
    assert repr(f) == "full(3)"
    with pytest.raises(AttributeError):
        f.dim = 4


def test_compose_checks_signatures():
    f = Morphism.identity(S.QQ, (full_factor(2),))
    g = Morphism.identity(S.QQ, (split_factor(2),))
    with pytest.raises(SignatureMismatchError):
        f.compose(g)
    with pytest.raises(ValueError):
        Morphism(S.QQ, (full_factor(2),), (full_factor(3),), Matrix.identity(S.QQ, 2))


def test_raw_dim13_strip_44_is_a_sparse_idempotent():
    # P_44 over M2+M3 is a 28561 x 28561 map: 8.2e8 dense cells, over the budget
    F = S.matrix_direct_sum(S.QQ, [2, 3], [1, 2])[1]
    z = S.state_sum_raw(F, S.strip(4, 4))
    assert (z.rows, z.cols) == (28561, 28561)
    assert z.nnz == 6817
    assert z.compose(z).equal(z)
    with pytest.raises(DenseBudgetError):
        z.matrix


def test_raw_dim13_strip_55_is_a_sparse_idempotent():
    F = S.matrix_direct_sum(S.QQ, [2, 3], [1, 2])[1]
    z = S.state_sum_raw(F, S.strip(5, 5))
    assert z.nnz == 60073
    assert z.compose(z).equal(z)


def test_maps_past_1114111_rows_compose():
    # P_61 over M2+M3 is 13^6 = 4,826,809 x 13, past the largest code point,
    # which the memo key of a contraction order once packed each dimension into
    F = S.matrix_direct_sum(S.QQ, [2, 3], [1, 2])[1]
    z = S.state_sum_raw(F, S.strip(6, 1))
    assert (z.rows, z.cols, z.nnz) == (4826809, 13, 2315)
    assert z.compose(Morphism.identity(F.field, z.domain)).equal(z)
    # P_16 o P_61 = mu^(6) Delta^(6) a^-5 = id_A
    assert S.state_sum_raw(F, S.strip(1, 6)).compose(z).equal(Morphism.identity(F.field, z.domain))


def test_products_over_different_fields_are_refused():
    # each returned a map over one field holding values of the other
    (_, Fq), (_, Fp) = (S.group_algebra(f, S.GroupTable.cyclic(3)) for f in FIELDS.values())
    zq, zp = S.state_sum(Fq, S.strip(1, 1)), S.state_sum(Fp, S.strip(1, 1))
    for product in (lambda: zp.tensor(zq), lambda: zq.compose(zp), lambda: zp.compose(zq),
                    lambda: Fq.pairing @ Fp.pairing):
        with pytest.raises(ValueError, match="over Field"):
            product()
    assert zq.tensor(zq).field == S.QQ and zp.compose(zp).equal(zp)


def test_dense_budget_is_checked_before_allocating():
    side = int(DENSE_BUDGET ** 0.5) + 1
    t0 = time.perf_counter()
    with pytest.raises(DenseBudgetError):
        Matrix.zeros(S.QQ, side, side)
    with pytest.raises(DenseBudgetError):
        Matrix.identity(S.QQ, side)
    with pytest.raises(DenseBudgetError):
        Matrix.zeros(S.QQ, 4000, 1).kron(Matrix.zeros(S.QQ, 4000, 1))
    assert time.perf_counter() - t0 < 1.0
    check_dense(DENSE_BUDGET, 1)  # the budget itself is allowed
