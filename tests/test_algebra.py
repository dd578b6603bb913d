import functools
import random
from fractions import Fraction

import pytest

import statesum as S
from statesum.errors import BadUnitError, NotAssociativeError
from statesum.fields import GF, QQ
from statesum.morphism import full_factor
from statesum.tensors import Tensor


def m2_indices():
    # basis order of matrix_direct_sum: e00, e01, e10, e11
    return {"00": 0, "01": 1, "10": 2, "11": 3}


def test_make_algebra_matrix_units():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    assert alg.dim == 4
    i = m2_indices()
    e01, e10, e11 = (alg.basis_element(i[k]) for k in ("01", "10", "11"))
    assert (e01 * e10).coeffs == alg.basis_element(i["00"]).coeffs
    assert (e10 * e01).coeffs == e11.coeffs
    assert (e01 * e01).is_zero()


def test_make_algebra_group_table():
    alg, _ = S.group_algebra(QQ, S.GroupTable.cyclic(2))
    assert alg.dim == 2
    g = alg.basis_element(1)
    assert (g * g).coeffs == alg.unit


def test_make_algebra_rejects_non_associative():
    field = QQ
    # unit laws hold, but x*x = y while x*y = 0 and y*x = y:
    # (x x) x = y x = y whereas x (x x) = x y = 0
    one = field.one()
    entries = [
        (0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one), (0, 2, 2, one), (2, 0, 2, one),
        (1, 1, 2, one), (2, 1, 2, one),
    ]
    unit = [one, field.zero(), field.zero()]
    with pytest.raises(NotAssociativeError):
        S.Algebra(field, 3, entries, unit)


def _brute_product(field, n, table, a, b):
    """``a b`` by the triple loop over the structure constants ``table``."""
    out = []
    for k in range(n):
        s = field.zero()
        for i in range(n):
            for j in range(n):
                if a[i] != 0 and b[j] != 0 and (i, j, k) in table:
                    s = field.add(s, field.mul(field.mul(a[i], b[j]), table[i, j, k]))
        out.append(s)
    return out


def _dense_first_failure(field, n, entries, unit):
    """The first failing unit law or basis triple, found by dense brute force
    over ``field`` in the order the validator promises, or ``None``."""
    table = {}
    for i, j, k, c in entries:
        table[i, j, k] = field.add(table.get((i, j, k), field.zero()), c)

    def mul(a, b):
        return _brute_product(field, n, table, a, b)

    basis = [[field.of_int(int(t == i)) for t in range(n)] for i in range(n)]
    for i in range(n):
        if mul(unit, basis[i]) != basis[i]:
            return BadUnitError, (i, "left")
        if mul(basis[i], unit) != basis[i]:
            return BadUnitError, (i, "right")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul(mul(basis[i], basis[j]), basis[k]) != mul(basis[i], mul(basis[j], basis[k])):
                    return NotAssociativeError, (i, j, k)
    return None


def _halved_group_algebra(field, group):
    """``k[G]`` in the basis ``g / 2``: ``c = 1/2`` and the unit ``2 e``, so
    over Q the structure tensor is not integral."""
    alg = S.group_algebra(field, group)[0]
    half = field.div(field.one(), field.of_int(2))
    entries = [(i, j, k, field.mul(half, c)) for i, j, k, c in alg.mul_entries()]
    return S.Algebra(field, alg.dim, entries, [field.mul(field.of_int(2), u) for u in alg.unit])


_BASES = {
    "Z3": lambda field: S.group_algebra(field, S.GroupTable.cyclic(3))[0],
    "S3": lambda field: S.group_algebra(field, S.GroupTable.symmetric(3))[0],
    "M2": lambda field: S.matrix_direct_sum(field, [2], [1])[0],
    "S3/2": lambda field: _halved_group_algebra(field, S.GroupTable.symmetric(3)),
}


def _assert_first_witness(field, base, seed):
    alg = _BASES[base](field)
    n = alg.dim
    rng = random.Random(seed)
    entries = list(alg.mul_entries())
    # seeds 0, 1 perturb products of basis elements outside the unit's
    # support, so the unit laws hold; seeds 2, 3 may break them too
    free = [b for b in range(n) if alg.unit[b] == 0] if seed < 2 else range(n)
    for _ in range(1 + seed % 2):
        i, j, k = rng.choice(free), rng.choice(free), rng.randrange(n)
        c = field.div(field.of_int(rng.choice([-2, 1, 3])), field.of_int(rng.choice([1, 2])))
        entries.append((i, j, k, c))
    expected = _dense_first_failure(field, n, entries, list(alg.unit))
    assert expected is not None
    with pytest.raises(expected[0]) as err:
        S.Algebra(field, n, entries, alg.unit)
    assert err.value.witness == expected[1]


@pytest.mark.parametrize("base,seed", [(b, s) for b in ("Z3", "S3", "M2") for s in range(4)])
def test_validation_witness_is_the_first_dense_failure(base, seed):
    _assert_first_witness(QQ, base, seed)


@pytest.mark.parametrize("base,seed", [(b, s) for b in ("Z3", "S3", "M2") for s in range(4)])
def test_validation_witness_is_the_first_dense_failure_mod_p(base, seed):
    _assert_first_witness(GF(7), base, seed)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("base", list(_BASES))
def test_products_centrality_and_unit_check_match_brute_force(field, base):
    alg = _BASES[base](field)
    n = alg.dim
    entries = list(alg.mul_entries())
    table = {(i, j, k): c for i, j, k, c in entries}
    rng = random.Random(0)

    def brute(a, b):
        return _brute_product(field, n, table, a, b)

    def random_vector(density):
        return [field.div(field.of_int(rng.randrange(-3, 4)), field.of_int(rng.choice([1, 2, 3])))
                if rng.random() < density else field.zero() for _ in range(n)]

    vectors = [random_vector(d) for d in (0.2, 0.5, 1.0) for _ in range(3)]
    centre = [z.coeffs for z in alg.centre_basis()]
    mix = [field.of_int(rng.randrange(-2, 3)) for _ in centre]
    combination = [functools.reduce(field.add, (field.mul(m, z[t]) for m, z in zip(mix, centre)))
                   for t in range(n)]
    central = centre + [combination]
    for a in vectors + central:
        for b in vectors:
            assert list((alg.element(a) * alg.element(b)).coeffs) == brute(a, b)
        commutes = all(brute(a, e.coeffs) == brute(e.coeffs, a)
                       for e in (alg.basis_element(i) for i in range(n)))
        assert alg.element(a).is_central() == commutes
    assert all(alg.element(z).is_central() for z in central)
    if base == "M2":
        assert not alg.basis_element(0).is_central()  # e00
    # the true unit, and candidates that break it at one or at every entry
    units = [list(alg.unit)] + vectors[:3]
    for _ in range(3):
        u = list(alg.unit)
        u[rng.randrange(n)] = field.of_int(rng.randrange(-2, 3))
        units.append(u)
    for u in units:
        expected = _dense_first_failure(field, n, entries, u)
        if expected is None:
            assert S.Algebra(field, n, entries, u).unit == tuple(u)
        else:
            with pytest.raises(expected[0]) as err:
                S.Algebra(field, n, entries, u)
            assert err.value.witness == expected[1]


def test_make_algebra_rejects_bad_unit():
    field = QQ
    entries = [(0, 0, 0, field.one()), (1, 1, 1, field.one())]
    unit = [field.one(), field.zero()]  # misses the second block
    with pytest.raises(BadUnitError):
        S.Algebra(field, 2, entries, unit)


def test_unit_multiplication_is_identity():
    alg, _ = S.matrix_direct_sum(QQ, [2, 3], [1, 1])
    one = alg.unit_element()
    for k in range(alg.dim):
        e = alg.basis_element(k)
        assert (one * e).coeffs == e.coeffs
        assert (e * one).coeffs == e.coeffs


def test_left_regular_matrix_unit_and_idempotent():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    assert alg.left_regular_matrix(alg.unit_element()) == S.Matrix.identity(QQ, 4)
    # brute force L_{e00} from the structure constants: fixes e00, e01
    i = m2_indices()
    l00 = alg.left_regular_matrix(alg.basis_element(i["00"]))
    expected = S.Matrix.zeros(QQ, 4, 4)
    expected.data[i["00"]][i["00"]] = Fraction(1)
    expected.data[i["01"]][i["01"]] = Fraction(1)
    assert l00 == expected
    assert l00 @ l00 == l00 and l00.rank() == 2


def test_left_regular_matrix_group_swap():
    alg, _ = S.group_algebra(QQ, S.GroupTable.cyclic(2))
    lg = alg.left_regular_matrix(alg.basis_element(1))
    assert lg == S.Matrix.from_rows(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])


def test_left_regular_is_multiplicative():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    a = alg.element([Fraction(1), Fraction(2), Fraction(0), Fraction(-1)])
    b = alg.element([Fraction(0), Fraction(1), Fraction(3), Fraction(2)])
    assert alg.left_regular_matrix(a * b) == alg.left_regular_matrix(a) @ alg.left_regular_matrix(b)


def test_canonical_pairing_matrix_algebra():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    i = m2_indices()
    g = alg.canonical_pairing()
    assert g[(i["01"], i["10"])] == Fraction(2)
    assert g[(i["00"], i["01"])] == Fraction(0)
    assert g.is_symmetric()


def test_canonical_pairing_group_algebra():
    alg, _ = S.group_algebra(QQ, S.GroupTable.cyclic(2))
    assert alg.canonical_pairing() == S.Matrix.from_rows(
        QQ, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    )


def test_canonical_pairing_invariance_on_basis_triples():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    g = alg.canonical_pairing()

    def pair(v, w):
        return sum(g[(i, j)] * v[i] * w[j] for i in range(4) for j in range(4))

    for i in range(4):
        for j in range(4):
            for k in range(4):
                ei, ej, ek = (alg.basis_element(t) for t in (i, j, k))
                assert pair((ei * ej).coeffs, ek.coeffs) == pair(ei.coeffs, (ej * ek).coeffs)


def test_matrix_algebra_char_two_pairing_vanishes():
    f2 = GF(2)
    # build M_2(F_2) directly; the frobenius construction would refuse
    entries = []
    def idx(r, c):
        return 2 * r + c
    for r in range(2):
        for s in range(2):
            for t in range(2):
                entries.append((idx(r, s), idx(s, t), idx(r, t), 1))
    alg = S.Algebra(f2, 4, entries, [1, 0, 0, 1])
    assert alg.canonical_pairing().is_zero()
    assert not alg.is_strongly_separable()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_strong_separability_of_matrix_algebras_mod_p(p, n):
    field = GF(p)
    entries = []
    def idx(r, c):
        return n * r + c
    for r in range(n):
        for s in range(n):
            for t in range(n):
                entries.append((idx(r, s), idx(s, t), idx(r, t), 1))
    unit = [0] * (n * n)
    for r in range(n):
        unit[idx(r, r)] = 1
    alg = S.Algebra(field, n * n, entries, unit)
    assert alg.is_strongly_separable() == (n % p != 0)


def test_strong_separability_of_group_algebras():
    assert S.group_algebra(QQ, S.GroupTable.cyclic(2))[0].is_strongly_separable()
    assert S.group_algebra(QQ, S.GroupTable.symmetric(3))[0].is_strongly_separable()
    f2 = GF(2)
    table = S.GroupTable.cyclic(2)
    entries = [(i, j, table.table[i][j], 1) for i in range(2) for j in range(2)]
    alg = S.Algebra(f2, 2, entries, [1, 0])
    assert not alg.is_strongly_separable()


def test_centre_of_matrix_algebra_is_spanned_by_unit():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    basis = alg.centre_basis()
    assert len(basis) == 1
    z = basis[0]
    # must be proportional to e00 + e11
    assert z.coeffs[1] == 0 and z.coeffs[2] == 0 and z.coeffs[0] == z.coeffs[3] != 0


def test_centre_of_symmetric_group_algebra_matches_class_sums():
    alg, _ = S.group_algebra(QQ, S.GroupTable.symmetric(3))
    basis = alg.centre_basis()
    assert len(basis) == 3
    # hand-listed conjugacy classes in the lexicographic permutation order:
    # identity 012; transpositions 021, 102, 210; three-cycles 120, 201
    classes = [{0}, {1, 2, 5}, {3, 4}]
    span_contains = []
    for cls in classes:
        vec = [QQ.one() if i in cls else QQ.zero() for i in range(6)]
        m = S.Matrix.from_rows(QQ, [list(b.coeffs) for b in basis]).transpose()
        span_contains.append(m.solve(vec) is not None)
    assert all(span_contains)
    for b in basis:
        assert b.is_central()


def test_centre_of_commutative_algebra_is_everything(structures):
    alg, _ = structures["QxQ (1,1)"]
    assert len(alg.centre_basis()) == alg.dim


def test_centre_contains_unit(structures):
    for label, (alg, _) in structures.items():
        basis = alg.centre_basis()
        m = S.Matrix.from_rows(alg.field, [list(b.coeffs) for b in basis]).transpose()
        assert m.solve(list(alg.unit)) is not None, label


def test_is_central_and_inverse():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    one = alg.unit_element()
    assert one.is_central() and one.inverse().coeffs == one.coeffs
    e00 = alg.basis_element(0)
    assert not e00.is_central()
    assert e00.inverse() is None
    two = one.scale(Fraction(2))
    inv = two.inverse()
    assert inv.coeffs == one.scale(Fraction(1, 2)).coeffs
    assert (two * inv).coeffs == one.coeffs


def test_elements_of_two_algebras_do_not_multiply():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    other, _ = S.matrix_direct_sum(QQ, [2], [1])
    with pytest.raises(ValueError):
        alg.unit_element() * other.unit_element()


def test_an_algebra_of_dimension_zero_is_refused():
    # in dimension 0 a shared leg of a state sum network has size 0 * 0, by
    # which evaluation divided; the empty groupoid's algebra was one
    for dim in (0, -1):
        with pytest.raises(ValueError):
            S.Algebra(QQ, dim, [], [])
    with pytest.raises(ValueError):
        S.groupoid_algebra(QQ, S.FiniteGroupoid(0, [], [], [], [], []))


def _z2():
    return S.Algebra(QQ, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)],
                     [Fraction(1), Fraction(0)])


@pytest.mark.parametrize("build,text", [
    (_z2, "Algebra(dim=2 over Field(Q))"),
    (lambda: _z2().element([Fraction(1, 2), Fraction(-1)]), "1/2*e0 + -1*e1"),
    (lambda: _z2().zero_element(), "0"),
    (lambda: GF(7), "Field(F_7)"),
    (lambda: S.FrobeniusStructure(_z2(), [Fraction(1), Fraction(0)]),
     "FrobeniusStructure(dim=2 over Field(Q))"),
    (lambda: S.Matrix.zeros(GF(7), 2, 3), "Matrix(2x3 over Field(F_7))"),
    (lambda: S.Morphism.identity(QQ, (full_factor(2),)), "Morphism([full(2)] <- [full(2)])"),
    (lambda: Tensor.vector(QQ, "i", [1, 0, 2]), "Tensor(legs=['i'], nnz=2)"),
    (lambda: S.strip(1, 1), "OpenClosedComplex(V=4, F=2, in=1, out=1, coloured=2)"),
], ids=["Algebra", "Element", "zero Element", "Field", "FrobeniusStructure", "Matrix",
        "Morphism", "Tensor", "OpenClosedComplex"])
def test_display_forms(build, text):
    assert repr(build()) == text
