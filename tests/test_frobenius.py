import hashlib
from fractions import Fraction

import pytest

import statesum as S
from statesum.errors import (
    ArityError,
    DegeneratePairingError,
    NotCentralError,
    NotIdempotentError,
    NotInvertibleError,
    NotStronglySeparableError,
    NotSymmetricError,
    WindowNotInvertibleError,
)
from statesum.fields import GF, QQ
from statesum.frobenius import (
    all_axioms_pass,
    check_knowledgeable,
    idempotent_property_report,
    split_idempotent,
)
from statesum.morphism import Morphism, full_factor, split_factor

from conftest import comul, window_element


def scaled_unit(alg, c):
    return alg.unit_element().scale(c)


# -- construction from a counit ------------------------------------------------------


def test_matrix_algebra_delta_counit_structure():
    alg, _ = S.matrix_direct_sum(QQ, [2], [2])  # counit e_pq -> delta_pq
    F = S.FrobeniusStructure(alg, [Fraction(1), Fraction(0), Fraction(0), Fraction(1)])
    # Delta(e_pq) = sum_k e_pk (x) e_kq in the (00,01,10,11) basis
    expect = {
        0: {(0, 0), (1, 2)},
        1: {(0, 1), (1, 3)},
        2: {(2, 0), (3, 2)},
        3: {(2, 1), (3, 3)},
    }
    for i, pairs in expect.items():
        got = {(j, k): v for (j, k, v) in comul(F)[i]}
        assert set(got) == pairs and all(v == 1 for v in got.values())
    assert F.window.coeffs == scaled_unit(alg, Fraction(2)).coeffs


def test_group_algebra_delta_counit_structure():
    alg, F = S.group_algebra(QQ, S.GroupTable.cyclic(2))
    # Delta(g) = sum_h h (x) h^-1 g
    assert {(j, k): v for (j, k, v) in comul(F)[0]} == {(0, 0): 1, (1, 1): 1}
    assert {(j, k): v for (j, k, v) in comul(F)[1]} == {(0, 1): 1, (1, 0): 1}
    assert F.window.coeffs == scaled_unit(alg, Fraction(2)).coeffs


def test_zero_counit_rejected():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    with pytest.raises(DegeneratePairingError):
        S.FrobeniusStructure(alg, [QQ.zero()] * 4)


def test_asymmetric_counit_rejected():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    # eps(e_01) = 1 makes eps o mu asymmetric: g(e00,e01)=1 but g(e01,e00)=0
    with pytest.raises((NotSymmetricError, DegeneratePairingError)):
        S.FrobeniusStructure(alg, [Fraction(1), Fraction(1), Fraction(0), Fraction(1)])


def test_window_not_invertible_in_bad_characteristic():
    f2 = GF(2)
    table = S.GroupTable.cyclic(2)
    entries = [(i, j, table.table[i][j], 1) for i in range(2) for j in range(2)]
    alg = S.Algebra(f2, 2, entries, [1, 0])
    # the delta counit still yields a nondegenerate pairing, but the window
    # element is 2 = 0
    with pytest.raises(WindowNotInvertibleError):
        S.FrobeniusStructure(alg, [1, 0])


# -- construction from a window element ------------------------------------------------


def test_canonical_structure_of_matrix_algebra():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    F = S.frobenius_from_window(alg, alg.unit_element())
    assert list(F.counit) == [Fraction(2), Fraction(0), Fraction(0), Fraction(2)]
    assert F.pairing == alg.canonical_pairing()
    assert F.window.coeffs == alg.unit


def test_window_roundtrip_group_algebra():
    alg, F_delta = S.group_algebra(QQ, S.GroupTable.cyclic(2))
    F = S.frobenius_from_window(alg, scaled_unit(alg, Fraction(2)))
    assert F.counit == F_delta.counit
    assert comul(F) == comul(F_delta)


@pytest.mark.parametrize("z_coeffs", [(2, 0), (1, 0), (2, 1)])
def test_window_of_from_window_is_z(z_coeffs):
    alg, _ = S.group_algebra(QQ, S.GroupTable.cyclic(2))
    z = alg.element([QQ.of_int(x) for x in z_coeffs])
    F = S.frobenius_from_window(alg, z)
    assert F.window.coeffs == z.coeffs
    # and rebuilding from the resulting counit reproduces the same structure
    F2 = S.FrobeniusStructure(alg, F.counit)
    assert comul(F2) == comul(F) and F2.window.coeffs == F.window.coeffs


def test_from_window_rejects_non_strongly_separable():
    f2 = GF(2)
    entries = []
    def idx(r, c):
        return 2 * r + c
    for r in range(2):
        for s in range(2):
            for t in range(2):
                entries.append((idx(r, s), idx(s, t), idx(r, t), 1))
    alg = S.Algebra(f2, 4, entries, [1, 0, 0, 1])
    with pytest.raises(NotStronglySeparableError):
        S.frobenius_from_window(alg, alg.unit_element())


def test_from_window_rejects_non_central_and_non_invertible():
    alg, _ = S.matrix_direct_sum(QQ, [2], [1])
    with pytest.raises(NotCentralError):
        S.frobenius_from_window(alg, alg.basis_element(0))
    with pytest.raises(NotInvertibleError):
        S.frobenius_from_window(alg, alg.zero_element())
    other, _ = S.matrix_direct_sum(QQ, [2], [1])
    with pytest.raises(ValueError):
        S.frobenius_from_window(alg, other.unit_element())


# -- window element -------------------------------------------------------------------


def test_window_element_values(structures):
    alg, F = structures["M2(Q) delta-counit"]
    assert window_element(F).coeffs == scaled_unit(alg, Fraction(2)).coeffs
    alg6, F6 = structures["Q[S3] delta"]
    assert window_element(F6).coeffs == scaled_unit(alg6, Fraction(6)).coeffs
    algc, Fc = structures["M2(Q) canonical"]
    assert window_element(Fc).coeffs == algc.unit


def test_window_element_always_central(structures):
    for label, (alg, F) in structures.items():
        assert window_element(F).is_central(), label
        assert window_element(F).coeffs == F.window.coeffs, label


def test_is_special(structures):
    assert structures["Q[Z/2] delta"][1].is_special()
    assert structures["M2(Q) canonical"][1].is_special()
    assert not structures["M2+M3 windows (1,2)"][1].is_special()
    assert not structures["Q[Z/2] window 2e+g"][1].is_special()


def test_special_iff_window_scalar_and_bubble(structures):
    # special means mu o Delta is an invertible scalar multiple of the identity
    for label, (alg, F) in structures.items():
        md = F.mu_matrix() @ F.delta_matrix()
        diag = md[(0, 0)]
        scalar = md == S.Matrix.identity(alg.field, alg.dim).scale(diag) and diag != 0
        assert scalar == F.is_special(), label


# -- trilinear form ----------------------------------------------------------------------


def test_trilinear_group_algebra_delta():
    alg, F = S.group_algebra(QQ, S.GroupTable.cyclic(3))
    g3 = dict(F.trilinear())
    table = S.GroupTable.cyclic(3).table
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expect = Fraction(1) if table[table[i][j]][k] == 0 else Fraction(0)
                assert g3.get((i, j, k), Fraction(0)) == expect


def test_trilinear_cyclic_symmetry(structures):
    for label, (alg, F) in structures.items():
        g3 = F.trilinear()
        for (i, j, k), v in g3.items():
            assert g3.get((j, k, i)) == v, label


def test_trilinear_matrix_example():
    alg, _ = S.matrix_direct_sum(QQ, [2], [2])  # delta counit
    F = S.FrobeniusStructure(alg, [Fraction(1), Fraction(0), Fraction(0), Fraction(1)])
    g3 = F.trilinear()
    # eps(e01 e10 e00) = eps(e00) = 1
    assert g3[(1, 2, 0)] == Fraction(1)


# -- canonical idempotent ------------------------------------------------------------------


def test_idempotent_matrix_block_formula():
    alg, F = S.matrix_direct_sum(QQ, [2, 3], [1, 2])
    P = F.idempotent_matrix()
    # p(e^j_pq) = delta_pq m_j^-1 sum_r e^j_rr, independent of the window
    n = alg.dim
    names = alg.basis_names
    for col in range(n):
        name = names[col]
        j = int(name[1])
        p_, q_ = name.split("_")[1]
        m = [2, 3][j]
        for row in range(n):
            rn = names[row]
            expect = Fraction(0)
            if p_ == q_ and int(rn[1]) == j and rn.split("_")[1][0] == rn.split("_")[1][1]:
                expect = Fraction(1, m)
            assert P[(row, col)] == expect, (row, col)


def test_idempotent_identity_on_commutative(structures):
    alg, F = structures["QxQ (2,3)"]
    assert F.idempotent_matrix() == S.Matrix.identity(alg.field, alg.dim)
    alg2, F2 = structures["Q[Z/3] delta"]
    assert F2.idempotent_matrix() == S.Matrix.identity(alg2.field, alg2.dim)


def test_idempotent_rank_equals_centre_dimension(structures):
    for label, (alg, F) in structures.items():
        assert F.idempotent_matrix().rank() == len(alg.centre_basis()), label


def test_idempotent_properties_all_structures(structures):
    for label, (alg, F) in structures.items():
        report = idempotent_property_report(F)
        assert len(report) == 8
        bad = [name for name, ok in report if not ok]
        assert not bad, (label, bad)


_REPORT_NAMES = ["p squared equals p", "p fixes the unit", "counit absorbs p",
                 "multiplication absorption", "comultiplication absorption",
                 "p fixes central elements", "p commutes with central multiplications",
                 "image of p is central"]


def _image_is_central_by_columns(F, P):
    """Whether every column of ``P`` is central, each by ``Element.is_central``."""
    return all(S.Element(F.algebra, P.column(j)).is_central() for j in range(P.cols))


def test_image_is_central_clause_matches_the_column_check(structures, monkeypatch):
    for label, (alg, F) in structures.items():
        report = idempotent_property_report(F)
        assert [name for name, _ in report] == _REPORT_NAMES, label
        assert all(ok for _, ok in report), label
        assert _image_is_central_by_columns(F, F.idempotent_matrix()), label
    # M2 + M1 over Q: e_00 is not central, its unit is
    alg, F = S.matrix_direct_sum(QQ, [2, 1], [1, 1])
    n = alg.dim
    onto_e00 = S.Matrix.zeros(QQ, n, n)
    onto_e00.data[0][0] = QQ.one()
    onto_unit = S.Matrix.from_rows(QQ, [[u] + [QQ.zero()] * (n - 1) for u in alg.unit])
    for P, central in ((onto_e00, False), (S.Matrix.identity(QQ, n), False), (onto_unit, True)):
        assert P @ P == P
        monkeypatch.setattr(S.FrobeniusStructure, "idempotent_matrix", lambda self: P)
        report = dict(idempotent_property_report(F))
        assert report["image of p is central"] is central
        assert _image_is_central_by_columns(F, P) is central

def test_bubble_identity(structures):
    for label, (alg, F) in structures.items():
        lhs = F.window_power_matrix(-1) @ F.mu_matrix() @ F.delta_matrix()
        assert lhs == S.Matrix.identity(alg.field, alg.dim), label


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["Q", "F_10007"])
def test_window_power_matrix_is_the_iterated_product(field):
    # squaring groups the product differently; exact arithmetic must give the
    # same entries, of the same types, as |k| left multiplications
    _, F = S.matrix_direct_sum(field, [2, 3], [1, 2])
    for k in range(-13, 14):
        lb = F.algebra.left_regular_matrix(F.window if k >= 0 else F.window_inverse)
        expect = S.Matrix.identity(field, F.dim)
        for _ in range(abs(k)):
            expect = lb @ expect
        got = F.window_power_matrix(k)
        assert got == expect, k
        assert [list(map(type, row)) for row in got.data] == \
               [list(map(type, row)) for row in expect.data], k


# -- idempotent splitting -------------------------------------------------------------------


def test_split_identity_and_zero():
    im, coim = split_idempotent(S.Matrix.identity(QQ, 3))
    assert im == S.Matrix.identity(QQ, 3) and coim == S.Matrix.identity(QQ, 3)
    im0, coim0 = split_idempotent(S.Matrix.zeros(QQ, 3, 3))
    assert im0.cols == 0 and coim0.rows == 0


def test_split_rank_counts_blocks():
    _, F = S.matrix_direct_sum(QQ, [2, 3], [1, 1])
    im, coim = split_idempotent(F.idempotent_matrix())
    assert im.cols == 2
    assert im @ coim == F.idempotent_matrix()
    assert coim @ im == S.Matrix.identity(QQ, 2)


def test_split_rejects_non_idempotent():
    m = S.Matrix.from_rows(QQ, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])
    with pytest.raises(NotIdempotentError):
        split_idempotent(m)
    with pytest.raises(NotIdempotentError):
        split_idempotent(S.Matrix.zeros(QQ, 2, 3))


def test_split_is_the_cr_factorisation_of_random_idempotents():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    @st.composite
    def idempotents(draw):
        field = draw(st.sampled_from([QQ, GF(7)]))
        n = draw(st.integers(1, 6))
        entries = st.integers(-3, 3).map(field.of_int)
        x = S.Matrix.from_rows(field, draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
        assume(x.rank() == n)
        d = S.Matrix.identity(field, n)
        for i, keep in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))):
            if not keep:
                d.data[i][i] = field.zero()
        return x @ d @ x.inverse()

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(idempotents())
    def splits(p):
        im, coim = split_idempotent(p)
        assert im @ coim == p
        assert coim @ im == S.Matrix.identity(p.field, im.cols)
        # im is the leftmost columns of p that each raise the rank
        chosen = []
        for j in range(p.cols):
            candidate = chosen + [p.column(j)]
            if S.Matrix.from_rows(p.field, candidate).rank() == len(candidate):
                chosen = candidate
        assert [im.column(t) for t in range(im.cols)] == chosen

    splits()


# -- the knowledgeable structure ---------------------------------------------------------------


def _z_basis_change(alg, F, sizes):
    """Matrix whose column j is the split-image coordinate vector of z_j."""
    field = alg.field
    _, coim = F.split_p()
    cols = []
    off = 0
    for m in sizes:
        z = [field.zero()] * alg.dim
        for r in range(m):
            z[off + r * m + r] = field.one()
        cols.append(coim.mul_vec(z))
        off += m * m
    return S.Matrix.from_rows(field, cols).transpose()


@pytest.mark.parametrize("sizes,windows", [([2], [1]), ([2, 3], [1, 2]), ([1, 2], [2, 1])])
def test_knowledgeable_matrix_block_formulas(sizes, windows):
    alg, F = S.matrix_direct_sum(QQ, sizes, windows)
    K = F.knowledgeable()
    d = len(sizes)
    assert K.C.dim == d
    X = _z_basis_change(alg, F, sizes)
    Xi = X.inverse()
    field = alg.field
    # mu_C(z_j (x) z_l) = delta_jl z_j
    muz = Xi @ K.C.mu_matrix() @ X.kron(X)
    for j in range(d):
        for l in range(d):
            col = [muz[(r, j * d + l)] for r in range(d)]
            expect = [field.one() if (j == l and r == j) else field.zero() for r in range(d)]
            assert col == expect
    # Delta_C(z_j) = a_j^2 m_j^-2 z_j (x) z_j
    dez = Xi.kron(Xi) @ K.C.delta_matrix() @ X
    for j in range(d):
        for r in range(d):
            for s in range(d):
                expect = field.zero()
                if r == j and s == j:
                    expect = Fraction(windows[j] ** 2, sizes[j] ** 2)
                assert dez[(r * d + s, j)] == expect
    # eps_C(z_j) = m_j^2 a_j^-2
    epz = K.C.eps_matrix() @ X
    for j in range(d):
        assert epz[(0, j)] == Fraction(sizes[j] ** 2, windows[j] ** 2)
    # iota(z_j) = sum_p e^j_pp and iota_star(e^j_pq) = a_j m_j^-1 delta_pq z_j
    off = 0
    for j, m in enumerate(sizes):
        zvec = [field.zero()] * alg.dim
        for r in range(m):
            zvec[off + r * m + r] = field.one()
        assert K.iota.mul_vec(X.column(j)) == zvec
        for p_ in range(m):
            for q_ in range(m):
                col = off + p_ * m + q_
                got = Xi.mul_vec([K.iota_star[(r, col)] for r in range(d)])
                expect = [field.zero()] * d
                if p_ == q_:
                    expect[j] = Fraction(windows[j], sizes[j])
                assert got == expect
        off += m * m


def test_knowledgeable_commutative_is_whole_algebra(structures):
    alg, F = structures["QxQ (2,3)"]
    K = F.knowledgeable()
    assert K.C.dim == alg.dim
    assert K.iota.rank() == alg.dim


def test_check_knowledgeable_passes_for_all_catalog(structures):
    for label, (alg, F) in structures.items():
        assert all_axioms_pass(check_knowledgeable(F.knowledgeable())), label


def test_check_knowledgeable_builds_no_dense_map_on_a_tensor_square(monkeypatch):
    _, F = S.matrix_direct_sum(QQ, [2, 3], [1, 2])
    K = F.knowledgeable()
    n = F.dim
    # the flip of A (x) A alone would need n^4 dense cells
    monkeypatch.setattr("statesum.linalg.DENSE_BUDGET", n * n)
    assert all_axioms_pass(check_knowledgeable(K))


def test_check_knowledgeable_detects_scaled_iota_star(structures):
    alg, F = structures["M2(Q) canonical"]
    K = F.knowledgeable()
    broken = S.KnowledgeableFrobenius(K.A, K.C, K.iota, K.iota_star.scale(Fraction(2)))
    report = check_knowledgeable(broken)
    failed = {name for name, ok, _ in report if not ok}
    assert "cardy" in failed


# -- iterated operations and the boundary projectors ----------------------------------------------


def test_iterated_base_cases(structures):
    alg, F = structures["M2(Q) canonical"]
    n = alg.dim
    assert F.iterated_mu_matrix(1) == S.Matrix.identity(QQ, n)
    assert F.iterated_delta_matrix(1) == S.Matrix.identity(QQ, n)
    assert F.iterated_mu_matrix(2) == F.mu_matrix()
    with pytest.raises(ArityError):
        F.iterated_mu_matrix(0)
    with pytest.raises(ArityError):
        F.iterated_delta_matrix(0)


def test_mu_delta_composite_is_window_power(structures):
    for label, (alg, F) in structures.items():
        if alg.dim > 6:
            continue
        for k in (1, 2, 3):
            got = F.iterated_mu_matrix(k) @ F.iterated_delta_matrix(k)
            assert got == F.window_power_matrix(k - 1), (label, k)


def test_p_q_base_cases(structures):
    alg, F = structures["M2(Q) canonical"]
    assert F.p_matrix(1, 1) == S.Matrix.identity(QQ, alg.dim)
    assert F.q_matrix(1, 1) == F.idempotent_matrix()


def test_projector_composition_laws(structures):
    for label in ("M2(Q) delta-counit", "Q[Z/3] delta", "F7[Z/3] canonical"):
        alg, F = structures[label]
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                for m in (1, 2, 3):
                    assert F.p_matrix(k, l) @ F.p_matrix(l, m) == F.p_matrix(k, m), (label, k, l, m)
                    assert F.q_matrix(k, l) @ F.q_matrix(l, m) == F.q_matrix(k, m), (label, k, l, m)


def test_p21_p12_equals_p22():
    alg, F = S.matrix_direct_sum(QQ, [2], [1])
    assert F.p_matrix(2, 1) @ F.p_matrix(1, 2) == F.p_matrix(2, 2)


def test_phi_psi_are_two_sided_inverses(structures):
    for label in ("Q[Z/2] delta", "M2(Q) canonical", "M2+M3 windows (1,2)"):
        alg, F = structures[label]
        for k in (1, 2, 3):
            phi, phi_inv = F.phi_matrices(k)
            assert phi_inv @ phi == S.Matrix.identity(alg.field, alg.dim), (label, k)
            assert phi @ phi_inv == S.Matrix.identity(alg.field, phi.rows), (label, k)
            psi, psi_inv = F.psi_matrices(k)
            d = psi.cols
            assert psi_inv @ psi == S.Matrix.identity(alg.field, d), (label, k)
            assert psi @ psi_inv == S.Matrix.identity(alg.field, psi.rows), (label, k)


def test_phi_psi_base_cases(structures):
    alg, F = structures["M2(Q) canonical"]
    phi, _ = F.phi_matrices(1)
    # P_11 = id splits through the identity, so Phi_1 is the identity matrix
    assert phi == S.Matrix.identity(QQ, alg.dim)
    psi, _ = F.psi_matrices(1)
    assert psi == S.Matrix.identity(QQ, psi.rows)


# the boundary projectors and pivot isomorphisms as typed morphisms


def P_map(F, k, l):
    a = full_factor(F.dim)
    return Morphism(F.field, (a,) * l, (a,) * k, F.p_matrix(k, l))


def phi_iso(F, k):
    phi, phi_inv = F.phi_matrices(k)
    a = full_factor(F.dim)
    s = split_factor(phi.rows)
    return (
        Morphism(F.field, (a,), (s,), phi),
        Morphism(F.field, (s,), (a,), phi_inv),
    )


def psi_iso(F, k):
    psi, psi_inv = F.psi_matrices(k)
    d = split_factor(psi.cols)
    s = split_factor(psi.rows)
    return (
        Morphism(F.field, (d,), (s,), psi),
        Morphism(F.field, (s,), (d,), psi_inv),
    )


def test_morphism_wrappers_signatures(structures):
    alg, F = structures["Q[Z/2] delta"]
    p = P_map(F, 2, 3)
    assert len(p.domain) == 3 and len(p.codomain) == 2
    phi, phi_inv = phi_iso(F, 2)
    assert phi_inv.compose(phi).matrix == S.Matrix.identity(alg.field, alg.dim)
    psi, psi_inv = psi_iso(F, 2)
    assert psi_inv.compose(psi).matrix == S.Matrix.identity(alg.field, psi.matrix.cols)


# -- the laws the constructor derives instead of checking ----------------------------


def _first_broken_law(F):
    """The first law of ``F`` that fails, or ``None``, recomputed by brute force
    from its structure constants, counit, ``comul`` rows, window, idempotent
    and closed space.

    ``FrobeniusStructure`` checks only associativity, the unit laws, symmetry,
    nondegeneracy and an invertible window; every law here follows from those.
    The laws are tried in order, so ``p^2 = p`` is tried before splitting ``p``.
    """
    alg, f, n = F.algebra, F.field, F.dim

    def combine(terms):
        """Sum ``(key, value)`` terms into a dict of the nonzero sums."""
        acc = {}
        for key, v in terms:
            acc[key] = f.add(acc.get(key, f.zero()), v)
        return {k: v for k, v in acc.items() if v != 0}

    table = {}
    for i, j, k, c in alg.mul_entries():
        table.setdefault((i, j), []).append((k, c))

    def mul(x, y):
        return combine((k, f.mul(f.mul(xi, yj), c))
                       for i, xi in x.items() for j, yj in y.items()
                       for k, c in table.get((i, j), ()))

    def delta(x):
        return combine(((j, b), f.mul(xi, v)) for i, xi in x.items() for j, b, v in comul(F)[i])

    def vec(coeffs):
        return combine(enumerate(coeffs))

    def column(m, i):
        return combine((r, m.data[r][i]) for r in range(m.rows))

    basis = [{i: f.one()} for i in range(n)]
    eps = F.counit
    a, ainv = vec(F.window.coeffs), vec(F.window_inverse.coeffs)

    def frobenius_relation(i, j):
        # Delta(xy) = Delta(x) (1 (x) y) = (x (x) 1) Delta(y)
        right = combine(((s, k), f.mul(v, c)) for (s, b), v in delta(basis[i]).items()
                        for k, c in mul(basis[b], basis[j]).items())
        left = combine(((k, t), f.mul(v, c)) for (b, t), v in delta(basis[j]).items()
                       for k, c in mul(basis[i], basis[b]).items())
        return delta(mul(basis[i], basis[j])) == right == left

    def idempotent():
        p_cols = [column(F.idempotent_matrix(), i) for i in range(n)]
        return all(combine((r, f.mul(c, v)) for m, c in p_cols[i].items()
                           for r, v in p_cols[m].items()) == p_cols[i]
                   for i in range(n))

    def closed_delta_is_transported():
        # (coim (x) coim) o Delta_A o (a .) o im, on each basis element of C
        im, coim = F.split_p()
        C = F.knowledgeable().C
        return all(
            combine(((s, u), f.mul(f.mul(coim.data[s][j], coim.data[u][b]), v))
                    for (j, b), v in delta(mul(a, column(im, t))).items()
                    for s in range(C.dim) for u in range(C.dim))
            == combine(((s, u), v) for s, u, v in comul(C)[t])
            for t in range(C.dim))

    laws = {
        "counit laws": lambda: all(
            combine((b, f.mul(eps[j], v)) for j, b, v in comul(F)[i]) == basis[i]
            == combine((j, f.mul(v, eps[b])) for j, b, v in comul(F)[i])
            for i in range(n)),
        "coassociativity": lambda: all(
            combine(((s, t, b), f.mul(v, w))
                    for j, b, v in comul(F)[i] for s, t, w in comul(F)[j])
            == combine(((j, s, t), f.mul(v, w))
                       for j, b, v in comul(F)[i] for s, t, w in comul(F)[b])
            for i in range(n)),
        "Frobenius relation": lambda: all(frobenius_relation(i, j)
                                          for i in range(n) for j in range(n)),
        "central window": lambda: all(mul(a, e) == mul(e, a) for e in basis),
        "two-sided inverses of a and a^-1": lambda: mul(a, ainv) == vec(alg.unit) == mul(ainv, a),
        "p^2 = p": idempotent,
        "C's Delta is the transported Delta": closed_delta_is_transported,
    }
    return next((name for name, holds in laws.items() if not holds()), None)


def test_implied_laws_hold(structures):
    for label, (alg, F) in structures.items():
        assert _first_broken_law(F) is None, label

    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    fields = st.sampled_from([QQ, GF(7), GF(11), GF(13)])
    # block sizes and windows; a dimension of at most 14 keeps each check fast
    sizes = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda ms: sum(m * m for m in ms) <= 14)
    windows = st.sampled_from(["1", "2", "-1", "3", "1/2", "-2/3"])
    blocks = sizes.flatmap(lambda ms: st.tuples(
        st.just(ms), st.lists(windows, min_size=len(ms), max_size=len(ms))))
    matrix_sums = st.builds(lambda field, b: S.matrix_direct_sum(field, *b)[1], fields, blocks)
    groupoids = st.sampled_from([
        S.FiniteGroupoid.pair(2), S.FiniteGroupoid.pair(3),
        S.FiniteGroupoid.transitive(2, S.GroupTable.cyclic(2)),
        S.FiniteGroupoid.transitive(2, S.GroupTable.cyclic(3)),
        S.FiniteGroupoid.from_group(S.GroupTable.symmetric(3)),
    ])
    groupoid_structures = st.builds(lambda field, gd: S.groupoid_algebra(field, gd)[1],
                                    fields, groupoids)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(matrix_sums | groupoid_structures)
    def drawn(F):
        assert _first_broken_law(F) is None, (F, F.counit)

    drawn()


# -- pinned derived maps -------------------------------------------------------------

# SHA-1 over the reprs of every derived structure map (entries shown with
# their exact type, Fraction or int) of matrix sums, group algebras and
# groupoid algebras over Q, F_7 and F_10007.  Computed with the
# field-arithmetic loops that built these maps before they became
# contractions of the structure tensor.
DERIVED_MAPS_SHA1 = "86e371fd1dbcc6995e0f29bc0600549d1437a89d"


def _entries(x):
    """``x`` with each Matrix and Element replaced by its entries."""
    if isinstance(x, S.Matrix):
        return x.data
    if isinstance(x, S.Element):
        return x.coeffs
    if isinstance(x, (list, tuple)):
        return type(x)(_entries(v) for v in x)
    return x


def _pinned_structures():
    for field in (QQ, GF(7), GF(10007)):
        yield S.matrix_direct_sum(field, [2, 3], [1, 2])[1]
        yield S.group_algebra(field, S.GroupTable.symmetric(3))[1]
        yield S.groupoid_algebra(field, S.FiniteGroupoid.pair(2))[1]
    alg = S.group_algebra(QQ, S.GroupTable.cyclic(4))[0]
    yield S.canonical_frobenius(alg)
    yield S.groupoid_algebra(QQ, S.FiniteGroupoid.transitive(2, S.GroupTable.cyclic(2)))[1]


def test_derived_maps_are_pinned():
    digest = hashlib.sha1()
    for F in _pinned_structures():
        K = F.knowledgeable()
        values = [
            comul(F), sorted(F.trilinear().items()),
            F.pairing, F.pairing_inverse, F.window, F.window_inverse,
            F.idempotent_matrix(), F.mu_matrix(), F.delta_matrix(),
            F.window_power_matrix(2), F.window_power_matrix(-2),
            F.algebra.canonical_pairing(), F.algebra.centre_basis(),
            K.iota, K.iota_star, K.C.counit, comul(K.C),
            F.p_matrix(2, 1), F.p_matrix(1, 2), F.q_matrix(2, 2),
        ]
        digest.update(repr(_entries(values)).encode())
    assert digest.hexdigest() == DERIVED_MAPS_SHA1
