import re
from fractions import Fraction
from itertools import product

import pytest

import statesum as S
from statesum.cobordisms import closed_surface, strip
from statesum.errors import (
    CharDividesBlockError,
    CharDividesOrderError,
    CharDividesStarError,
    IncompatibleColoursError,
    InvalidInput,
    MissingColourError,
    ZeroWindowCoefficientError,
)
from statesum.evaluation import evaluate_closed, state_sum
from statesum.fields import GF, QQ

from conftest import comul, groupoid_idempotent_closed_form


# -- group tables ---------------------------------------------------------------------


def test_group_table_validation():
    with pytest.raises(InvalidInput):
        S.GroupTable([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(InvalidInput):
        S.GroupTable([[1, 0], [1, 0]])  # no identity
    g = S.GroupTable.symmetric(3)
    assert g.order == 6 and g.identity == 0


@pytest.mark.parametrize("table, message", [
    ([[0, 2], [1, 0]], "multiplication table is not closed"),
    ([[0, 1], [1]], "multiplication table is not closed"),
    # a loop of order 5: an identity and two-sided inverses, but no group
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "table is not associative at (1,1,2)"),
])
def test_group_table_refuses_tables_that_are_not_groups(table, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        S.GroupTable(table)


def test_group_algebra_values():
    alg, F = S.group_algebra(QQ, S.GroupTable.cyclic(2))
    assert alg.dim == 2
    assert F.window.coeffs == (Fraction(2), Fraction(0))
    alg6, F6 = S.group_algebra(QQ, S.GroupTable.symmetric(3))
    assert alg6.dim == 6
    assert len(alg6.centre_basis()) == 3
    assert F6.window.coeffs == tuple([Fraction(6)] + [Fraction(0)] * 5)


def test_group_algebra_char_divides_order():
    with pytest.raises(CharDividesOrderError):
        S.group_algebra(GF(2), S.GroupTable.cyclic(2))
    with pytest.raises(CharDividesOrderError):
        S.group_algebra(GF(3), S.GroupTable.symmetric(3))
    # char 5 does not divide 6
    alg, _ = S.group_algebra(GF(5), S.GroupTable.symmetric(3))
    assert alg.is_strongly_separable()


# -- matrix direct sums ------------------------------------------------------------------


def test_matrix_direct_sum_canonical_m2():
    alg, F = S.matrix_direct_sum(QQ, [2], [1])
    assert alg.dim == 4
    assert F.window.coeffs == alg.unit
    assert F.pairing == alg.canonical_pairing()


def test_matrix_direct_sum_two_blocks():
    alg, F = S.matrix_direct_sum(QQ, [2, 3], [1, 1])
    assert alg.dim == 13
    assert len(alg.centre_basis()) == 2


def test_matrix_direct_sum_window_element():
    alg, F = S.matrix_direct_sum(QQ, [2, 3], [1, 2])
    w = list(F.window.coeffs)
    # window = z_1 + 2 z_2 in the block-diagonal positions
    expect = [QQ.zero()] * 13
    for pos in (0, 3):
        expect[pos] = Fraction(1)
    for pos in (4 + 0, 4 + 4, 4 + 8):
        expect[pos] = Fraction(2)
    assert w == expect


def test_matrix_direct_sum_errors():
    with pytest.raises(CharDividesBlockError):
        S.matrix_direct_sum(GF(2), [2], [1])
    with pytest.raises(ZeroWindowCoefficientError):
        S.matrix_direct_sum(QQ, [2], [0])
    with pytest.raises(InvalidInput):
        S.matrix_direct_sum(QQ, [2, 3], [1])


def test_matrix_direct_sum_f3_block3_rejected():
    with pytest.raises(CharDividesBlockError):
        S.matrix_direct_sum(GF(3), [3], [1])


# -- closed-form invariants -----------------------------------------------------------------


@pytest.mark.parametrize("sizes,windows,genus,punctures,expect", [
    ([2], [1], 0, 0, Fraction(4)),
    ([2, 3], [1, 1], 1, 0, Fraction(2)),
    ([1, 1], [2, 2], 2, 0, Fraction(8)),
    ([2, 3], [1, 1], 2, 0, Fraction(13, 36)),
    ([2], [1], 1, 3, Fraction(1)),
    ([2], [2], 0, 1, Fraction(2)),
    # genus 0 puts a negative exponent on the windows, genus 2 on the sizes
    ([2, 3], [1, 2], 0, 0, Fraction(25, 4)),
    ([2, 3], [1, 2], 0, 1, Fraction(17, 2)),
    # (p, residue): the value over F_p
    ([2, 3], [1, 2], 0, 1, (7, 5)),
    ([2, 3], [1, 1], 2, 0, (7, 6)),
])
def test_surface_closed_form_spot_values(sizes, windows, genus, punctures, expect):
    field = S.QQ
    if isinstance(expect, tuple):
        field, expect = S.GF(expect[0]), expect[1]
    got = S.surface_invariant_closed_form(sizes, windows, genus, punctures, field)
    assert got == expect


def test_genus_window_scalar_small_cases():
    alg, F = S.matrix_direct_sum(QQ, [2], [1])
    K = F.knowledgeable()
    assert S.genus_window_scalar(K, 0, 0) == Fraction(4)
    assert S.genus_window_scalar(K, 1, 0) == Fraction(1)
    # a^(1-2) m^2 = 4 for the canonical window; agrees with the closed form
    # and with the contracted sphere-with-one-window invariant
    assert S.genus_window_scalar(K, 0, 1) == Fraction(4)
    assert S.genus_window_scalar(K, 0, 1) == S.surface_invariant_closed_form([2], [1], 0, 1)
    assert S.genus_window_scalar(K, 0, 1) == evaluate_closed(F, closed_surface(0, 1))


def test_three_way_invariant_agreement():
    for sizes, windows in [([2], [2]), ([1, 2], [2, 1])]:
        alg, F = S.matrix_direct_sum(QQ, sizes, windows)
        K = F.knowledgeable()
        for g in (0, 1):
            for w in (0, 1):
                surf = closed_surface(g, w)
                a = evaluate_closed(F, surf)
                b = S.surface_invariant_closed_form(sizes, windows, g, w)
                c = S.genus_window_scalar(K, g, w)
                assert a == b == c, (sizes, windows, g, w)


# -- groupoids ----------------------------------------------------------------------------


def test_groupoid_axiom_validation():
    with pytest.raises(InvalidInput):
        S.FiniteGroupoid(1, [0], [0], [0], [[None]], [0])  # identity not composable with itself


def _pair_with(**changes):
    """The arguments of ``FiniteGroupoid.pair(2)`` (morphisms 0: 0->0, 1: 0->1,
    2: 1->0, 3: 1->1), with some replaced."""
    gd = S.FiniteGroupoid.pair(2)
    args = dict(num_objects=2, source=gd.source, target=gd.target, identity_of=gd.identity_of,
                compose_table=gd.compose_table, inverse=gd.inverse)
    return {**args, **changes}


def _args(*values):
    return dict(zip(("num_objects", "source", "target", "identity_of", "compose_table",
                     "inverse"), values))


# objects 0, 1; morphisms id0, id1, s: 0 -> 1, r: 1 -> 0 and e = r then s,
# with s then r = id0 but e != id1: r is a one-sided inverse of s
_SPLIT_IDEMPOTENT = _args(2, [0, 1, 0, 1, 1], [0, 1, 1, 0, 1], [0, 1],
                          [[0, None, 2, None, None], [None, 1, None, 3, 4], [None, 2, None, 0, 2],
                           [3, None, 4, None, None], [None, 4, None, 3, 4]],
                          [0, 1, 3, 2, 4])


@pytest.mark.parametrize("args, message", [
    # malformed tables: refused before any entry is used as an index
    (_args(1, [0], [0], [0], [[]], [0]), "composition table must be 1 x 1"),
    (_args(1, [0], [0, 0], [0], [[0]], [0]), "source, target and inverse must list one entry"),
    (_args(1, [1], [0], [0], [[0]], [0]), "source entry 1 is not in range(1)"),
    (_args(1, [0], [0], [0], [[5]], [0]), "composite entry 5 is not in range(1)"),
    (_args(1, [0], [0], [3], [[0]], [0]), "identity_of entry 3 is not in range(1)"),
    (_args(1, [0], [0], [0], [[0]], [7]), "inverse entry 7 is not in range(1)"),
    # well-formed tables that break a groupoid law (test_groupoid_axiom_validation
    # has the composability mismatch)
    (_args(1, [0], [0], [], [[0]], [0]), "identity map must assign one morphism per object"),
    (_args(2, [0, 1], [0, 1], [0, 0], [[0, None], [None, 1]], [0, 1]),
     "identity of object 1 has wrong endpoints"),
    (_pair_with(compose_table=[[0, 0, None, None], [None, None, 0, 1],
                               [2, 3, None, None], [None, None, 2, 3]]),
     "composite (0,1) has wrong endpoints"),
    (_args(1, [0, 0], [0, 0], [0], [[1, 0], [0, 0]], [0, 1]), "composition not associative at (0,0,1)"),
    (_args(1, [0, 0], [0, 0], [0], [[0, 0], [1, 1]], [0, 1]), "left identity law fails at 1"),
    (_args(1, [0, 0], [0, 0], [0], [[0, 1], [0, 1]], [0, 1]), "right identity law fails at 1"),
    (_pair_with(inverse=[0, 1, 1, 3]), "inverse of 1 has wrong endpoints"),
    (_args(1, [0, 0], [0, 0], [0], [[0, 1], [1, 0]], [0, 0]), "g o g^-1 is not an identity at 1"),
    (_SPLIT_IDEMPOTENT, "g^-1 o g is not an identity at 2"),
])
def test_groupoid_refuses_every_malformed_or_lawless_table(args, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        S.FiniteGroupoid(**args)


def test_groupoid_star_sizes():
    gd = S.FiniteGroupoid.transitive(2, S.GroupTable.cyclic(2))
    assert gd.num_morphisms == 8
    assert gd.star_size(0) == 4 and gd.star_size(1) == 4


def test_one_object_groupoid_matches_group_algebra():
    group = S.GroupTable.cyclic(2)
    galg, gF = S.group_algebra(QQ, group)
    oalg, oF, model = S.groupoid_algebra(QQ, S.FiniteGroupoid.from_group(group))
    assert list(galg.mul_entries()) == list(oalg.mul_entries())
    # counit scaled by the star size, window rescaled accordingly
    assert oF.counit == tuple(x * 2 for x in gF.counit)
    assert oF.window.coeffs == oalg.unit  # canonical structure
    assert gF.window.coeffs == tuple(x * 2 for x in oalg.unit)


def test_pair_groupoid_is_matrix_algebra():
    alg, F, model = S.groupoid_algebra(QQ, S.FiniteGroupoid.pair(2))
    m2, _ = S.matrix_direct_sum(QQ, [2], [1])
    # relabel morphisms (x,y) -> e_xy: same structure constants up to basis order
    gd = S.FiniteGroupoid.pair(2)
    relabel = {g: 2 * gd.source[g] + gd.target[g] for g in range(4)}
    got = {(relabel[i], relabel[j], relabel[k]): c for (i, j, k, c) in alg.mul_entries()}
    expect = {(i, j, k): c for (i, j, k, c) in m2.mul_entries()}
    assert got == expect
    assert len(alg.centre_basis()) == 1


def test_groupoid_char_divides_star():
    with pytest.raises(CharDividesStarError):
        S.groupoid_algebra(GF(2), S.FiniteGroupoid.pair(2))


def test_groupoid_comultiplication_closed_form():
    gd = S.FiniteGroupoid.transitive(2, S.GroupTable.cyclic(2))
    alg, F, _ = S.groupoid_algebra(QQ, gd)
    n = gd.num_morphisms
    for g in range(n):
        got = {(j, k): v for (j, k, v) in comul(F)[g]}
        expect = {}
        w = Fraction(1, gd.star_size(gd.target[g]))
        for h in range(n):
            if gd.source[h] != gd.source[g]:
                continue
            rest = gd.compose_table[gd.inverse[h]][g]
            if rest is None:
                continue
            expect[(h, rest)] = expect.get((h, rest), Fraction(0)) + w
        assert got == {k: v for k, v in expect.items() if v}, g


@pytest.mark.parametrize("make", [
    lambda: S.FiniteGroupoid.pair(2),
    lambda: S.FiniteGroupoid.pair(3),
    lambda: S.FiniteGroupoid.transitive(2, S.GroupTable.cyclic(2)),
    lambda: S.FiniteGroupoid.from_group(S.GroupTable.symmetric(3)),
])
def test_groupoid_idempotent_matches_closed_form(make):
    gd = make()
    alg, F, _ = S.groupoid_algebra(QQ, gd)
    assert F.idempotent_matrix() == groupoid_idempotent_closed_form(QQ, gd)


# -- D-brane coloured evaluation -----------------------------------------------------------


def coloured_strip(c, x, y):
    arcs = c.coloured_arcs()
    return c.replaced(edge_colours={e: (x if i == 0 else y) for i, arc in enumerate(arcs)
                                    for e in arc})


def test_coloured_strip_blocks():
    gd = S.FiniteGroupoid.pair(2)
    alg, F, model = S.groupoid_algebra(QQ, gd)
    c = strip(1, 1)
    for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        z = S.colored_evaluate(model, F, coloured_strip(c, x, y))
        assert z.domain[0].kind == "block" and z.domain[0].dim == 1
        assert z.matrix.data == [[Fraction(1)]], (x, y)


def test_coloured_sum_reconstructs_uncoloured():
    gd = S.FiniteGroupoid.pair(2)
    alg, F, model = S.groupoid_algebra(QQ, gd)
    c = strip(1, 1)
    total = S.Matrix.zeros(QQ, alg.dim, alg.dim)
    for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        z = S.colored_evaluate(model, F, coloured_strip(c, x, y))
        idxs = model.block(x, y)
        incl = S.Matrix.zeros(QQ, alg.dim, len(idxs))
        for r, i in enumerate(idxs):
            incl.data[i][r] = QQ.one()
        total = total.add(incl @ z.matrix @ incl.transpose())
    assert total == state_sum(F, c).matrix


def test_uncoloured_complex_equals_state_sum():
    gd = S.FiniteGroupoid.transitive(2, S.GroupTable.cyclic(2))
    alg, F, model = S.groupoid_algebra(QQ, gd)
    c = strip(1, 2)
    assert S.colored_evaluate(model, F, c).equal(state_sum(F, c))


def _flat(factors, ranges):
    """Flat indices, leftmost leg most significant, of every combination of
    per-leg indices in ``ranges``."""
    out = []
    for combo in product(*ranges):
        idx = 0
        for f, i in zip(factors, combo):
            idx = idx * f.dim + i
        out.append(idx)
    return out


_UNCUT_LEGS = [  # (id, build, out_colours, in_colours)
    ("circle leg", lambda: coloured_strip(S.zipper(), 1, 1), [(1, 1)], [None]),
    ("uncoloured interval",
     lambda: S.disjoint_union(coloured_strip(strip(1, 1), 0, 1), strip(1, 1)),
     [(0, 1), None], [(0, 1), None]),
]


@pytest.mark.parametrize("field,build,out_colours,in_colours", [
    pytest.param(field, *case, id=name + suffix)
    for field, suffix in ((QQ, ""), (GF(7), " over F_7")) for name, *case in _UNCUT_LEGS])
def test_legs_without_colours_keep_their_whole_factor(field, build, out_colours, in_colours):
    """A circle leg, or an interval whose ends are uncoloured, keeps its
    factor; each interval between colours ``(x, y)`` is cut to ``block(x, y)``."""
    gd = S.FiniteGroupoid.pair(2)
    alg, F, model = S.groupoid_algebra(field, gd)
    c = build()
    z = S.colored_evaluate(model, F, c)
    arcs = c.coloured_arcs()
    full = state_sum(F, c, coloured_elements={e: model.object_idempotents[col]
                                              for ai, col in c.arc_colours().items()
                                              for e in arcs[ai]})

    def ranges(factors, colours):
        return [range(f.dim) if xy is None else model.block(*xy)
                for f, xy in zip(factors, colours)]

    rows = _flat(full.codomain, ranges(full.codomain, out_colours))
    cols = _flat(full.domain, ranges(full.domain, in_colours))
    assert z.matrix == S.Matrix.from_rows(field, [[full.matrix[r, j] for j in cols] for r in rows])
    assert [f.kind for f in z.codomain] == ["full" if xy is None else "block"
                                            for xy in out_colours]


def test_coloured_errors():
    gd = S.FiniteGroupoid.pair(2)
    alg, F, model = S.groupoid_algebra(QQ, gd)
    c = strip(1, 1)
    bad = c.replaced(edge_colours={e: 7 for e in c.coloured_edges})
    with pytest.raises(MissingColourError):
        S.colored_evaluate(model, F, bad)
    arcs = c.coloured_arcs()
    half = c.replaced(edge_colours={e: 0 for e in arcs[0]})
    with pytest.raises(IncompatibleColoursError):
        S.colored_evaluate(model, F, half)
