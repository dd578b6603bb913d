from fractions import Fraction

import pytest

import statesum as S
from statesum import tensors as T


def frac(s):
    return Fraction(s)


def _mat(field, rows):
    return S.Matrix.from_rows(field, [[field.parse(str(x)) for x in row] for row in rows])


def comul(F):
    """``Delta(e_i)`` of the structure ``F`` as rows of sorted ``(j, b, value)``,
    one row per ``i``; its laws follow from ``g(xy, z) = g(x, yz)``."""
    rows = [[] for _ in range(F.dim)]
    for (i, j, b), v in sorted(F.delta_tensor().data.items()):
        rows[i].append((j, b, v))
    return tuple(map(tuple, rows))


def window_element(F):
    """Recompute the window element ``mu o Delta o eta`` of ``F`` directly
    (always central)."""
    alg = F.algebra
    f = alg.field
    n = alg.dim
    two = [f.zero()] * (n * n)
    for (i, j, b), v in F.delta_tensor().data.items():
        if ui := alg.unit[i]:
            two[j * n + b] = f.add(two[j * n + b], f.mul(ui, v))
    out = [f.zero()] * n
    for j, b, k, cc in alg.mul_entries():
        if c := two[j * n + b]:
            out[k] = f.add(out[k], f.mul(c, cc))
    return S.Element(alg, out)


def plan(shapes, rng=None):
    """One greedy pass of the contraction planner over a network of ``(legs,
    dims)`` shapes: steps ``(a, b)``, where inputs are ``0..n-1`` and step
    ``s`` makes ``n + s``.  Given a ``random.Random``, each key is multiplied
    by ``1 + rng.random()``."""
    return T._search(T._intern(shapes)[0], rng)[0]


def groupoid_idempotent_closed_form(field, gd):
    """Conjugation average: automorphisms map to ``(1/N_[t(g)]) sum_h h o g o h^-1``
    over the ``N_[t(g)]`` morphisms ``h`` into ``t(g)``; non-automorphisms to zero.

    Summed over conjugators (with multiplicity), this is the class sum of
    ``g`` rescaled by the class size -- the normalisation that actually makes
    the map idempotent.
    """
    n = gd.num_morphisms
    m = S.Matrix.zeros(field, n, n)
    for g in range(n):
        if gd.source[g] != gd.target[g]:
            continue
        w = field.inv(field.of_int(gd.star_size(gd.target[g])))
        for h in range(n):
            if gd.target[h] == gd.target[g]:
                conj = gd.compose_table[gd.compose_table[h][g]][gd.inverse[h]]
                m.data[conj][g] = field.add(m.data[conj][g], w)
    return m


@pytest.fixture(scope="session")
def QQ():
    return S.QQ


def m2q():
    return S.matrix_direct_sum(S.QQ, [2], [1])


def catalog_structures():
    """Label -> (Algebra, FrobeniusStructure): the worked structures used by
    the identity suites.  At least two window choices per algebra."""
    out = {}
    q = S.QQ

    z2 = S.GroupTable.cyclic(2)
    alg, F = S.group_algebra(q, z2)
    out["Q[Z/2] delta"] = (alg, F)
    out["Q[Z/2] canonical"] = (alg, S.frobenius_from_window(alg, alg.unit_element()))
    z = alg.element([q.of_int(2), q.one()])  # invertible central, non-scalar window
    out["Q[Z/2] window 2e+g"] = (alg, S.frobenius_from_window(alg, z))

    z3 = S.GroupTable.cyclic(3)
    alg3, F3 = S.group_algebra(q, z3)
    out["Q[Z/3] delta"] = (alg3, F3)
    out["Q[Z/3] canonical"] = (alg3, S.frobenius_from_window(alg3, alg3.unit_element()))

    s3 = S.GroupTable.symmetric(3)
    algs3, Fs3 = S.group_algebra(q, s3)
    out["Q[S3] delta"] = (algs3, Fs3)
    out["Q[S3] canonical"] = (algs3, S.frobenius_from_window(algs3, algs3.unit_element()))

    m2, Fm2 = S.matrix_direct_sum(q, [2], [1])
    out["M2(Q) canonical"] = (m2, Fm2)
    m2b, Fm2b = S.matrix_direct_sum(q, [2], [2])  # counit = Kronecker delta
    out["M2(Q) delta-counit"] = (m2b, Fm2b)

    m23, Fm23 = S.matrix_direct_sum(q, [2, 3], [1, 1])
    out["M2+M3 canonical"] = (m23, Fm23)
    m23b, Fm23b = S.matrix_direct_sum(q, [2, 3], [1, 2])
    out["M2+M3 windows (1,2)"] = (m23b, Fm23b)

    f7 = S.GF(7)
    a7, F7 = S.group_algebra(f7, z3)
    out["F7[Z/3] delta"] = (a7, F7)
    out["F7[Z/3] canonical"] = (a7, S.frobenius_from_window(a7, a7.unit_element()))

    # matrix algebra over F_11 with counit 4*delta (window coefficient 6)
    f11 = S.GF(11)
    a11, F11 = S.matrix_direct_sum(f11, [2], [6])
    out["M2(F11) alpha=4"] = (a11, F11)
    out["M2(F11) canonical"] = (a11, S.frobenius_from_window(a11, a11.unit_element()))

    qq, Fqq = S.matrix_direct_sum(q, [1, 1], [1, 1])
    out["QxQ (1,1)"] = (qq, Fqq)
    qq2, Fqq2 = S.matrix_direct_sum(q, [1, 1], [2, 3])
    out["QxQ (2,3)"] = (qq2, Fqq2)

    galg, gF, _ = S.groupoid_algebra(q, S.FiniteGroupoid.pair(2))
    out["pair groupoid"] = (galg, gF)
    return out


@pytest.fixture(scope="session")
def structures():
    return catalog_structures()


@pytest.fixture(scope="session")
def small_structures(structures):
    """Dimension <= 4 structures: cheap enough for full generator evaluations."""
    return {k: v for k, v in structures.items() if v[0].dim <= 4}
