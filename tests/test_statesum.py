import hashlib
import heapq
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import statesum as S
from statesum.cobordisms import (
    annulus,
    builtin,
    closed_surface,
    disjoint_union,
    glue,
    grid_torus,
    open_mult,
    open_unit,
    strip,
    zipper,
)
from statesum.complexes import pachner_13, pachner_22, random_moves, shelling_split_edge
from statesum.errors import HasBlackBoundaryError, SignatureMismatchError
from statesum.evaluation import (
    _chain_data,
    _close_component,
    _join_legs,
    _triangle_data,
    build_dual_network,
    evaluate_closed,
    state_sum,
    state_sum_raw,
    state_sum_reduced,
)
from statesum.fields import GF, QQ
from statesum import tensors as T
from statesum.morphism import Morphism, full_factor, split_factor
from statesum.tensors import (
    Tensor,
    contract_pair,
    contraction_order,
    greedy_contract,
)

from conftest import plan


@pytest.fixture(scope="module")
def m2():
    return S.matrix_direct_sum(QQ, [2], [1])


@pytest.fixture(scope="module")
def z2():
    return S.group_algebra(QQ, S.GroupTable.cyclic(2))


# -- tensor engine ------------------------------------------------------------------


def test_zig_zag_pairing_contracts_to_identity(m2):
    alg, F = m2
    n = alg.dim
    g = Tensor.from_matrix_sparse(("a", "b"), F.pairing)
    gstar = Tensor.from_matrix_sparse(("b", "c"), F.pairing_inverse)
    res = contract_pair(g, gstar)
    assert res.to_matrix(["a"], ["c"]) == S.Matrix.identity(QQ, n)


def _same_tensor(got, want):
    """Equal entries and dimensions once ``got``'s legs are put in ``want``'s order."""
    if sorted(got.legs) != sorted(want.legs):
        return False
    perm = [got.legs.index(l) for l in want.legs]
    return (tuple(got.dims[p] for p in perm) == want.dims
            and {tuple(idx[p] for p in perm): v for idx, v in got.data.items()} == want.data)


def _random_fold(tensors, rng):
    """Contract with ``contract_pair`` in a seeded random order: a random pair
    sharing a leg while there is one, else a random pair."""
    rest = list(tensors)
    while len(rest) > 1:
        pairs = [(i, j) for i in range(len(rest)) for j in range(i + 1, len(rest))
                 if set(rest[i].legs) & set(rest[j].legs)]
        if not pairs:
            pairs = [(i, j) for i in range(len(rest)) for j in range(i + 1, len(rest))]
        i, j = rng.choice(pairs)
        merged = contract_pair(rest[i], rest[j])
        rest = [t for k, t in enumerate(rest) if k not in (i, j)] + [merged]
    return rest[0]


def test_contraction_order_independence(z2):
    alg, F = z2
    tensors = build_dual_network(F, builtin("closed_mult")).tensors
    base = greedy_contract(tensors)
    for seed in (1, 2, 3):
        assert _same_tensor(_random_fold(tensors, random.Random(seed)), base)


def _reference_order(shapes):
    """The greedy order by exhaustive rescoring: at every step collect the
    pairs sharing a leg that only those two hold, and take the least by
    ``(dense size of the result, smallest shared leg, pair)``; with no such
    pair, combine the two smallest by ``(dense size, id)``."""
    items = {tid: dict(zip(legs, dims)) for tid, (legs, dims) in enumerate(shapes)}
    steps = []
    while len(items) > 1:
        holders = {}
        for tid, legs in items.items():
            for l in legs:
                holders.setdefault(l, set()).add(tid)
        pairs = {tuple(sorted(h)) for h in holders.values() if len(h) == 2}

        def rank(pair):
            a, b = items[pair[0]], items[pair[1]]
            shared = a.keys() & b.keys()
            free = [d for l, d in (*a.items(), *b.items()) if l not in shared]
            return prod(free), min(shared), pair

        if pairs:
            a, b = min(pairs, key=rank)
        else:
            a, b = sorted(items, key=lambda tid: (prod(items[tid].values()), tid))[:2]
        da, db = items.pop(a), items.pop(b)
        items[len(shapes) + len(steps)] = {l: d for l, d in (*da.items(), *db.items())
                                           if (l in da) != (l in db)}
        steps.append((a, b))
    return steps


def _level_shapes(F, c):
    """The shapes of the networks ``_evaluate`` contracts for ``c`` at the
    raw, reduced and full levels."""
    net = build_dual_network(F, c)
    out = [[(t.legs, t.dims) for t in net.tensors]]
    for full in (False, True):
        tensors = list(net.tensors)
        for side, components in (("in", net.in_components), ("out", net.out_components)):
            for ci, (kind, legs) in enumerate(components):
                tensors += _close_component(F, side, ci, kind, legs, full)[0]
        out.append([(t.legs, t.dims) for t in tensors])
    return out


def test_plan_is_the_exhaustive_greedy_rule(m2):
    alg, F = m2
    suite = dict(S.generator_suite(), torus=closed_surface(1, 0),
                 genus2_window=closed_surface(2, 1))
    networks = [shapes for c in suite.values() for seed in (17, 1017, 2017)
                for shapes in _level_shapes(F, S.random_moves(c, seed=seed, n=30))]
    _, F13 = S.matrix_direct_sum(QQ, [2, 3], [1, 2])  # the benchmark surfaces
    for genus, windows in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0)):
        networks += _level_shapes(F13, closed_surface(genus, windows))[:1]
    for shapes in networks:
        assert plan(shapes) == _reference_order(shapes)
    # two components: the last steps combine tensors that share no leg
    for shapes in _level_shapes(F, disjoint_union(strip(1, 1), zipper())):
        steps = plan(shapes)
        assert steps == _reference_order(shapes)
        legs = [set(l) for l, _ in shapes]
        for a, b in steps:
            legs.append(legs[a] ^ legs[b])
        assert any(not legs[a] & legs[b] for a, b in steps)



# -- the planner on leg-name dicts, one heap pass per candidate: the reference
# the interned bit-mask planner must match step for step, random draws included


def _dict_plan(shapes, rng=None):
    """The greedy order for a network of ``(legs, dims)`` shapes: steps
    ``(a, b)``, where inputs are ``0..n-1`` and step ``s`` makes ``n + s``.

    The heap holds ``(dense size of the result, smallest shared leg, a, b)``.
    After a merge only the legs of ``a`` and ``b`` change holders, so only
    the pairs they now give (the merged tensor's) are scored; entries naming
    ``a`` or ``b`` are stale and skipped at the top.  With no pair left the
    two smallest tensors by ``(dense size, id)`` are combined.  Given a
    ``random.Random``, each size is multiplied by ``1 + rng.random()``, drawn
    for the new pairs in sorted order.
    """
    dims = [dict(zip(legs, ds)) for legs, ds in shapes]
    size = [prod(ds) for _, ds in shapes]
    holders = {}
    for tid, d in enumerate(dims):
        for l in d:
            holders.setdefault(l, set()).add(tid)
    heap = []

    def push(pairs):
        for a, b in sorted(pairs):
            shared = dims[a].keys() & dims[b].keys()
            cut = prod(dims[a][l] * dims[b][l] for l in shared)
            key = size[a] * size[b] // cut
            if rng is not None:
                key *= 1 + rng.random()
            heapq.heappush(heap, (key, min(shared), a, b))

    push({tuple(sorted(h)) for h in holders.values() if len(h) == 2})
    alive = set(range(len(dims)))
    steps = []
    while len(alive) > 1:
        while heap and not (heap[0][2] in alive and heap[0][3] in alive):
            heapq.heappop(heap)
        if heap:
            a, b = heapq.heappop(heap)[2:]
        else:
            a, b = sorted(alive, key=lambda t: (size[t], t))[:2]
        m = len(dims)
        da, db = dims[a], dims[b]
        merged = _merged(da, db)
        dims.append(merged)
        size.append(prod(merged.values()))
        alive ^= {a, b, m}
        steps.append((a, b))
        pairs = set()
        for l in da.keys() | db.keys():
            h = holders[l]
            h -= {a, b}
            if l in merged:
                h.add(m)
            if len(h) == 2:
                pairs.add(tuple(sorted(h)))
        push(pairs)
    return steps


def _merged(da, db):
    """The legs, with their dims, of the contraction of two tensors' legs."""
    return {l: d for l, d in (da | db).items() if (l in da) != (l in db)}


def _result_sizes(shapes, steps):
    """The dense size of each step's result."""
    dims = [dict(zip(legs, ds)) for legs, ds in shapes]
    for a, b in steps:
        dims.append(_merged(dims[a], dims[b]))
    return [prod(d.values()) for d in dims[len(shapes):]]


_CANDIDATES = 8


def _dict_contraction_order(shapes):
    """The cheapest by summed result sizes of ``plan``'s order and
    ``_CANDIDATES - 1`` noisy plans, the earlier on a tie."""
    rng = random.Random(0)
    candidates = [_dict_plan(shapes)] + [_dict_plan(shapes, rng) for _ in range(_CANDIDATES - 1)]
    return min(candidates, key=lambda c: sum(_result_sizes(shapes, c)))


def test_planner_matches_the_dict_planner_on_random_networks():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def networks(draw):
        """Shapes with leg dims 1-13, often 1 or 2 so that keys tie: open
        legs, legs joining two tensors (often two or more between the same
        pair), tensors with no legs, and often several components.  Leg
        names are tuples of strings, so their sorted order is not their
        creation order."""
        n = draw(st.integers(1, 10))
        names = draw(st.lists(st.tuples(st.sampled_from(["e", "f", "g"]), st.text("0123", max_size=3)),
                              max_size=16, unique=True))
        legs = [[] for _ in range(n)]
        ids = st.integers(0, n - 1)
        dims = {}
        for name in names:
            dims[name] = draw(st.sampled_from([1, 2]) | st.integers(1, 13))
            for t in draw(st.lists(ids, min_size=1, max_size=2, unique=True)):
                legs[t].append(name)
        shapes = []
        for tl in legs:
            tl = draw(st.permutations(tl))
            shapes.append((tuple(tl), tuple(dims[l] for l in tl)))
        return shapes

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(networks(), st.integers(0, 2 ** 32))
    def same_steps(shapes, seed):
        assert plan(shapes) == _dict_plan(shapes)
        ours, theirs = random.Random(seed), random.Random(seed)
        assert plan(shapes, ours) == _dict_plan(shapes, theirs)
        assert ours.random() == theirs.random()
        assert contraction_order(shapes) == _dict_contraction_order(shapes)

    same_steps()


def test_planner_refuses_a_network_that_is_not_a_graph():
    # a leg joining three tensors: pairwise contraction gave a different
    # wrong (x, z) tensor for each pairing order, never the einsum {3, 10}
    a = Tensor(QQ, ("x",), (2,), {(0,): 1, (1,): 2})
    b = Tensor(QQ, ("x", "z"), (2, 2), {(0, 0): 1, (1, 1): 3})
    c = Tensor(QQ, ("x",), (2,), {(0,): 3, (1,): 1})
    twice = Tensor(QQ, ("x", "y", "x"), (2, 2, 2), {(0, 0, 0): 1})
    # a leg of dimension 2 on one side and 3 on the other: the x = 2 entry
    # was silently dropped from a plausible ("z",) tensor
    wide = Tensor(QQ, ("x",), (3,), {(0,): 1, (2,): 5})
    # refused on a warm memo too, where unchecked [b, wide] would key as [b, a]
    greedy_contract([b, a])
    held = dict(T._orders)
    for tensors, message in (([a, b, c], "leg 'x' joins more than two tensors"),
                             ([a, twice], "leg 'x' appears twice in tensor 1"),
                             ([b, wide], "leg 'x' has dimension 3 in tensor 1 and 2 in another")):
        with pytest.raises(ValueError, match=message):
            greedy_contract(tensors)
        with pytest.raises(ValueError, match=message):
            contraction_order([(t.legs, t.dims) for t in tensors])
    assert T._orders == held


# the closed surfaces of the benchmark's surface workloads, over M2+M3
_BENCH_SURFACES = ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0))


def _surface_networks(F):
    return [build_dual_network(F, closed_surface(g, w)).tensors for g, w in _BENCH_SURFACES]


def test_contraction_order_keeps_surface_intermediates_at_six_legs():
    _, F = S.matrix_direct_sum(QQ, [2, 3], [1, 2])
    for net in _surface_networks(F):
        shapes = [(t.legs, t.dims) for t in net]
        legs = [set(l) for l, _ in shapes]
        for a, b in contraction_order(shapes):
            legs.append(legs[a] ^ legs[b])
        assert max(map(len, legs[len(shapes):])) <= 6


def test_contraction_order_keeps_moved_fuzz_intermediates_at_seven_legs():
    # test 05's moved closed complexes over Q[Z/3] delta; greedy alone built
    # 8- and 9-leg intermediates on them
    _, F = S.group_algebra(QQ, S.GroupTable.cyclic(3))
    for c in (closed_surface(1, 0), closed_surface(2, 1)):
        for seed in (17, 1017, 2017):
            shapes = [(t.legs, t.dims) for t in build_dual_network(F, random_moves(c, seed=seed, n=30)).tensors]
            legs = [set(l) for l, _ in shapes]
            for a, b in contraction_order(shapes):
                legs.append(legs[a] ^ legs[b])
            assert max(map(len, legs[len(shapes):])) <= 7, seed


def test_searched_order_gives_the_plain_order_scalars(monkeypatch):
    networks = [_surface_networks(S.matrix_direct_sum(field, [2, 3], [1, 2])[1])
                for field in (QQ, GF(10007))]
    searched = [[greedy_contract(net).scalar() for net in nets] for nets in networks]
    monkeypatch.setattr("statesum.tensors.contraction_order", plan)
    assert searched == [[greedy_contract(net).scalar() for net in nets] for nets in networks]


def test_searched_order_never_costs_more_than_plan(m2):
    # the networks of test_plan_is_the_exhaustive_greedy_rule
    _, F = m2
    suite = dict(S.generator_suite(), torus=closed_surface(1, 0),
                 genus2_window=closed_surface(2, 1))
    networks = [shapes for c in suite.values() for seed in (17, 1017, 2017)
                for shapes in _level_shapes(F, S.random_moves(c, seed=seed, n=30))]
    _, F13 = S.matrix_direct_sum(QQ, [2, 3], [1, 2])
    for genus, windows in _BENCH_SURFACES:
        networks += _level_shapes(F13, closed_surface(genus, windows))[:1]
    networks += _level_shapes(F, disjoint_union(strip(1, 1), zipper()))
    for shapes in networks:
        steps, plain = contraction_order(shapes), plan(shapes)
        assert sum(_result_sizes(shapes, steps)) <= sum(_result_sizes(shapes, plain))


_ORDER_DIGEST = """
import hashlib
import statesum as S
from statesum.cobordisms import closed_surface
from statesum.evaluation import build_dual_network
from statesum.tensors import contraction_order
def order(F, c):
    return contraction_order([(t.legs, t.dims) for t in build_dual_network(F, c).tensors])
_, F = S.matrix_direct_sum(S.QQ, [2, 3], [1, 2])
steps = [order(F, closed_surface(g, w)) for g, w in {surfaces}]
_, F3 = S.group_algebra(S.QQ, S.GroupTable.cyclic(3))  # one moved dim-3 network of test 05
steps.append(order(F3, S.random_moves(closed_surface(2, 1), seed=17, n=30)))
print(hashlib.sha1(repr(steps).encode()).hexdigest())
"""


def test_contraction_order_ignores_the_hash_seed():
    src = os.path.dirname(os.path.dirname(S.__file__))
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _ORDER_DIGEST.format(surfaces=_BENCH_SURFACES)],
                             env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert digests == ["fc69220def13c56b64988bbe7a687c6ebb6e5d7c"] * 2


# -- the memo of searched orders ----------------------------------------------------------


@pytest.fixture()
def searches(monkeypatch):
    """An empty memo, and the list of the networks searched since."""
    searched = []
    monkeypatch.setattr(T, "_orders", {})
    monkeypatch.setattr(T, "_searched_order", lambda net: searched.append(net) or _search(net))
    return searched


_search = T._searched_order


def _uncached_order(shapes):
    return _search(T._intern(shapes)[0])


def _shapes(F, c):
    return [(t.legs, t.dims) for t in build_dual_network(F, c).tensors]


def _fuzz_slice_networks():
    """The raw networks of the benchmark's Pachner fuzz slice (3 algebras x
    13 complexes), walked with the move seeds of trials 0 and 1 and with
    the held-out ones of moves seed 5."""
    a7 = S.group_algebra(GF(7), S.GroupTable.cyclic(3))[0]
    algebras = [S.group_algebra(QQ, S.GroupTable.cyclic(2))[1],
                S.group_algebra(QQ, S.GroupTable.cyclic(3))[1],
                S.frobenius_from_window(a7, a7.unit_element())]
    suite = dict(S.generator_suite(), torus=closed_surface(1, 0),
                 genus2_window=closed_surface(2, 1))
    return [_shapes(F, random_moves(c, seed=seed, n=30))
            for seed in (17, 1017, 100017, 101017) for F in algebras for c in suite.values()]


def test_memo_orders_are_the_searched_orders(searches):
    networks = _fuzz_slice_networks()
    for field in (QQ, GF(10007)):
        _, F13 = S.matrix_direct_sum(field, [2, 3], [1, 2])
        networks += [_shapes(F13, closed_surface(g, w)) for g, w in _BENCH_SURFACES]
    cold = [contraction_order(shapes) for shapes in networks]
    # each dim-3 walk recurs under the second dim-3 algebra, and each
    # surface over F_10007 repeats its shape over Q
    assert len(searches) == len(T._orders) < len(networks)
    warm = [contraction_order(shapes) for shapes in networks]
    assert len(searches) == len(T._orders)
    assert cold == warm == [_uncached_order(shapes) for shapes in networks]


def test_memo_keeps_one_entry_per_dimension(searches):
    c = random_moves(closed_surface(1, 0), seed=17, n=30)
    (_, F2), (_, F3) = (S.group_algebra(QQ, S.GroupTable.cyclic(k)) for k in (2, 3))
    assert state_sum_raw(F2, c) == state_sum_raw(F2, c)
    assert len(T._orders) == len(searches) == 1
    state_sum_raw(F3, c)
    assert len(T._orders) == len(searches) == 2


def test_memo_holds_at_most_its_bound_and_drops_the_oldest(searches, monkeypatch):
    monkeypatch.setattr(T, "_MEMO_ENTRIES", 3)
    _, F = S.group_algebra(QQ, S.GroupTable.cyclic(2))
    networks = [_shapes(F, strip(k, k)) for k in range(1, 7)]
    keys = [T._key(shapes) for shapes in networks]
    for i, shapes in enumerate(networks):
        assert contraction_order(shapes) == _uncached_order(shapes)
        assert list(T._orders) == keys[max(0, i - 2):i + 1]
    contraction_order(networks[0])  # dropped, so searched again
    assert len(searches) == 7 and list(T._orders) == keys[4:] + keys[:1]


def test_memo_hands_out_a_fresh_list(searches):
    _, F = S.group_algebra(QQ, S.GroupTable.cyclic(3))
    shapes = _shapes(F, closed_surface(2, 1))
    first = contraction_order(shapes)
    want = list(first)
    first.append((0, 0))
    first[0] = None
    second = contraction_order(shapes)
    assert second == want and second is not first
    second.clear()
    assert contraction_order(shapes) == want and len(searches) == 1


def test_a_memo_hit_neither_interns_nor_searches(monkeypatch):
    _, F = S.group_algebra(QQ, S.GroupTable.cyclic(3))
    closed = build_dual_network(F, random_moves(closed_surface(2, 1), seed=17, n=30)).tensors
    shapes = [(t.legs, t.dims) for t in closed]
    walked = random_moves(zipper(), seed=17, n=30)  # free legs: the last step writes the matrix
    order, scalar, raw = contraction_order(shapes), greedy_contract(closed).scalar(), state_sum_raw(F, walked)

    def refused(*args):
        raise AssertionError("a memo hit interned or searched its network")

    monkeypatch.setattr(T, "_intern", refused)
    monkeypatch.setattr(T, "_searched_order", refused)
    assert contraction_order(shapes) == order
    assert greedy_contract(closed).scalar() == scalar
    assert state_sum_raw(F, walked) == raw


def _brute_force(tensors, free):
    """The contraction of a network, summed over every index of every leg,
    as ``{indices of the legs free: value}``."""
    dims = {l: d for t in tensors for l, d in zip(t.legs, t.dims)}
    legs = sorted(dims)
    out = {}
    for idx in product(*(range(dims[l]) for l in legs)):
        at = dict(zip(legs, idx))
        v = prod(t.data.get(tuple(at[l] for l in t.legs), 0) for t in tensors)
        key = tuple(at[l] for l in free)
        out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def test_memo_keeps_each_tensors_leg_order(searches):
    """The memo entry carries each step's leg positions, so two networks
    that differ only in the order of one tensor's legs get entries of
    their own, and each contracts to its own value."""
    rng = random.Random(5)

    def tensor(legs):
        entries = {idx: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for idx in product(range(2), repeat=len(legs))}
        return Tensor(QQ, legs, (2,) * len(legs), {k: v for k, v in entries.items() if v})

    a, b, c = tensor(("x", "y", "u")), tensor(("y", "z", "x")), tensor(("z", "v"))
    swapped = Tensor(QQ, ("y", "x", "u"), a.dims, a.data)  # a's entries, x and y swapped
    values = []
    for first in (a, swapped):
        network = [first, b, c]
        want = _brute_force(network, ("u", "v"))
        assert _same_tensor(greedy_contract(network), Tensor(QQ, ("u", "v"), (2, 2), want))
        _, _, rows = greedy_contract(network, ("u",), ("v",))
        assert {(r, col): v for r, row in rows.items() for col, v in row.items()} == want
        values.append(want)
    assert values[0] != values[1]
    assert len(T._orders) == len(searches) == 2


def test_network_is_one_tensor_per_triangle_and_coloured_edge(m2):
    # every edge is one leg: a triangle raises the legs it owns, so no
    # pairing tensor joins two ends of an edge
    _, F = m2
    _, F13 = S.matrix_direct_sum(QQ, [2, 3], [1, 2])
    suite = S.generator_suite()
    cases = [(F, c) for c in suite.values()]
    cases += [(F13, closed_surface(g, w)) for g, w in _BENCH_SURFACES]
    cases += [(F, S.random_moves(c, seed=17, n=30)) for c in suite.values()]
    for G, c in cases:
        tensors = build_dual_network(G, c).tensors
        assert len(tensors) == len(c.triangles) + len(c.coloured_edges)
        holders = {}
        for t in tensors:
            for leg in t.legs:
                holders[leg] = holders.get(leg, 0) + 1
        assert max(holders.values()) <= 2


def test_triangle_with_one_raised_leg_is_the_structure_tensor(m2):
    alg, F = m2
    assert _triangle_data(F, (2,)) == alg.structure_tensor(("i", "j", "k")).data
    assert _triangle_data(F, ()) == F.trilinear()


def _z3_window_e_2g():
    # in Q[Z/3] the window e + 2g has a non-symmetric matrix
    alg, _ = S.group_algebra(QQ, S.GroupTable.cyclic(3))
    return alg, S.frobenius_from_window(alg, alg.element([QQ.one(), QQ.of_int(2), QQ.zero()]))


def test_window_factor_placement_independence(z2, structures):
    # the window element is central, so a^k on triangle X and a^-k on triangle
    # Y of the default network cancel wherever X and Y sit.  On a closed
    # surface every leg is an interior edge, raised by the triangle that
    # traverses it upwards (u < v): a^j acts there as W^j, and as (W^j)^T on
    # the lowered end
    c = closed_surface(1, 0)
    for alg, F in (z2, structures["Q[Z/2] window 2e+g"], _z3_window_e_2g()):
        default = evaluate_closed(F, c)
        for x, y in ((0, 7), (7, 17), (17, 0)):
            net = build_dual_network(F, c)
            k = sum(net.exponents.values())
            for tid, power in ((x, k), (y, -k)):
                t = net.tensors[tid]
                assert len(t.legs) == 3  # a triangle tensor
                leg = min(t.legs)
                a, b, cc = c.triangles[tid]
                u, v = ((a, b), (b, cc), (cc, a))[t.legs.index(leg)]
                w = F.window_power_matrix(power)
                net.tensors[tid] = t.apply_matrix(leg, w if u < v else w.transpose())
            assert greedy_contract(net.tensors).scalar() == default


def test_window_factor_acts_as_a_form_on_its_triangle():
    # in Q[Z/3] the window e + 2g has a non-symmetric matrix, so acting on the
    # triangle's form with W instead of W^T would change these values
    alg, F = _z3_window_e_2g()
    w = F.window_power_matrix(1)
    assert w.data != [list(col) for col in zip(*w.data)]
    K = F.knowledgeable()
    for genus, windows in ((1, 0), (1, 2), (2, 1)):
        assert evaluate_closed(F, closed_surface(genus, windows)) == \
            S.genus_window_scalar(K, genus, windows)
    gens = S.generator_suite()
    assert state_sum(F, gens["closed_mult"]).matrix == K.C.mu_matrix()
    assert state_sum(F, gens["cozipper"]).matrix == K.iota_star
    # a closed surface's first leg is raised (W acts on it as on a vector);
    # after a 1-3 move on triangle 0 of these, the first leg is a black
    # in-edge, which stays lowered and carries a^-1 as a form
    for name in ("closed_counit", "open_counit", "zipper", "open_comult"):
        moved = pachner_13(gens[name], 0)
        net = build_dual_network(F, moved)
        assert net.tensors[0].legs[0][0] == "in" and sum(net.exponents.values()) == 1
        assert state_sum(F, moved) == state_sum(F, gens[name]), name


@pytest.mark.parametrize("h", [2, 3])
def test_delta_and_mu_chains_split_the_boundary_projector(m2, h):
    alg, F = m2
    n = alg.dim
    delta, mu = _chain_data(F)
    ident = S.Matrix.identity(QQ, n)
    xs = [("x", 0, i, 0) for i in range(h)]
    ys = [("y", 0, i, 0) for i in range(h)]
    # im o coim = P_h1 o P_1h = P_hh
    mus, m_leg = _join_legs(F, xs, ("jm", 0), mu)
    deltas, d_leg = _join_legs(F, ys, ("jd", 0), delta)
    glue = Tensor.from_matrix_sparse((d_leg, m_leg), ident)
    assert greedy_contract(deltas + [glue] + mus).to_matrix(ys, xs) == F.p_matrix(h, h)
    # coim o im = P_1h o P_h1 = mu^(h) o Delta^(h) o a^-(h-1) = id_A
    deltas, d_leg = _join_legs(F, xs, ("jd", 0), delta)
    mus, m_leg = _join_legs(F, xs, ("jm", 0), mu)
    glue = Tensor.from_matrix_sparse((d_leg, "u"), ident)
    back = greedy_contract(deltas + [glue] + mus).to_matrix([m_leg], ["u"])
    assert back == ident


def _fold(tensors):
    """Left fold of ``contract_pair`` over the original tensors, taking next
    the first tensor that leaves the product so far with the fewest legs."""
    rest = list(tensors)
    acc = rest.pop(0)
    while rest:
        i = min(range(len(rest)), key=lambda i: len(set(acc.legs) ^ set(rest[i].legs)))
        acc = contract_pair(acc, rest.pop(i))
    return acc


def _brane_strip_network():
    gd = S.FiniteGroupoid.pair(2)
    alg, F, model = S.groupoid_algebra(QQ, gd)
    c = strip(2, 1)
    arcs = c.coloured_arcs()
    colours = {e: model.object_idempotents[i] for i, arc in enumerate(arcs) for e in arc}
    return build_dual_network(F, c, colours).tensors


def _orthogonal_idempotents_network():
    # eps(e_0 e_1 x) = 0 for every x: the contraction has no nonzero entry
    gd = S.FiniteGroupoid.pair(2)
    alg, F, model = S.groupoid_algebra(QQ, gd)
    n = alg.dim
    e0, e1 = (model.object_idempotents[x].coeffs for x in (0, 1))
    return [Tensor.vector(QQ, "a", e0), Tensor.vector(QQ, "b", e1),
            Tensor(QQ, ("a", "b", "c"), (n, n, n), F.trilinear())]


def _surface_network(field):
    alg, F = S.matrix_direct_sum(field, [2, 3], [1, 2])
    return build_dual_network(F, closed_surface(0, 2)).tensors


@pytest.mark.parametrize("network", ["surface", "brane_strip", "single", "zero"])
def test_integer_contraction_equals_fraction_fold(network):
    tensors = {
        "surface": lambda: _surface_network(QQ),
        "brane_strip": _brane_strip_network,
        "single": lambda: _brane_strip_network()[:1],
        "zero": _orthogonal_idempotents_network,
    }[network]()
    if network == "surface":  # the tensors carry different denominators
        assert len({max(v.denominator for v in t.data.values()) for t in tensors}) > 1
    before = [dict(t.data) for t in tensors]
    got = greedy_contract(tensors)
    want = _fold(tensors)
    assert _same_tensor(got, want)
    assert all(type(v) is Fraction for v in got.data.values())
    assert [t.data for t in tensors] == before  # the inputs are not rescaled in place
    if network == "zero":
        assert got.data == {} and got.legs == ("c",)


def test_prime_field_contraction_stays_in_residues():
    p = 10007
    tensors = _surface_network(S.GF(p))
    got = greedy_contract(tensors)
    assert got.data == _fold(tensors).data
    assert all(type(v) is int and 0 < v < p for v in got.data.values())


# -- contract_pair against a brute-force sum ------------------------------------------

_P = 5  # small, so that random sums often vanish mod p


def _kind_field(kind):
    return S.GF(_P) if kind == "fp" else QQ


def _random_value(kind, rng):
    if kind == "fp":
        return rng.randrange(1, _P)
    v = rng.choice([-2, -1, 1, 2])  # small, so that random sums often cancel
    return Fraction(v, rng.choice([1, 2, 3])) if kind == "fraction" else v


def _random_tensor(kind, legs, dims, rng, density):
    data = {idx: _random_value(kind, rng) for idx in product(*map(range, dims))
            if rng.random() < density}
    return Tensor(_kind_field(kind), legs, dims, data)


def _brute_force_contract(t1, t2):
    """Legs and entries of the contraction of ``t1`` and ``t2``, summed over
    every assignment of the shared legs for every assignment of the free
    ones, reduced mod p over F_p, zeros dropped."""
    dim = dict(zip(t1.legs, t1.dims)) | dict(zip(t2.legs, t2.dims))
    free = [l for l in t1.legs if l not in t2.legs] + [l for l in t2.legs if l not in t1.legs]
    shared = [l for l in t1.legs if l in t2.legs]
    out = {}
    for fidx in product(*(range(dim[l]) for l in free)):
        total = 0
        for sidx in product(*(range(dim[l]) for l in shared)):
            at = dict(zip(free, fidx)) | dict(zip(shared, sidx))
            total += (t1.data.get(tuple(at[l] for l in t1.legs), 0)
                      * t2.data.get(tuple(at[l] for l in t2.legs), 0))
        if t1.field.p is not None:
            total %= t1.field.p
        if total != 0:
            out[fidx] = total
    return tuple(free), out


def _assert_matches_brute_force(kind, t1, t2):
    got = contract_pair(t1, t2)
    legs, want = _brute_force_contract(t1, t2)
    assert got.legs == legs
    assert got.dims == tuple(dict(zip(t1.legs + t2.legs, t1.dims + t2.dims))[l] for l in legs)
    assert got.data == want
    value_type = Fraction if kind == "fraction" else int
    assert all(type(v) is value_type for v in got.data.values())
    if kind == "fp":
        assert all(0 < v < _P for v in got.data.values())


_SHAPES = {  # (legs, dims) of t1 and of t2
    "outer": ((("a", "b"), (2, 3)), (("c",), (3,))),
    "one_shared": ((("a", "s"), (3, 2)), (("s", "c"), (2, 3))),
    "several_shared": ((("a", "x", "s", "t"), (2, 2, 3, 2)), (("t", "y", "s"), (2, 3, 3))),
    "all_shared": ((("s", "t", "u"), (2, 3, 2)), (("u", "s", "t"), (2, 2, 3))),
    "zero_leg_left": (((), ()), (("a", "b"), (2, 3))),
    "zero_leg_right": ((("a", "b"), (2, 3)), ((), ())),
    "zero_leg_both": (((), ()), ((), ())),
}


@pytest.mark.parametrize("kind", ["fraction", "int", "fp"])
@pytest.mark.parametrize("shape", list(_SHAPES))
def test_contract_pair_matches_brute_force(kind, shape):
    (legs1, dims1), (legs2, dims2) = _SHAPES[shape]
    rng = random.Random(f"{kind}/{shape}")
    for density in (0.0, 0.3, 0.7, 1.0):  # 0.0: empty data on both sides
        for _ in range(6):
            t1 = _random_tensor(kind, legs1, dims1, rng, density)
            t2 = _random_tensor(kind, legs2, dims2, rng, density)
            _assert_matches_brute_force(kind, t1, t2)
            _assert_matches_brute_force(kind, t2, t1)
            empty = Tensor(t1.field, legs1, dims1, {})
            _assert_matches_brute_force(kind, empty, t2)


@pytest.mark.parametrize("kind", ["fraction", "fp"])
def test_apply_matrix_matches_its_definition(kind):
    # T'[.. j ..] = sum_i M[j][i] T[.. i ..] on each leg, with a non-square M
    rng = random.Random(f"apply/{kind}")
    field = _kind_field(kind)
    t = _random_tensor(kind, ("a", "b", "c"), (2, 3, 2), rng, 0.6)
    for pos, leg in enumerate(t.legs):
        m = S.Matrix(field, 4, t.dims[pos], [[_random_value(kind, rng) if rng.random() < 0.6 else 0
                                              for _ in range(t.dims[pos])] for _ in range(4)])
        want = {}
        for idx in product(*(range(d) for d in t.dims[:pos] + (4,) + t.dims[pos + 1:])):
            total = sum(m.data[idx[pos]][i] * t.data.get(idx[:pos] + (i,) + idx[pos + 1:], 0)
                        for i in range(t.dims[pos]))
            if field.p is not None:
                total %= field.p
            if total:
                want[idx] = total
        got = t.apply_matrix(leg, m)
        assert (got.legs, got.dims) == (t.legs, t.dims[:pos] + (4,) + t.dims[pos + 1:])
        assert got.data == want
        # every value is of the field's type: over Q a Fraction, each sum
        # starting at its first product rather than at the int 0
        assert {type(v) for v in got.data.values()} == {type(field.one())}


@pytest.mark.parametrize("kind", ["fraction", "int", "fp"])
def test_contract_pair_drops_sums_that_cancel(kind):
    field = _kind_field(kind)
    one, minus_one = {"fraction": (Fraction(1), Fraction(-1)), "int": (1, -1),
                      "fp": (1, _P - 1)}[kind]
    # row a=0, column b=0 sums 1*1 + 1*(-1): 0 over Q, p = 0 mod p over F_p
    t1 = Tensor(field, ("a", "s"), (2, 2), {(0, 0): one, (0, 1): one, (1, 0): one})
    t2 = Tensor(field, ("s", "b"), (2, 2), {(0, 0): one, (1, 0): minus_one, (0, 1): one})
    assert contract_pair(t1, t2).data == {(0, 1): one, (1, 0): one, (1, 1): one}
    _assert_matches_brute_force(kind, t1, t2)
    assert _assert_fused_read_off([t1, t2], ["a"], ["b"]) == (2, 2, {0: {1: 1}, 1: {0: 1, 1: 1}})
    # all legs shared: a scalar sum that cancels leaves no entry at all
    v1 = Tensor(field, ("s",), (2,), {(0,): one, (1,): one})
    v2 = Tensor(field, ("s",), (2,), {(0,): one, (1,): minus_one})
    assert contract_pair(v1, v2).data == {}
    _assert_matches_brute_force(kind, v1, v2)
    assert _assert_fused_read_off([v1, v2], [], []) == (1, 1, {})


# -- the read-off written by the last contraction step --------------------------------

_FUSED = {  # tensor (legs, dims), then the row legs and the column legs
    # the final operands each hold a row leg and a column leg, and the row
    # legs name the second operand's leg first
    "split": ([(("a", "s", "b"), (2, 3, 2)), (("s", "c", "d"), (3, 3, 2))],
              ["c", "a"], ["d", "b"]),
    "all_rows": ([(("a", "s", "b"), (2, 3, 2)), (("s", "c", "d"), (3, 3, 2))],
                 ["a", "b", "c", "d"], []),
    "all_cols": ([(("a", "s", "b"), (2, 3, 2)), (("s", "c", "d"), (3, 3, 2))],
                 [], ["d", "a", "c", "b"]),
    "scalar": ([(("s", "t"), (2, 3)), (("t", "s"), (3, 2))], [], []),
    "outer": ([(("a",), (3,)), (("b",), (2,))], ["b"], ["a"]),
    "chain": ([(("a", "x"), (2, 3)), (("x", "b", "y"), (3, 2, 2)), (("y", "z"), (2, 3)),
               (("z", "c"), (3, 2))], ["b"], ["c", "a"]),
    "single": ([(("a", "b", "c"), (2, 3, 2))], ["c", "a"], ["b"]),
}


def _typed(read_off):
    rows, cols, nonzeros = read_off
    return rows, cols, [(r, [(c, type(v), v) for c, v in row.items()])
                        for r, row in nonzeros.items()]


def _assert_fused_read_off(tensors, row_legs, col_legs):
    got = greedy_contract(tensors, row_legs, col_legs)
    want = greedy_contract(tensors).read_off(row_legs, col_legs)
    assert _typed(got) == _typed(want)  # values, value types and insertion order
    return got


@pytest.mark.parametrize("kind", ["fraction", "int", "fp"])
@pytest.mark.parametrize("network", list(_FUSED))
def test_fused_read_off_equals_read_off_of_the_contraction(kind, network):
    shapes, row_legs, col_legs = _FUSED[network]
    rng = random.Random(f"fused/{kind}/{network}")
    value_type = int if kind == "fp" else Fraction
    seen = set()
    for density in (0.0, 0.4, 1.0):  # 0.0: every input empty, so is the result
        for _ in range(5):
            tensors = [_random_tensor(kind, legs, dims, rng, density) for legs, dims in shapes]
            got = _assert_fused_read_off(tensors, row_legs, col_legs)
            values = [v for row in got[2].values() for v in row.values()]
            assert all(type(v) is value_type for v in values)
            if kind == "fp":
                assert all(0 < v < _P for v in values)
            seen.update(v for t in tensors for v in t.data.values())
    if kind == "fraction":  # the integer contraction is divided by some D != 1
        assert any(v.denominator != 1 for v in seen)


# -- pinned results -------------------------------------------------------------------

# SHA-1 over the exact results (the domain, codomain and matrix entries, as
# reprs) of three structures, one over F_7, on the generator suite and
# closed_surface(2, 1), each unmoved and after random_moves(seed=17, n=30), at
# the raw, reduced and full levels: 216 evaluations.  Computed at the parent
# of the row-accumulating contraction kernel, with the earlier kernel that
# built and hashed an output index tuple on every multiply-add.
STATE_SUM_RESULTS_SHA1 = "889a1aa33d353f8a34d9a942862f5309574c7f76"


def test_state_sum_results_are_pinned(structures):
    suite = dict(S.generator_suite(), genus2_window=closed_surface(2, 1))
    complexes = [m for c in suite.values() for m in (c, random_moves(c, seed=17, n=30))]
    digest = hashlib.sha1()
    for label in ("Q[Z/2] window 2e+g", "QxQ (2,3)", "F7[Z/3] delta"):
        _, F = structures[label]
        for c in complexes:
            for level in (state_sum_raw, state_sum_reduced, state_sum):
                z = level(F, c)
                digest.update(repr((z.domain, z.codomain, z.matrix.data)).encode())
    assert digest.hexdigest() == STATE_SUM_RESULTS_SHA1


# -- cylinders -----------------------------------------------------------------------


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_strip_equals_boundary_projector(m2, k, l):
    alg, F = m2
    z = state_sum_raw(F, strip(k, l))
    assert z.matrix == F.p_matrix(k, l)


@pytest.mark.parametrize("k,l", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_annulus_equals_closed_projector(m2, k, l):
    alg, F = m2
    z = state_sum_raw(F, annulus(k, l))
    assert z.matrix == F.q_matrix(k, l)


def test_degenerate_circle_network_matches_closed_projector(z2):
    """The two-vertex cylinder whose circles are single loop edges (not
    representable as a simplicial complex) still evaluates to the h=1 closed
    projector when its dual network is laid out by hand."""
    alg, F = z2
    n = alg.dim
    g3 = F.trilinear()
    t1 = Tensor(QQ, ("in", "side0", "diag0"), (n, n, n), g3)
    t2 = Tensor(QQ, ("diag1", "top", "side1"), (n, n, n), g3)
    conns = [Tensor.from_matrix_sparse(legs, F.pairing_inverse)
             for legs in (("side0", "side1"), ("diag0", "diag1"), ("top", "out"))]
    res = greedy_contract([t1, t2] + conns)
    m = res.apply_matrix("out", F.window_power_matrix(-1)).to_matrix(["out"], ["in"])
    assert m == F.idempotent_matrix()


# -- generator evaluations --------------------------------------------------------------


def test_raw_open_generators(m2):
    alg, F = m2
    assert state_sum_raw(F, open_mult()).matrix == F.mu_matrix()
    assert state_sum_raw(F, builtin("open_comult")).matrix == F.delta_matrix()
    assert state_sum_raw(F, open_unit()).matrix == F.eta_matrix()
    assert state_sum_raw(F, builtin("open_counit")).matrix == F.eps_matrix()


def test_raw_closed_mult_is_projected_multiplication(z2):
    alg, F = z2
    n = alg.dim
    p = F.idempotent_matrix()
    zt = state_sum_raw(F, builtin("closed_mult")).matrix
    expect = F.q_matrix(3, 1) @ F.window_power_matrix(1) @ F.mu_matrix() \
        @ p.kron(p) @ F.q_matrix(1, 3).kron(F.q_matrix(1, 3))
    assert zt == expect


def test_reduced_strip_is_identity(m2):
    alg, F = m2
    z = state_sum_reduced(F, strip(1, 1))
    assert z.matrix == S.Matrix.identity(QQ, alg.dim)
    z2_ = state_sum_reduced(F, strip(2, 2))
    assert z2_.matrix == S.Matrix.identity(QQ, alg.dim)


def test_reduced_annulus_is_identity_on_split_image(m2):
    alg, F = m2
    z = state_sum_reduced(F, annulus(1, 1))
    d = F.split_p()[0].cols
    assert z.matrix == S.Matrix.identity(QQ, d)
    assert z.domain[0].kind == "split"


def test_full_generator_suite(small_structures):
    for label, (alg, F) in small_structures.items():
        K = F.knowledgeable()
        gens = S.generator_suite()
        checks = {
            "open_mult": F.mu_matrix(),
            "open_comult": F.delta_matrix(),
            "open_unit": F.eta_matrix(),
            "open_counit": F.eps_matrix(),
            "closed_mult": K.C.mu_matrix(),
            "closed_comult": K.C.delta_matrix(),
            "closed_unit": K.C.eta_matrix(),
            "closed_counit": K.C.eps_matrix(),
            "zipper": K.iota,
            "cozipper": K.iota_star,
            "open_identity": S.Matrix.identity(alg.field, alg.dim),
        }
        for name, expect in checks.items():
            assert state_sum(F, gens[name]).matrix == expect, (label, name)


def _dense_state_sum(F, c):
    """``state_sum`` as a dense composite: the raw morphism between the pivot
    splittings of ``P_hh``/``Q_hh`` and the boundary isomorphisms."""
    one = S.Matrix.identity(F.field, 1)
    ins, outs, dom, cod = one, one, [], []
    for comp in c.black_in:
        h = len(comp.edge_keys())
        if comp.kind == "interval":
            (im, _), (xi, _) = F.split_pkk(h), F.phi_matrices(h)
            dom.append(full_factor(F.dim))
        else:
            (im, _), (xi, _) = F.split_qkk(h), F.circle_boundary_matrices(h)
            dom.append(split_factor(xi.cols))
        ins = ins.kron(im @ xi)
    for comp in c.black_out:
        h = len(comp.edge_keys())
        if comp.kind == "interval":
            (_, coim), (_, xi_inv) = F.split_pkk(h), F.phi_matrices(h)
            cod.append(full_factor(F.dim))
        else:
            (_, coim), (_, xi_inv) = F.split_qkk(h), F.circle_boundary_matrices(h)
            cod.append(split_factor(xi_inv.rows))
        outs = outs.kron(xi_inv @ coim)
    raw = state_sum_raw(F, c).matrix
    return Morphism(F.field, tuple(dom), tuple(cod), outs @ raw @ ins)


def test_state_sum_matches_dense_splitting_composite(structures):
    complexes = dict(S.generator_suite(), strip23=strip(2, 3), annulus33=annulus(3, 3),
                     zipper32=zipper(3, 2))
    for label in ("Q[Z/2] window 2e+g", "F7[Z/3] delta", "M2(F11) alpha=4", "pair groupoid"):
        alg, F = structures[label]
        for name, c in complexes.items():
            assert state_sum(F, c) == _dense_state_sum(F, c), (label, name)


@pytest.mark.parametrize("field", [QQ, S.GF(10007)], ids=["Q", "F10007"])
def test_full_state_sum_on_six_edge_boundaries(field):
    # a dense splitting of P_66 would be 13^6 x 13^6
    alg, F = S.matrix_direct_sum(field, [2, 3], [1, 2])
    assert state_sum(F, strip(6, 6)) == Morphism.identity(field, (full_factor(alg.dim),))
    d = F.split_p()[0].cols
    assert state_sum(F, annulus(6, 6)) == Morphism.identity(field, (split_factor(d),))


def test_full_differs_from_reduced_by_closed_window_on_circles(structures):
    alg, F = structures["Q[Z/2] window 2e+g"]
    one = S.Matrix.identity(QQ, 1)
    for name, c in S.generator_suite().items():
        ins, outs = one, one
        for comp in c.black_in:
            ins = ins.kron(F.closed_window_matrix(-1) if comp.kind == "circle"
                           else S.Matrix.identity(QQ, alg.dim))
        for comp in c.black_out:
            outs = outs.kron(F.closed_window_matrix(1) if comp.kind == "circle"
                             else S.Matrix.identity(QQ, alg.dim))
        z = state_sum_reduced(F, c)
        assert state_sum(F, c) == Morphism(QQ, z.domain, z.codomain, outs @ z.matrix @ ins), name


def test_full_mode_signatures(z2):
    alg, F = z2
    z = state_sum(F, zipper())
    assert [f.kind for f in z.domain] == ["split"]
    assert [f.kind for f in z.codomain] == ["full"]


def test_full_strip_independent_of_boundary_counts(m2):
    alg, F = m2
    base = state_sum(F, strip(1, 1)).matrix
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            assert state_sum(F, strip(k, l)).matrix == base


def test_full_annulus_independent_and_rotation_invariant(z2):
    alg, F = z2
    base = state_sum(F, annulus(3, 3)).matrix
    for k in (3, 4, 5):
        for l in (3, 4, 5):
            assert state_sum(F, annulus(k, l)).matrix == base
    for side in ("in", "out"):
        for steps in (1, 2):
            rot = S.rotate_circle(annulus(3, 4), side, 0, steps)
            assert state_sum(F, rot).matrix == base


# -- closed surfaces ----------------------------------------------------------------------


def test_closed_surface_values(m2):
    alg, F = m2
    assert evaluate_closed(F, closed_surface(0, 0)) == Fraction(4)
    assert evaluate_closed(F, grid_torus()) == Fraction(1)


def test_torus_scalar_group_algebra(z2):
    alg, F = z2
    assert evaluate_closed(F, grid_torus()) == Fraction(2)


def test_genus_two_group_algebra(z2):
    alg, F = z2
    assert evaluate_closed(F, closed_surface(2, 0)) == Fraction(8)


def test_empty_complex_evaluates_to_one(m2):
    # the empty cobordism has an empty network, whose product is the scalar 1
    alg, F = m2
    empty = S.OpenClosedComplex(0, [], [], [], [])
    assert evaluate_closed(F, empty) == Fraction(1)
    for fn in (state_sum_raw, state_sum_reduced, state_sum):
        assert fn(F, empty) == Morphism.identity(QQ, ())


def test_evaluate_closed_rejects_boundary(m2):
    alg, F = m2
    with pytest.raises(HasBlackBoundaryError):
        evaluate_closed(F, strip(1, 1))


def test_state_sum_on_closed_surface_matches_evaluate(z2):
    alg, F = z2
    z = state_sum(F, grid_torus())
    assert z.domain == () and z.codomain == ()
    assert z.scalar_value() == evaluate_closed(F, grid_torus())


# -- move invariance (spot checks; the fuzz acceptance is the full version) ------------------


@pytest.mark.parametrize("name,params", [
    ("strip", (1, 1)), ("open_mult", ()), ("annulus", (3, 3)), ("closed_mult", ()),
])
def test_moves_leave_raw_state_sum_unchanged(z2, name, params):
    alg, F = z2
    c = builtin(name, *params)
    base = state_sum_raw(F, c)
    for seed in range(3):
        moved = S.random_moves(c, seed=seed, n=25)
        assert state_sum_raw(F, moved).equal(base), (name, seed)


# -- gluing and monoidality ------------------------------------------------------------------


def test_glued_strips_compose(m2):
    alg, F = m2
    z1 = state_sum_raw(F, strip(1, 1))
    g = glue(strip(1, 1), strip(1, 1))
    assert z1.compose(z1).equal(state_sum_raw(F, g))


def test_glued_pants_compose(z2):
    alg, F = z2
    up, lo = builtin("closed_comult"), builtin("closed_mult")
    zg = state_sum_raw(F, glue(up, lo))
    assert state_sum_raw(F, lo).compose(state_sum_raw(F, up)).equal(zg)
    # and the full-mode value of the glued handle is the genus-one operator
    K = F.knowledgeable()
    assert state_sum(F, glue(up, lo)).matrix == K.C.mu_matrix() @ K.C.delta_matrix()


def test_glue_open_pants_after_edge_flip(m2):
    alg, F = m2
    up = builtin("open_comult")
    lo = builtin("open_mult")
    # the two hexagons share the coloured vertex pair {3,4}; split and flip it
    # away on the lower copy first (both moves preserve the raw state sum)
    lo2 = shelling_split_edge(lo, (3, 4))
    lo2 = pachner_22(lo2, (3, 4))
    assert state_sum_raw(F, lo2).equal(state_sum_raw(F, lo))
    g = glue(up, lo2)
    zg = state_sum_raw(F, g)
    assert state_sum_raw(F, lo).compose(state_sum_raw(F, up)).equal(zg)
    # mu o Delta is multiplication by the window element
    assert zg.matrix == F.window_power_matrix(1)


def test_tensor_of_pieces_is_disjoint_union(m2):
    alg, F = m2
    za = state_sum_raw(F, strip(1, 1))
    zb = state_sum_raw(F, open_unit())
    zu = state_sum_raw(F, disjoint_union(strip(1, 1), open_unit()))
    assert za.tensor(zb).equal(zu)


def test_unit_into_multiplication(m2):
    alg, F = m2
    upper = disjoint_union(open_unit(), strip(1, 1))
    g = glue(upper, open_mult())
    z = state_sum_raw(F, g)
    expect = F.mu_matrix() @ F.eta_matrix().kron(S.Matrix.identity(QQ, alg.dim))
    assert z.matrix == expect


def test_compose_signature_mismatch():
    f = QQ
    a = Morphism.identity(f, (full_factor(2),))
    b = Morphism.identity(f, (full_factor(3),))
    with pytest.raises(SignatureMismatchError):
        a.compose(b)


def test_morphism_equal_reflexive(m2):
    alg, F = m2
    z = state_sum_raw(F, strip(1, 1))
    assert z.equal(z)
