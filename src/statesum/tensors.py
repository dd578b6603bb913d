"""Sparse exact tensors and deterministic greedy contraction.

Tensors carry named legs; contraction matches leg names, so the permutation
bookkeeping of a tensor network never becomes an explicit matrix.  Data is a
dict from index tuples to nonzero field values: the structure tensors of the
state sum (the trilinear form with raised legs, units, the boundary chains)
are very sparse and stay sparse under contraction, which is what keeps exact
evaluation at dimension ~15 affordable.

Over Q a network is contracted over Python ints, not ``Fraction``s.  A
contraction is multilinear: every entry of the result is a sum of products
taking one entry from each tensor.  Scaling each tensor by the lcm ``L_t`` of
its denominators therefore scales every entry of the result by
``D = prod L_t``, so the integer contraction divided once by ``D`` is the
rational one, exactly; the ``Fraction``s it yields are canonical and hence
identical to those of a ``Fraction`` contraction.

``contract_pair`` is the row-by-row sparse product of Gustavson (ACM TOMS
4(3), 1978), with the free legs of the first tensor as rows and those of the
second as columns.  The second tensor is indexed by its shared legs, and each
of its distinct free parts is interned once as a small int, the column id.
The first tensor's entries are grouped by their free part, the output row.
Each row sums its products in a dict keyed by column id, so a multiply-add
builds and hashes no tuple; each sum is then reduced once (mod ``p`` over
F_p, a zero test over Q), and only a nonzero one pays for its output index
tuple.  One code path serves the integers of a Q network or of the
associativity check, residues mod ``p`` and direct ``Fraction`` calls; the
last are the products, unit checks and derived structure maps of ``algebra``
and ``frobenius``, each a contraction of the structure tensor, and every
product of two matrices: ``Matrix`` ``@``, ``mul_vec`` and ``kron``, and
``Morphism.tensor``.  Each of those reads its two operands as two-leg
tensors; a Kronecker or tensor product shares no leg, so each of its sums
has one term.

A state sum or a composite is wanted as a sparse matrix, ``Tensor.read_off``'s
``{row: {col: value}}``, not as a tensor.  Given its row and column legs,
``greedy_contract`` has the last step write that matrix itself
(``_contract_read_off``).  Each leg has a fixed place value in the row or the
column number, so each output row of the first operand and each column id of
the second gets its share of both numbers once, and each nonzero adds the two
shares.  The division by ``D`` over Q and the reduction mod ``p`` over F_p
happen in the same loop.  No output index tuple is built, and the nonzeros
come out in ``read_off``'s order.

A network is a graph, as the dual of a triangulation is: each leg joins at
most two tensors, and at most once each; a leg is free if one tensor holds
it.  ``_intern`` refuses a leg held by three tensors, or named twice in one,
with ``ValueError``.  It refuses a leg whose two tensors give it different
dimensions too: a contraction pairs index ``i`` of one with index ``i`` of
the other, so the entries past the smaller dimension would be dropped.
Every product refuses two tensors over different fields (``_row_sums``).
``Tensor.apply_matrix`` is a contraction too: the matrix becomes a two-leg
tensor (``Tensor.from_matrix_sparse``, over the matrix's field and with its
shape), and ``contract_pair`` acts with it.

Contraction is planned on shapes alone, then executed.  The plan is greedy
on the *dense* size of the result: of the pairs sharing a leg, it takes the
smallest result, ties broken by the smallest shared leg, then creation
order.  A heap keyed by exactly that holds the candidates; each merge scores
only the merged tensor's new pairs, and entries naming a merged tensor are
dropped when they reach the top, so there is no rescan of every pair per
step.  The planner interns a network once: each leg is one bit, numbered in
sorted leg order, so a tensor is an int mask, the legs two tensors share are
``ma & mb`` and the smallest shared leg is the lowest set bit; a result's
dense size is the product of the two sizes over ``d * d`` for each shared
leg of dim ``d``.  Each tensor also carries the mask of its partners, the
tensors it shares a leg with; a merged tensor's partners are those of its
two inputs, so a merge visits its neighbours, not its legs.  The initial
pairs and their keys are computed once too, and every greedy pass starts
from that one list.

One greedy pass can still go badly wide: on dim-13 closed surfaces it builds
8- and 9-leg intermediates (13^9 dense cells) where 6-leg orders exist, and
on moved dim-3 complexes 8- and 9-leg ones where 7-leg orders exist.  So for
every network ``contraction_order`` samples seven more greedy plans whose
keys are scaled by ``1 + rng.random()`` and keeps the candidate with the
smallest sum of result dense sizes, the earlier on a tie (Gray & Kourtis,
arXiv:2002.01935).  The noise comes from ``random.Random(0)`` and is drawn
for each batch of new pairs in sorted order, never in the hash order of
their leg names, so the order is the same on every run.  Each pass adds up
its result sizes as it plans.  No candidate is cut short once its running
sum passes the best one: a pruned pass would draw fewer numbers, so every
later candidate, and with it the chosen order, would change.  The search
pays for itself on small networks too: over the benchmark's Pachner fuzz
slice (dims 2 and 3) it cuts the multiply-adds to a quarter and the
contraction time to a third, for 0.07 s more planning (see the README).
Since a network is a graph, any order yields the same result, by
multilinearity: over Q the same integers, hence the same canonical
``Fraction``s, and over F_p the same residues.

The eight passes cost as much as the contraction they order, and one
triangulation is evaluated against many Frobenius structures, so
``contraction_order`` searches each network once per process.  Its memo is
keyed by the interned network: the tensor count, the two tensors holding
each leg (the leg masks read leg by leg) and the rank of each leg's
dimension among the network's distinct dimensions, packed as one ``str``,
a code point each, and the distinct dimensions as a tuple, since a
dimension has no bound.  That is all the search reads, so a hit returns the
order a search would, and networks that differ only in their leg names
share an entry.  The network is interned on every call, so a malformed one
is refused on a hit too.  The memo holds the ``_MEMO_ENTRIES`` (1024) most
recently added networks and drops the oldest; an entry of the Pachner fuzz
slice, its steps packed as one ``str`` too, takes about 450 bytes.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import chain
from math import lcm, prod
from operator import itemgetter, mul

from .linalg import Matrix

_SPARE = object()  # apply_matrix's name for the leg it writes, equal to no other leg


class Tensor:
    __slots__ = ("field", "legs", "dims", "data")

    def __init__(self, field, legs, dims, data):
        self.field = field
        self.legs = tuple(legs)
        self.dims = tuple(dims)
        self.data = data  # dict: index tuple -> nonzero value

    @classmethod
    def from_rows(cls, field, legs, dims, rows):
        """The two-leg tensor with the matrix entries ``{row: {col: value}}``."""
        return cls(field, legs, dims,
                   {(i, j): v for i, row in rows.items() for j, v in row.items()})

    @classmethod
    def from_matrix_sparse(cls, legs, matrix: Matrix):
        """The two-leg tensor of a matrix, over its field and with its shape."""
        return cls.from_rows(matrix.field, legs, (matrix.rows, matrix.cols), matrix.nonzero_rows())

    @classmethod
    def vector(cls, field, leg, coeffs):
        return cls(field, (leg,), (len(coeffs),), {(i,): v for i, v in enumerate(coeffs) if v != 0})

    def scalar(self):
        if self.legs:
            raise ValueError("tensor still has open legs")
        return self.data.get((), self.field.zero())

    def apply_matrix(self, leg, matrix: Matrix) -> "Tensor":
        """Act with a matrix on one leg: ``T'[.. j ..] = sum_i M[j][i] T[.. i ..]``,
        the contraction of ``leg`` with the matrix's column leg."""
        pos = self.legs.index(leg)
        m = Tensor.from_matrix_sparse((_SPARE, leg), matrix)
        t = contract_pair(self, m)  # the new leg comes last: move it back to ``pos``
        data = {k[:pos] + k[-1:] + k[pos:-1]: v for k, v in t.data.items()}
        dims = self.dims[:pos] + (matrix.rows,) + self.dims[pos + 1:]
        return Tensor(self.field, self.legs, dims, data)

    def read_off(self, row_legs, col_legs):
        """``(rows, cols, nonzeros)``: the tensor as a sparse matrix with rows
        indexed by ``row_legs`` and columns by ``col_legs``, the leftmost leg
        of each group the most significant; ``nonzeros`` is
        ``{row: {col: value}}`` over the nonzero rows."""
        rpos = [self.legs.index(l) for l in row_legs]
        cpos = [self.legs.index(l) for l in col_legs]
        rdims = [self.dims[p] for p in rpos]
        cdims = [self.dims[p] for p in cpos]
        rget, cget = _getter(rpos), _getter(cpos)
        rstr, cstr = _strides(rdims), _strides(cdims)
        nonzeros = {}
        col_ids = {}  # every row keys a column by the same int object
        for idx, v in self.data.items():
            r = sum(map(mul, rstr, rget(idx)))
            row = nonzeros.get(r)
            if row is None:
                nonzeros[r] = row = {}
            c = sum(map(mul, cstr, cget(idx)))
            row[col_ids.setdefault(c, c)] = v
        return prod(rdims), prod(cdims), nonzeros

    def to_matrix(self, row_legs, col_legs) -> Matrix:
        """The dense matrix of :meth:`read_off`."""
        return Matrix.from_nonzero_rows(self.field, *self.read_off(row_legs, col_legs))

    def __repr__(self):
        return f"Tensor(legs={list(self.legs)}, nnz={len(self.data)})"


def _strides(dims):
    s = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        s[i] = s[i + 1] * dims[i + 1]
    return s


def _getter(positions):
    """``idx -> tuple(idx[p] for p in positions)`` as one C call: for one
    position ``itemgetter(p)`` returns a bare value and ``itemgetter()``
    raises, so those two cases take a slice instead."""
    if len(positions) > 1:
        return itemgetter(*positions)
    p = positions[0] if positions else 0
    return itemgetter(slice(p, p + len(positions)))


def _row_sums(t1, t2):
    """The row-by-row product of two tensors (see the module docstring).

    ``t2``'s entries are bucketed by shared key as ``(column id, value)`` and
    ``t1``'s grouped by output row.  Returns the positions of ``t1``'s and
    ``t2``'s free legs, ``t2``'s free parts by column id, and an iterator over
    the output rows as ``(t1's free part, {column id: sum})``, in order of
    first appearance, with the sums unreduced.  Tensors over different
    fields are refused with ``ValueError``.
    """
    if t1.field != t2.field:
        raise ValueError(f"cannot multiply a tensor over {t1.field} by one over {t2.field}")
    legs2 = set(t2.legs)
    shared = [l for l in t1.legs if l in legs2]
    sset = set(shared)
    keep1 = [i for i, l in enumerate(t1.legs) if l not in sset]
    keep2 = [i for i, l in enumerate(t2.legs) if l not in sset]
    shared1 = _getter([t1.legs.index(l) for l in shared])
    shared2 = _getter([t2.legs.index(l) for l in shared])
    free1, free2 = _getter(keep1), _getter(keep2)

    cols = {}  # free part of a t2 index -> its column id
    buckets = {}  # shared key -> [(column id, t2 value)]
    for idx, v in t2.data.items():
        j = cols.setdefault(free2(idx), len(cols))
        buckets.setdefault(shared2(idx), []).append((j, v))
    rows = {}  # free part of a t1 index -> [(t1 value, its bucket)]
    for idx, v in t1.data.items():
        hits = buckets.get(shared1(idx))
        if hits:
            rows.setdefault(free1(idx), []).append((v, hits))

    def sums():
        # each sum starts at its first product, not at the int 0, so a
        # Fraction sum never goes through Fraction.__radd__
        for base, terms in rows.items():
            v, hits = terms[0]
            acc = {j: v * v2 for j, v2 in hits}
            for v, hits in terms[1:]:
                for j, v2 in hits:
                    if j in acc:
                        acc[j] += v * v2
                    else:
                        acc[j] = v * v2
            yield base, acc

    return keep1, keep2, list(cols), sums()


def contract_pair(t1: Tensor, t2: Tensor) -> Tensor:
    """Contract all legs shared by name between two tensors; the result's
    legs are ``t1``'s free legs, then ``t2``'s, each in their own order.

    Row by row (see ``_row_sums``); each sum is reduced once, and only a
    nonzero one pays for its output index tuple.
    """
    keep1, keep2, col, rows = _row_sums(t1, t2)
    p = t1.field.p
    data = {}
    for base, acc in rows:
        if p is None:
            for j, s in acc.items():
                if s:
                    data[base + col[j]] = s
        else:
            for j, s in acc.items():
                if r := s % p:
                    data[base + col[j]] = r
    legs = tuple(t1.legs[i] for i in keep1) + tuple(t2.legs[i] for i in keep2)
    dims = tuple(t1.dims[i] for i in keep1) + tuple(t2.dims[i] for i in keep2)
    return Tensor(t1.field, legs, dims, data)


def _contract_read_off(t1, t2, row_legs, col_legs, D):
    """``contract_pair(t1, t2).read_off(row_legs, col_legs)``, written by the
    contraction itself (see the module docstring).  Over Q the integer sums
    are divided by ``D``, one ``Fraction`` per distinct value; over F_p they
    are reduced mod ``p``."""
    dim = dict(zip(t1.legs, t1.dims))
    dim.update(zip(t2.legs, t2.dims))
    rdims, cdims = [dim[l] for l in row_legs], [dim[l] for l in col_legs]
    rplace = dict(zip(row_legs, _strides(rdims)))
    cplace = dict(zip(col_legs, _strides(cdims)))
    keep1, keep2, col, rows = _row_sums(t1, t2)
    r1 = [rplace.get(t1.legs[i], 0) for i in keep1]
    c1 = [cplace.get(t1.legs[i], 0) for i in keep1]
    rp2 = [rplace.get(t2.legs[i], 0) for i in keep2]
    cp2 = [cplace.get(t2.legs[i], 0) for i in keep2]
    r2 = [sum(map(mul, rp2, part)) for part in col]
    c2 = [sum(map(mul, cp2, part)) for part in col]
    p = t1.field.p
    values = {}  # one Fraction per distinct integer sum: equal entries share it
    col_ids = {}  # every row keys a column by the same int object
    nonzeros = {}
    for base, acc in rows:
        rb, cb = sum(map(mul, r1, base)), sum(map(mul, c1, base))
        for j, s in acc.items():
            if p is None:
                if not s:
                    continue
                v = values.get(s)
                if v is None:
                    values[s] = v = Fraction(s, D)
            elif not (v := s % p):
                continue
            r = rb + r2[j]
            row = nonzeros.get(r)
            if row is None:
                nonzeros[r] = row = {}
            c = cb + c2[j]
            row[col_ids.setdefault(c, c)] = v
    return prod(rdims), prod(cdims), nonzeros


def _clear_denominators(tensors):
    """Integer copies of rational tensors, each scaled by the lcm of its
    denominators, and the product ``D`` of those scales."""
    out = []
    D = 1
    for t in tensors:
        L = lcm(*(v.denominator for v in t.data.values()))
        D *= L
        data = {k: v.numerator * (L // v.denominator) for k, v in t.data.items()}
        out.append(Tensor(t.field, t.legs, t.dims, data))
    return out, D


def _intern(shapes):
    """The network of ``(legs, dims)`` shapes as bit masks, built once, and
    its memo key.

    Legs are numbered in sorted order and leg ``i`` is the bit ``1 << i``.
    Legs of one type are sorted by ``<``, and types by their names, so a
    network may name some legs by strings and others by tuples.  Returns
    each tensor's leg mask, dense size and partners (the mask of the
    tensors it shares a leg with), ``{bit: dim * dim}``, and the heap
    entries of the initial pairs in sorted ``(a, b)`` order; then the memo
    key: the tensor count, the lowest and highest holder of each leg and
    the rank of each leg's dimension among the distinct ones, packed, and
    the distinct dimensions.  The holders are the leg masks read leg by
    leg, so the key holds all that ``_search`` reads, in a size linear in
    the number of legs.  A network is a graph: a leg named twice in one
    tensor, held by three tensors, or given two dimensions is refused with
    ``ValueError``.
    """
    names = sorted({l for legs, _ in shapes for l in legs}, key=lambda l: (type(l).__name__, l))
    index = {l: i for i, l in enumerate(names)}
    dims, holders, masks = [None] * len(names), [0] * len(names), []
    for tid, (legs, ds) in enumerate(shapes):
        mask = 0
        for l, d in zip(legs, ds):
            i = index[l]
            bit = 1 << i
            if mask & bit:
                raise ValueError(f"leg {l!r} appears twice in tensor {tid}")
            mask |= bit
            if dims[i] is None:
                dims[i] = d
            elif dims[i] != d:
                raise ValueError(f"leg {l!r} has dimension {d} in tensor {tid} "
                                 f"and {dims[i]} in another")
            h = holders[i]
            if h.bit_count() == 2:
                raise ValueError(f"leg {l!r} joins more than two tensors")
            holders[i] = h | 1 << tid
        masks.append(mask)
    sq = {1 << i: d * d for i, d in enumerate(dims)}
    size = [prod(ds) for _, ds in shapes]
    partners = [0] * len(shapes)
    pairs = set()
    ends = []  # the lowest and highest holder of each leg, equal for a free leg
    for h in holders:
        a, b = (h & -h).bit_length() - 1, h.bit_length() - 1
        ends += (a, b)
        if a != b:
            partners[a] |= 1 << b
            partners[b] |= 1 << a
            pairs.add((a, b))
    start = []
    for a, b in sorted(pairs):
        shared = masks[a] & masks[b]
        start.append((size[a] * size[b] // _cut(shared, sq), shared & -shared, a, b))
    rank = {d: r for r, d in enumerate(sorted(set(dims)))}
    key = _packed([len(shapes), *ends, *map(rank.get, dims)]), tuple(rank)
    return (masks, size, partners, sq, start), key


def _packed(values):
    """Ints from 0 to 1,114,111 as one ``str``, a code point each.  CPython
    stores it at one, two or four bytes a character, the fewest its largest
    value needs (PEP 393), so it is the narrowest packing that fits them
    all; a larger value is refused with ``ValueError``."""
    return "".join(map(chr, values))


def _cut(shared, sq):
    """The product of ``dim * dim`` over the legs of a mask: a contraction's
    dense size is its tensors' sizes over the cut of their shared legs."""
    cut = 1
    while shared:
        low = shared & -shared
        cut *= sq[low]
        shared ^= low
    return cut


def _search(net, rng=None):
    """One greedy pass over an interned network: ``(steps, sum of result
    dense sizes)``.

    The heap holds ``(dense size of the result, lowest shared leg bit, a,
    b)``.  After a merge only the pairs of the merged tensor ``m`` are new:
    its partners are those of ``a`` and ``b`` but for ``a`` and ``b``, and
    each partner's mask swaps them for ``m``.  Entries naming a merged
    tensor are stale and skipped when they reach the top.  With no pair
    left the two smallest tensors by ``(dense size, id)`` are combined.
    Given a ``random.Random``, each key is multiplied by ``1 + rng.random()``,
    drawn for the new pairs in sorted order.
    """
    masks, size, partners, sq, start = net
    n = len(masks)
    masks, size, partners = list(masks), list(size), list(partners)
    if rng is None:
        heap = list(start)
    else:
        heap = [(key * (1 + rng.random()), leg, a, b) for key, leg, a, b in start]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    merged_away = bytearray(2 * n)
    steps = []
    total = 0
    for m in range(n, 2 * n - 1):
        while heap:
            _, _, a, b = pop(heap)
            if not (merged_away[a] or merged_away[b]):
                break
        else:
            alive = [t for t in range(m) if not merged_away[t]]
            a, b = sorted(alive, key=lambda t: (size[t], t))[:2]
        merged_away[a] = merged_away[b] = 1
        ma, mb = masks[a], masks[b]
        result = size[a] * size[b] // _cut(ma & mb, sq)
        masks.append(ma ^ mb)
        size.append(result)
        total += result
        steps.append((a, b))
        keep, new = ~(1 << a | 1 << b), 1 << m
        near = (partners[a] | partners[b]) & keep
        partners.append(near)
        while near:
            low = near & -near
            near ^= low
            c = low.bit_length() - 1
            partners[c] = partners[c] & keep | new
            shared = masks[c] & masks[m]
            key = size[c] * result // _cut(shared, sq)
            if rng is not None:
                key *= 1 + rng.random()
            push(heap, (key, shared & -shared, c, m))
    return steps, total


_CANDIDATES = 8


def _searched_order(net):
    """The cheapest by summed result sizes of the plain greedy order and
    ``_CANDIDATES - 1`` noisy orders of an interned network, the earlier on
    a tie."""
    steps, best = _search(net)
    rng = random.Random(0)
    for _ in range(_CANDIDATES - 1):
        candidate, total = _search(net, rng)
        if total < best:
            steps, best = candidate, total
    return steps


_MEMO_ENTRIES = 1024
_orders = {}  # memo key -> the searched steps, flattened and packed


def contraction_order(shapes):
    """``_searched_order`` of the network, searched once per process.

    The network is interned, and so checked, on every call; its order is
    looked up by its key (see ``_intern``), which holds all that the search
    reads, so a hit is the order a search would return.  The memo keeps the
    ``_MEMO_ENTRIES`` newest networks.  Each call returns a fresh list."""
    net, key = _intern(shapes)
    flat = _orders.get(key)
    if flat is not None:
        pairs = map(ord, flat)
        return list(zip(pairs, pairs))
    steps = _searched_order(net)
    if len(_orders) >= _MEMO_ENTRIES:
        del _orders[next(iter(_orders))]
    _orders[key] = _packed(chain.from_iterable(steps))
    return steps


def greedy_contract(tensors, row_legs=None, col_legs=None):
    """Contract a list of tensors down to one, in the order
    ``contraction_order`` gives for their shapes.

    Over Q the contraction runs on integer copies (see the module docstring)
    and the result is divided by their common scale once, at the end.

    Given ``row_legs`` and ``col_legs``, returns the result's
    ``Tensor.read_off(row_legs, col_legs)`` instead; the last contraction
    step writes it directly (``_contract_read_off``), so the result is
    never built as a tensor.
    """
    rational = tensors[0].field.p is None
    items, D = _clear_denominators(tensors) if rational else (list(tensors), 1)
    steps = contraction_order([(t.legs, t.dims) for t in items])
    fused = row_legs is not None and steps
    for a, b in steps[:-1] if fused else steps:
        items.append(contract_pair(items[a], items[b]))
        items[a] = items[b] = None  # frees the integer copies as they are used
    if fused:
        a, b = steps[-1]
        return _contract_read_off(items[a], items[b], row_legs, col_legs, D)
    result = items[-1]
    if rational:
        # one Fraction per distinct value: a state sum has few, and equal
        # entries then share one object
        values = {v: Fraction(v, D) for v in set(result.data.values())}
        result.data = {k: values[v] for k, v in result.data.items()}
    return result if row_legs is None else result.read_off(row_legs, col_legs)
