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
identical to those of a ``Fraction`` contraction.  The triangles of a
network share their entries, so each distinct data dict is scaled once.

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
``contraction_order`` searches each network once per process.  Its memo key
(``_key``) is built in one pass over the legs: the tensor count, each
tensor's leg count, and for each leg of each tensor, in order, its number
in sorted leg order and the rank of its dimension among the network's
distinct dimensions, packed as one ``str``, a code point each; and the
distinct dimensions as a tuple, since a dimension has no bound.  That fixes
all that the search reads, so a hit returns the order a search would
without interning the network, and networks that differ only in their leg
names share an entry.  A hit costs the key, a sort of the leg names and a
few passes over the legs in C: 95 us on a moved 70-tensor network of the
Pachner fuzz slice, against 385 us while every call interned the network.
Only a miss interns, and so checks, a network.  A malformed one can never hit:
its key spells out which tensors hold each leg and at what dimension, so it
shows the leg named twice in one tensor, held by three tensors or given two
dimensions that no stored network, each checked when it was stored, has.
The key fixes each tensor's leg order too, so each entry also packs, after
the steps, each step's shared and free leg positions (``_places``);
``greedy_contract`` hands them to every step and to the fused last one, so
a warm evaluation computes no leg positions.  The memo holds the
``_MEMO_ENTRIES`` (1024) most recently added networks and drops the
oldest; an entry of the Pachner fuzz slice, key, steps and positions,
takes about 820 bytes.
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


def _row_sums(t1, t2, places=None):
    """The row-by-row product of two tensors (see the module docstring).

    ``t2``'s entries are bucketed by shared key as ``(column id, value)`` and
    ``t1``'s grouped by output row.  ``places`` are the leg positions
    ``_places`` gives for the two tensors, found here if not given.  Returns
    the getters (``_getter``) of ``t1``'s and ``t2``'s free parts, which also
    read the free legs and dimensions off a tensor, ``t2``'s free parts by
    column id, and an iterator over the output rows as ``(t1's free part,
    {column id: sum})``, in order of first appearance, with the sums
    unreduced.  Tensors over different fields are refused with
    ``ValueError``.
    """
    if t1.field is not t2.field and t1.field != t2.field:
        raise ValueError(f"cannot multiply a tensor over {t1.field} by one over {t2.field}")
    at1, at2, keep1, keep2 = places or _places(t1.legs, t2.legs)
    shared1, shared2 = _getter(at1), _getter(at2)
    free1, free2 = _getter(keep1), _getter(keep2)

    cols = {}  # free part of a t2 index -> its column id
    buckets = {}  # shared key -> [(column id, t2 value)]
    col, bucket = cols.setdefault, buckets.setdefault
    for idx, v in t2.data.items():
        bucket(shared2(idx), []).append((col(free2(idx), len(cols)), v))
    rows = {}  # free part of a t1 index -> [(t1 value, its bucket)]
    hit, row = buckets.get, rows.setdefault
    for idx, v in t1.data.items():
        hits = hit(shared1(idx))
        if hits:
            row(free1(idx), []).append((v, hits))

    def sums():
        # each sum starts at its first product, not at the int 0, so a
        # Fraction sum never goes through Fraction.__radd__
        for base, terms in rows.items():
            acc = {}
            for v, hits in terms:
                for j, v2 in hits:
                    if j in acc:
                        acc[j] += v * v2
                    else:
                        acc[j] = v * v2
            yield base, acc

    return free1, free2, list(cols), sums()


def _places(legs1, legs2):
    """The leg positions of a product: those of the legs two tensors share,
    in ``legs1``'s order, in ``legs1`` and in ``legs2``, then those of each
    one's free legs."""
    set1, set2 = set(legs1), set(legs2)
    at1 = [i for i, l in enumerate(legs1) if l in set2]
    return (at1, [legs2.index(legs1[i]) for i in at1],
            [i for i, l in enumerate(legs1) if l not in set2],
            [i for i, l in enumerate(legs2) if l not in set1])


def contract_pair(t1: Tensor, t2: Tensor, places=None) -> Tensor:
    """Contract all legs shared by name between two tensors; the result's
    legs are ``t1``'s free legs, then ``t2``'s, each in their own order.

    Row by row (see ``_row_sums``, which takes ``places``); each sum is
    reduced once, and only a nonzero one pays for its output index tuple.
    """
    free1, free2, col, rows = _row_sums(t1, t2, places)
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
    return Tensor(t1.field, free1(t1.legs) + free2(t2.legs), free1(t1.dims) + free2(t2.dims), data)


def _contract_read_off(t1, t2, row_legs, col_legs, D, places):
    """``contract_pair(t1, t2, places).read_off(row_legs, col_legs)``, written
    by the contraction itself (see the module docstring).  Over Q the integer
    sums are divided by ``D``, one ``Fraction`` per distinct value; over F_p
    they are reduced mod ``p``."""
    dim = dict(zip(t1.legs, t1.dims))
    dim.update(zip(t2.legs, t2.dims))
    rdims, cdims = [dim[l] for l in row_legs], [dim[l] for l in col_legs]
    rplace = dict(zip(row_legs, _strides(rdims)))
    cplace = dict(zip(col_legs, _strides(cdims)))
    free1, free2, col, rows = _row_sums(t1, t2, places)
    legs1, legs2 = free1(t1.legs), free2(t2.legs)
    r1, c1 = [rplace.get(l, 0) for l in legs1], [cplace.get(l, 0) for l in legs1]
    rp2, cp2 = [rplace.get(l, 0) for l in legs2], [cplace.get(l, 0) for l in legs2]
    r2 = [sum(map(mul, rp2, part)) for part in col]
    c2 = [sum(map(mul, cp2, part)) for part in col]
    p = t1.field.p
    values = {}  # one Fraction per distinct integer sum: equal entries share it
    col_ids = {}  # every row keys a column by the same int object
    nonzeros = {}
    value, row_at, col_id = values.get, nonzeros.get, col_ids.setdefault
    for base, acc in rows:
        rb, cb = sum(map(mul, r1, base)), sum(map(mul, c1, base))
        for j, s in acc.items():
            if p is None:
                if not s:
                    continue
                v = value(s)
                if v is None:
                    values[s] = v = Fraction(s, D)
            elif not (v := s % p):
                continue
            r = rb + r2[j]
            row = row_at(r)
            if row is None:
                nonzeros[r] = row = {}
            c = cb + c2[j]
            row[col_id(c, c)] = v
    return prod(rdims), prod(cdims), nonzeros


def _clear_denominators(tensors):
    """Integer copies of rational tensors, each scaled by the lcm of its
    denominators, and the product ``D`` of those scales.  Tensors that share
    one data dict, as the triangles of a network do, share one copy."""
    out = []
    D = 1
    copies = {}  # id of a data dict -> (its integer copy, its scale)
    for t in tensors:
        copy = copies.get(id(t.data))
        if copy is None:
            L = lcm(*(v.denominator for v in t.data.values()))
            copies[id(t.data)] = copy = {k: v.numerator * (L // v.denominator)
                                         for k, v in t.data.items()}, L
        data, L = copy
        D *= L
        out.append(Tensor(t.field, t.legs, t.dims, data))
    return out, D


def _numbers(names):
    """``{leg: its number}``, the legs numbered in sorted order: legs of one
    type by ``<`` and types by their names, so a network may name some legs
    by strings and others by tuples."""
    if len(set(map(type, names))) > 1:
        names = sorted(names, key=lambda l: (type(l).__name__, l))
    else:
        names = sorted(names)
    return {l: i for i, l in enumerate(names)}


def _key(shapes):
    """The memo key of a network of ``(legs, dims)`` shapes, one dimension
    per leg: the tensor count, each tensor's leg count, each leg's number
    (``_numbers``) and the rank of its dimension among the network's
    distinct ones, tensor by tensor and leg by leg, packed; then the
    distinct dimensions.  Built in one pass over the legs, it fixes all
    that ``_search`` reads and the order of each tensor's legs, in a size
    linear in the number of legs."""
    legs = [l for l, _ in shapes]
    flat = list(chain.from_iterable(legs))
    number = _numbers(set(flat))
    dims = list(chain.from_iterable([d for _, d in shapes]))
    rank = {d: r for r, d in enumerate(sorted(set(dims)))}
    return _packed(chain((len(legs),), map(len, legs), map(number.__getitem__, flat),
                         map(rank.__getitem__, dims))), tuple(rank)


def _intern(shapes):
    """The network of ``(legs, dims)`` shapes as bit masks, built once, and
    each tensor's legs by number.

    Legs are numbered as ``_numbers`` numbers them and leg ``i`` is the bit
    ``1 << i``.  Returns each tensor's leg mask, dense size and partners
    (the mask of the tensors it shares a leg with), each leg's ``dim * dim``,
    and the heap entries of the initial pairs in sorted ``(a, b)`` order.
    A network is a graph: a leg named twice in one tensor, held by three
    tensors, or given two dimensions is refused with ``ValueError``.
    """
    index = _numbers({l for legs, _ in shapes for l in legs})
    dims, holders, masks = [None] * len(index), [0] * len(index), []
    numbered = [tuple(map(index.__getitem__, legs)) for legs, _ in shapes]
    for tid, (legs, ds) in enumerate(shapes):
        mask = 0
        for l, i, d in zip(legs, numbered[tid], ds):
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
    sq = [d * d for d in dims]
    size = [prod(ds) for _, ds in shapes]
    partners = [0] * len(shapes)
    pairs = set()
    for h in holders:
        a, b = (h & -h).bit_length() - 1, h.bit_length() - 1
        if a != b:
            partners[a] |= 1 << b
            partners[b] |= 1 << a
            pairs.add((a, b))
    start = []
    for a, b in sorted(pairs):
        shared = masks[a] & masks[b]
        start.append((size[a] * size[b] // _cut(shared, sq), shared & -shared, a, b))
    return (masks, size, partners, sq, start), numbered


def _packed(values):
    """Ints from 0 to 1,114,111 as one ``str``, a code point each.  CPython
    stores it at one, two or four bytes a character, the fewest its largest
    value needs (PEP 393), so it is the narrowest packing that fits them
    all; a larger value is refused with ``ValueError``."""
    return "".join(map(chr, values))


def _cut(shared, sq):
    """The product of ``dim * dim`` over the legs of a mask, ``sq`` by leg
    number: a contraction's dense size is its tensors' sizes over the cut of
    their shared legs."""
    if shared.bit_count() == 1:
        return sq[shared.bit_length() - 1]
    cut = 1
    while shared:
        low = shared & -shared
        cut *= sq[low.bit_length() - 1]
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
_orders = {}  # memo key -> the searched steps and their leg positions, packed


class _Order(list):
    """The steps ``(a, b)`` of a contraction order and ``entry``, the memo
    entry they were read from (see ``contraction_order``)."""

    __slots__ = ("entry",)


def contraction_order(shapes):
    """``_searched_order`` of the network, searched once per process.

    The order is looked up by the network's key (``_key``), which fixes all
    that the search reads, so a hit is the order a search would return.
    Only a miss interns the network, and so checks it: a network that is
    not a graph has a key no stored one shares.  An entry packs the steps,
    flattened, and then for each step the number of shared legs and of
    each tensor's free legs and the leg positions (``_places``).  The memo
    keeps the ``_MEMO_ENTRIES`` newest networks.  Each call returns a fresh
    list, an ``_Order``."""
    key = _key(shapes)
    entry = _orders.get(key)
    if entry is None:
        net, legs = _intern(shapes)
        steps = _searched_order(net)
        flat = list(chain.from_iterable(steps))
        for a, b in steps:
            places = _places(legs[a], legs[b])
            at1, _, keep1, keep2 = places
            flat += (len(at1), len(keep1), len(keep2), *chain.from_iterable(places))
            legs.append(tuple(legs[a][i] for i in keep1) + tuple(legs[b][i] for i in keep2))
        if len(_orders) >= _MEMO_ENTRIES:
            del _orders[next(iter(_orders))]
        _orders[key] = entry = _packed(flat)
    pairs = map(ord, entry[:2 * len(shapes) - 2])
    order = _Order(zip(pairs, pairs))
    order.entry = entry
    return order


def _step_places(order):
    """Each step's leg positions (``_places``), read from an ``_Order``'s
    memo entry."""
    values = list(map(ord, order.entry))
    i = 2 * len(order)
    while i < len(values):
        shared, n1, n2 = values[i:i + 3]
        a = i + 3
        b = a + shared
        c = b + shared
        d = c + n1
        i = d + n2
        yield values[a:b], values[b:c], values[c:d], values[d:i]


def greedy_contract(tensors, row_legs=None, col_legs=None):
    """Contract a list of tensors down to one, in the order
    ``contraction_order`` gives for their shapes.

    Over Q the contraction runs on integer copies (see the module docstring)
    and the result is divided by their common scale once, at the end.

    Given ``row_legs`` and ``col_legs``, returns the result's
    ``Tensor.read_off(row_legs, col_legs)`` instead; the last contraction
    step writes it directly (``_contract_read_off``), so the result is
    never built as a tensor.  An empty list is refused with ``ValueError``.
    """
    if not tensors:
        raise ValueError("cannot contract an empty network: it has no tensor")
    rational = tensors[0].field.p is None
    items, D = _clear_denominators(tensors) if rational else (list(tensors), 1)
    steps = contraction_order([(t.legs, t.dims) for t in items])
    places = _step_places(steps)  # read from the memo entry, as the steps are
    fused = row_legs is not None and steps
    for a, b in steps[:-1] if fused else steps:
        items.append(contract_pair(items[a], items[b], next(places)))
        items[a] = items[b] = None  # frees the integer copies as they are used
    if fused:
        a, b = steps[-1]
        return _contract_read_off(items[a], items[b], row_legs, col_legs, D, next(places))
    result = items[-1]
    if rational:
        # one Fraction per distinct value: a state sum has few, and equal
        # entries then share one object
        values = {v: Fraction(v, D) for v in set(result.data.values())}
        result.data = {k: values[v] for k, v in result.data.items()}
    return result if row_legs is None else result.read_off(row_legs, col_legs)
