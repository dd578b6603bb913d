"""Sparse exact tensors and deterministic greedy contraction.

Tensors carry named legs; contraction matches leg names, so the permutation
bookkeeping of a tensor network never becomes an explicit matrix.  Data is a
dict from index tuples to nonzero field values: the structure tensors of the
state sum (the trilinear form, the inverse pairing, units) are very sparse
and stay sparse under contraction, which is what keeps exact evaluation at
dimension ~15 affordable.

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
tuple.  One code path serves the integers of a Q network, residues mod ``p``
and direct ``Fraction`` calls; the last are the derived structure maps of
``algebra`` and ``frobenius``, each a contraction of the structure tensor.

Contraction is planned on shapes alone, then executed.  The plan is greedy
on the *dense* size of the result: of the pairs sharing a leg that only they
hold, it takes the smallest result, ties broken by the smallest shared leg,
then creation order.  A heap keyed by exactly that holds the candidates;
each merge scores only the merged tensor's new pairs, and entries naming a
merged tensor are dropped when they reach the top, so there is no rescan of
every pair per step.  One greedy pass can still go badly wide: on dim-13
closed surfaces it builds 8- and 9-leg intermediates (13^9 dense cells)
where 6-leg orders exist.  So when one of its results exceeds
``linalg.DENSE_BUDGET`` dense cells, a size no dense matrix may have,
``contraction_order`` samples seven more greedy plans whose keys are scaled
by ``1 + rng.random()`` and keeps the candidate with the smallest sum of
result dense sizes, the earlier on a tie (Gray & Kourtis,
arXiv:2002.01935).  The noise comes from ``random.Random(0)`` and is drawn
for each batch of new pairs in sorted order, never in the hash order of
their leg names, so the order is the same on every run.  Below the budget
``plan``'s order is used as it is.  Any order yields the same result, by
multilinearity: over Q the same integers, hence the same canonical
``Fraction``s, and over F_p the same residues.
"""

from __future__ import annotations

import heapq
import random
from collections import defaultdict
from fractions import Fraction
from math import lcm, prod
from operator import itemgetter, mul

from .linalg import DENSE_BUDGET, Matrix


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
    def from_matrix_sparse(cls, field, legs, dims, matrix: Matrix):
        return cls.from_rows(field, legs, dims, matrix.nonzero_rows())

    @classmethod
    def vector(cls, field, leg, dim, coeffs):
        return cls(field, (leg,), (dim,), {(i,): v for i, v in enumerate(coeffs) if v != 0})

    def scalar(self):
        if self.legs:
            raise ValueError("tensor still has open legs")
        return self.data.get((), self.field.zero())

    def apply_matrix(self, leg, matrix: Matrix) -> "Tensor":
        """Act with a matrix on one leg: ``T'[.. j ..] = sum_i M[j][i] T[.. i ..]``."""
        pos = self.legs.index(leg)
        cols = {}
        for r, row in enumerate(matrix.data):
            for c, v in enumerate(row):
                if v != 0:
                    cols.setdefault(c, []).append((r, v))
        acc = {}
        for idx, v in self.data.items():
            hits = cols.get(idx[pos])
            if not hits:
                continue
            for out_i, m in hits:
                key = idx[:pos] + (out_i,) + idx[pos + 1:]
                prev = acc.get(key)
                acc[key] = v * m if prev is None else prev + v * m
        data = _nonzero(acc, self.field.p)
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


def _nonzero(acc, p):
    """The nonzero entries of accumulated sums; over F_p each sum is reduced
    once, here, rather than on every multiply-add."""
    if p is None:
        return {k: v for k, v in acc.items() if v != 0}
    return {k: r for k, v in acc.items() if (r := v % p)}


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


def contract_pair(t1: Tensor, t2: Tensor) -> Tensor:
    """Contract all legs shared by name between two tensors; the result's
    legs are ``t1``'s free legs, then ``t2``'s, each in their own order.

    Row by row (see the module docstring): ``t2``'s entries are bucketed by
    shared key as ``(column id, value)``, ``t1``'s grouped by output row, and
    each row accumulates over column ids and reduces each sum once.
    """
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

    col = list(cols)
    p = t1.field.p
    data = {}
    for base, terms in rows.items():
        acc = defaultdict(int)
        for v, hits in terms:
            for j, v2 in hits:
                acc[j] += v * v2
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


def plan(shapes, rng=None):
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


def contraction_order(shapes):
    """``plan``'s order, unless one of its results exceeds ``DENSE_BUDGET``
    dense cells: then the cheapest by summed result sizes of it and
    ``_CANDIDATES - 1`` noisy plans, the earlier on a tie."""
    steps = plan(shapes)
    if max(_result_sizes(shapes, steps), default=0) <= DENSE_BUDGET:
        return steps
    rng = random.Random(0)
    candidates = [steps] + [plan(shapes, rng) for _ in range(_CANDIDATES - 1)]
    return min(candidates, key=lambda c: sum(_result_sizes(shapes, c)))


def greedy_contract(tensors) -> Tensor:
    """Contract a list of tensors down to one, in the order
    ``contraction_order`` gives for their shapes.

    Over Q the contraction runs on integer copies (see the module docstring)
    and the result is divided by their common scale once, at the end.
    """
    rational = tensors[0].field.p is None
    items, D = _clear_denominators(tensors) if rational else (list(tensors), 1)
    for a, b in contraction_order([(t.legs, t.dims) for t in items]):
        items.append(contract_pair(items[a], items[b]))
        items[a] = items[b] = None  # frees the integer copies as they are used
    result = items[-1]
    if rational:
        # one Fraction per distinct value: a state sum has few, and equal
        # entries then share one object
        values = {v: Fraction(v, D) for v in set(result.data.values())}
        result.data = {k: values[v] for k, v in result.data.items()}
    return result
