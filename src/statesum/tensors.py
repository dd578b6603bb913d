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
identical to those of a ``Fraction`` contraction.  Over F_p the same kernel
accumulates integer sums and reduces each output entry mod ``p`` once.

The pair-selection rule is greedy on the *dense* size of the resulting
tensor (ties broken by the smallest shared leg, then creation order), which
is deterministic; any order yields the same result by multilinearity.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .linalg import Matrix


class Tensor:
    __slots__ = ("field", "legs", "dims", "data")

    def __init__(self, field, legs, dims, data):
        self.field = field
        self.legs = tuple(legs)
        self.dims = tuple(dims)
        self.data = data  # dict: index tuple -> nonzero value

    @classmethod
    def from_matrix_sparse(cls, field, legs, dims, matrix: Matrix):
        data = {}
        for i, row in enumerate(matrix.data):
            for j, v in enumerate(row):
                if v != 0:
                    data[(i, j)] = v
        return cls(field, legs, dims, data)

    @classmethod
    def vector(cls, field, leg, dim, coeffs):
        return cls(field, (leg,), (dim,), {(i,): v for i, v in enumerate(coeffs) if v != 0})

    def dense_size(self) -> int:
        s = 1
        for d in self.dims:
            s *= d
        return s

    def scalar(self):
        if self.legs:
            raise ValueError("tensor still has open legs")
        return self.data.get((), self.field.zero())

    def apply_matrix(self, leg, matrix: Matrix, transpose: bool = False) -> "Tensor":
        """Act with a matrix on one leg: ``T'[.. j ..] = sum_i M[j][i] T[.. i ..]``.

        With ``transpose=True`` the sum runs over the row index instead, which
        is the correct action when pre-composing on an input leg.
        """
        pos = self.legs.index(leg)
        cols = {}
        for r, row in enumerate(matrix.data):
            for c, v in enumerate(row):
                if v != 0:
                    if transpose:
                        cols.setdefault(r, []).append((c, v))
                    else:
                        cols.setdefault(c, []).append((r, v))
        new_dim = matrix.cols if transpose else matrix.rows
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
        dims = self.dims[:pos] + (new_dim,) + self.dims[pos + 1:]
        return Tensor(self.field, self.legs, dims, data)

    def to_matrix(self, row_legs, col_legs) -> Matrix:
        """Rows indexed by ``row_legs``, columns by ``col_legs``; the leftmost
        leg of each group is the most significant."""
        rpos = [self.legs.index(l) for l in row_legs]
        cpos = [self.legs.index(l) for l in col_legs]
        rdims = [self.dims[p] for p in rpos]
        cdims = [self.dims[p] for p in cpos]
        m = Matrix.zeros(self.field, prod(rdims), prod(cdims))
        rstr = _strides(rdims)
        cstr = _strides(cdims)
        for idx, v in self.data.items():
            r = sum(s * idx[p] for s, p in zip(rstr, rpos))
            c = sum(s * idx[p] for s, p in zip(cstr, cpos))
            m.data[r][c] = v
        return m

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


def contract_pair(t1: Tensor, t2: Tensor) -> Tensor:
    """Contract all legs shared by name between two tensors."""
    legs2 = set(t2.legs)
    shared = [l for l in t1.legs if l in legs2]
    sset = set(shared)
    keep1 = [i for i, l in enumerate(t1.legs) if l not in sset]
    spos1 = [t1.legs.index(l) for l in shared]
    keep2 = [i for i, l in enumerate(t2.legs) if l not in sset]
    spos2 = [t2.legs.index(l) for l in shared]

    buckets = {}
    for idx, v in t2.data.items():
        key = tuple(idx[p] for p in spos2)
        buckets.setdefault(key, []).append((tuple(idx[i] for i in keep2), v))

    acc = {}
    for idx, v in t1.data.items():
        key = tuple(idx[p] for p in spos1)
        hits = buckets.get(key)
        if not hits:
            continue
        base = tuple(idx[i] for i in keep1)
        for free2, v2 in hits:
            out = base + free2
            prev = acc.get(out)
            acc[out] = v * v2 if prev is None else prev + v * v2
    data = _nonzero(acc, t1.field.p)
    legs = tuple(t1.legs[i] for i in keep1) + tuple(t2.legs[i] for i in keep2)
    dims = tuple(t1.dims[i] for i in keep1) + tuple(t2.dims[i] for i in keep2)
    return Tensor(t1.field, legs, dims, data)


def _pair_cost(t1, t2):
    shared = set(t1.legs) & set(t2.legs)
    size = 1
    for l, d in zip(t1.legs, t1.dims):
        if l not in shared:
            size *= d
    for l, d in zip(t2.legs, t2.dims):
        if l not in shared:
            size *= d
    return size, min(shared)


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


def greedy_contract(tensors) -> Tensor:
    """Contract a list of tensors down to one.

    Repeatedly contract the connected pair whose result has the smallest
    dense size (ties by smallest shared leg id, then insertion order);
    disconnected remainders are combined smallest-first.

    Over Q the contraction runs on integer copies (see the module docstring)
    and the result is divided by their common scale once, at the end.
    """
    rational = tensors[0].field.p is None
    if rational:
        tensors, D = _clear_denominators(tensors)
    items = dict(enumerate(tensors))
    next_id = len(tensors)

    leg_holders = {}
    for tid, t in items.items():
        for l in t.legs:
            leg_holders.setdefault(l, set()).add(tid)

    def candidate_pairs():
        pairs = set()
        for l, holders in leg_holders.items():
            if len(holders) == 2:
                a, b = sorted(holders)
                pairs.add((a, b))
        return pairs

    while len(items) > 1:
        pairs = candidate_pairs()
        if pairs:
            def rank(pair):
                size, min_shared = _pair_cost(items[pair[0]], items[pair[1]])
                return (size, min_shared, pair)
            a, b = min(pairs, key=rank)
        else:
            order = sorted(items, key=lambda tid: (items[tid].dense_size(), tid))
            a, b = order[0], order[1]
        merged = contract_pair(items[a], items[b])
        for tid in (a, b):
            for l in items[tid].legs:
                holders = leg_holders.get(l)
                if holders:
                    holders.discard(tid)
                    if not holders:
                        del leg_holders[l]
            del items[tid]
        items[next_id] = merged
        for l in merged.legs:
            leg_holders.setdefault(l, set()).add(next_id)
        next_id += 1
    result = items.popitem()[1]
    if rational:
        result.data = {k: Fraction(v, D) for k, v in result.data.items()}
    return result
