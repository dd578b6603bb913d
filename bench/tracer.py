"""In-memory span tracer for the traced benchmark run.

``install`` wraps public callables of ``statesum`` under every name they are
looked up by: a module-level function is replaced in each ``statesum`` module
that holds it (so ``statesum.evaluation.greedy_contract`` is wrapped as well
as ``statesum.tensors.greedy_contract``), and a method is replaced on its
class.  Each call records a span ``[layer, start, end, parent]``; a layer's
self time is the duration of its spans minus the part their direct children
cover.

Exact counts (multiply-adds, dense matrix entries, network shapes, cache
hits) are computed inside the wrappers, in spans of their own named
``trace.count`` so that the counting cost is kept out of every layer's self
time.  The counts depend only on the inputs, so they repeat exactly from run
to run.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

COUNT = "trace.count"

BOUNDARY_METHODS = ("p_matrix", "q_matrix", "split_pkk", "split_qkk",
                    "phi_matrices", "psi_matrices", "circle_boundary_matrices")
DERIVE_METHODS = ("__init__", "trilinear", "idempotent_matrix", "window_power_matrix")


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self._stack = []
        self.counts = {}
        self.nnz_peak = 0
        self.shapes = []  # one digest per contracted network, in call order
        self._patches = []  # (owner, attribute, original value)

    # -- spans --------------------------------------------------------------

    def open(self, layer) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _counted(self, hook, *args):
        idx = self.open(COUNT)
        try:
            return hook(self, *args)
        finally:
            self.close(idx)

    def wrap(self, layer, fn, before=None, after=None):
        """``fn`` traced as ``layer``; ``before(tracer, args)`` returns a state
        handed to ``after(tracer, args, state, result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._counted(before, args) if before else None
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                self._counted(after, args, state, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self):
        from statesum import (algebra, catalog, cobordisms, complexes, evaluation,
                              frobenius, io, linalg, tensors)

        FS = frobenius.FrobeniusStructure
        methods = [
            (linalg.Matrix, "kron", "linalg.kron", None, _count_dense),
            (linalg.Matrix, "__matmul__", "linalg.matmul", None, _count_dense),
            *[(FS, m, "frobenius.boundary", _cache_size, _count_hit) for m in BOUNDARY_METHODS],
            *[(FS, m, "frobenius.derive", None, None) for m in DERIVE_METHODS],
            (algebra.Algebra, "__init__", "algebra.build", None, None),
            (tensors.Tensor, "apply_matrix", "tensors.apply_matrix", None, None),
            (tensors.Tensor, "to_matrix", "tensors.to_matrix", None, None),
            (complexes.OpenClosedComplex, "validate", "complexes.validate", None, None),
        ]
        for owner, attr, layer, before, after in methods:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, before, after))

        functions = [
            (frobenius.split_idempotent, "frobenius.split", None, None),
            (frobenius.knowledgeable_from_frobenius, "frobenius.knowledgeable", None, None),
            (catalog.genus_window_scalar, "catalog.oracle", None, None),
            (catalog.surface_invariant_closed_form, "catalog.oracle", None, None),
            (io.loads, "io.load", None, None),
            (io.algebra_from_json, "io.load", None, None),
            (io.complex_from_json, "io.load", None, None),
            (io.dumps, "io.dumps", None, None),
            (tensors.contract_pair, "tensors.contract", None, _count_contract),
            (tensors.greedy_contract, "tensors.plan", _record_shape, None),
            (complexes.random_moves, "complexes.moves", None, None),
            (cobordisms.closed_surface, "cobordisms.build", None, None),
            (cobordisms.builtin, "cobordisms.build", None, None),
            (evaluation.build_dual_network, "evaluation.network", None, _count_network),
            (evaluation.state_sum_raw, "evaluation.levels", None, None),
            (evaluation.state_sum_reduced, "evaluation.levels", None, None),
            (evaluation.state_sum, "evaluation.levels", None, None),
            (evaluation.evaluate_closed, "evaluation.levels", None, None),
        ]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "statesum" or name.startswith("statesum."))]
        for fn, layer, before, after in functions:
            wrapper = self.wrap(layer, fn, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        self_s, calls = {}, {}
        for (layer, start, end, _), covered in zip(self.spans, inner):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start - covered)
            calls[layer] = calls.get(layer, 0) + 1
        return {"self_s": self_s, "calls": calls, "counts": dict(self.counts),
                "nnz_peak": self.nnz_peak, "shapes": list(self.shapes)}


# -- counting hooks -------------------------------------------------------------


def _count_dense(tracer, args, state, m):
    tracer.count("dense_entries", m.rows * m.cols)


def _cache_size(tracer, args):
    return len(args[0]._cache)


def _count_hit(tracer, args, size_before, result):
    # every boundary method stores its own key on a miss, so an unchanged
    # cache means the call was answered from it
    if len(args[0]._cache) == size_before:
        tracer.count("boundary_hits")


def _count_contract(tracer, args, state, result):
    t1, t2 = args[0], args[1]
    legs2 = set(t2.legs)
    shared = [l for l in t1.legs if l in legs2]
    pos1 = [t1.legs.index(l) for l in shared]
    pos2 = [t2.legs.index(l) for l in shared]
    bucket = {}
    for idx in t2.data:
        key = tuple(idx[p] for p in pos2)
        bucket[key] = bucket.get(key, 0) + 1
    tracer.count("mul_adds", sum(bucket.get(tuple(idx[p] for p in pos1), 0) for idx in t1.data))
    tracer.nnz_peak = max(tracer.nnz_peak, len(result.data))


def _record_shape(tracer, args):
    """Digest of the network's shape: leg incidence (legs renumbered in order
    of first use) and leg dimensions, independent of the tensor entries."""
    ids = {}
    shape = tuple((tuple(ids.setdefault(l, len(ids)) for l in t.legs), t.dims) for t in args[0])
    tracer.shapes.append(hashlib.sha1(repr(shape).encode()).hexdigest()[:16])


def _count_network(tracer, args, state, net):
    tracer.count("network_tensors", len(net.tensors))
