"""Finite-dimensional associative unital algebras over an exact field.

An algebra is given by sparse structure constants ``e_i * e_j = sum_k
c[i,j,k] e_k`` and a unit vector.  Construction validates the unit laws and
associativity exhaustively over the ``n^3`` basis triples, as contractions
of the structure tensor, one basis index ``i`` at a time for associativity:
cheap at desk scale, about 8 s for ``Q[S_5]`` (dimension 120, so 120^3
multiply-adds on each side).  What follows from them is not checked again;
so a right inverse is taken as two-sided (see below).

The canonical bilinear form ``(a, b) -> trace(L_{ab})`` of the left-regular
representation is the workhorse here: the algebra is *strongly separable*
precisely when that form is nondegenerate, and that is the precondition for
everything the state sum does later.

Every law check, product and derived map, here and in ``frobenius``, is a
contraction of the one structure tensor ``c_ijk``
(:meth:`Algebra.structure_tensor`) with vectors, pairings or its own slices,
through the kernel the state sum runs on, ``tensors.contract_pair``.  Each
memoised derivation goes through :func:`_cached`, the one place that decides
the cache's keys.
"""

from __future__ import annotations

import functools

from .errors import BadUnitError, NotAssociativeError
from .fields import Field
from .linalg import Matrix
from .tensors import Tensor, _clear_denominators, contract_pair

_LEFT, _RIGHT = ("v", "b", "k"), ("b", "v", "k")  # see Algebra._translation


def _cached(method):
    """Memoise ``method(obj, *args)`` in ``obj._cache`` under ``(name, *args)``.

    A miss stores its own key, so a call that leaves the cache's size
    unchanged was answered from it.  A list result is handed out as a fresh
    copy, so no caller can change what is cached.
    """
    name = method.__name__

    @functools.wraps(method)
    def cached(obj, *args):
        key = (name, *args)
        if key not in obj._cache:
            obj._cache[key] = method(obj, *args)
        value = obj._cache[key]
        return list(value) if isinstance(value, list) else value

    return cached


def _first_difference(a, b):
    """The smallest key on which two unequal sparse dicts differ."""
    return min(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


class Algebra:
    """Associative unital algebra with a distinguished basis."""

    __slots__ = ("field", "dim", "basis_names", "unit", "_mul", "_cache")

    def __init__(self, field: Field, dim: int, mul_entries, unit, basis_names=None):
        """``mul_entries`` iterates sparse quadruples ``(i, j, k, coeff)``.

        The unit, and the basis names when given, must have ``dim`` entries;
        that is checked before anything of size ``dim`` is built, so a
        declared ``dim`` is bounded by the unit that comes with it.
        """
        if len(unit) != dim:
            raise ValueError("unit vector length must equal dim")
        if basis_names is not None and len(basis_names) != dim:
            raise ValueError("basis_names length must equal dim")
        self.field = field
        self.dim = dim
        if basis_names is None:
            basis_names = [f"e{i}" for i in range(dim)]
        self.basis_names = tuple(basis_names)
        table = {}
        for (i, j, k, c) in mul_entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure constant index out of range: ({i},{j},{k})")
            if c != 0:
                table[(i, j, k)] = field.add(table.get((i, j, k), field.zero()), c)
        # the structure tensor's data {(i, j, k): c_ijk}
        self._mul = {key: c for key, c in sorted(table.items()) if c != 0}
        self.unit = tuple(unit)
        self._cache = {}
        self._validate()

    # -- structure constants -----------------------------------------------

    def mul_entries(self):
        """All nonzero structure constants as quadruples, sorted."""
        for (i, j, k), c in self._mul.items():
            yield (i, j, k, c)

    def structure_tensor(self, legs) -> Tensor:
        """The multiplication ``e_i e_j = sum_k c_ijk e_k`` as a three-leg
        tensor, its legs named ``legs = (i, j, k)``."""
        n = self.dim
        return Tensor(self.field, legs, (n, n, n), self._mul)

    def basis_element(self, i: int) -> "Element":
        coeffs = [self.field.zero()] * self.dim
        coeffs[i] = self.field.one()
        return Element(self, coeffs)

    def element(self, coeffs) -> "Element":
        return Element(self, coeffs)

    def unit_element(self) -> "Element":
        return Element(self, self.unit)

    def zero_element(self) -> "Element":
        return Element(self, [self.field.zero()] * self.dim)

    def _translation(self, v, legs) -> Tensor:
        """``v`` contracted into the leg ``"v"`` of the structure tensor with
        ``legs``: ``_LEFT`` gives ``L_v`` and ``_RIGHT`` gives ``R_v``, each
        keyed ``(b, k)`` for the ``e_k`` coefficient of ``v e_b``, resp. ``e_b v``."""
        return contract_pair(Tensor.vector(self.field, "v", v),
                             self.structure_tensor(legs))

    # -- validation -----------------------------------------------------------

    def _validate(self):
        """The unit laws, then associativity, on the structure tensor; the
        first failure in basis order is raised, at one ``i`` the left unit
        law before the right, so the witness is the dense scan's."""
        f = self.field
        n = self.dim
        identity = {(i, i): f.one() for i in range(n)}
        bad = []
        for side, legs in (("left", _LEFT), ("right", _RIGHT)):
            data = self._translation(self.unit, legs).data
            if data != identity:
                bad.append((_first_difference(data, identity)[0], side))
        if bad:
            # "left" < "right": at equal i the left law is reported
            raise BadUnitError(*min(bad))
        # Associativity is the 2-2 move on two triangles: for each i,
        # c_ijm c_mkl = c_jkm c_iml, both sides keyed (j, k, l).  Over Q the
        # integer copy c * L is contracted: both sides scale by L^2.
        c = self.structure_tensor(("j", "k", "m"))
        if f.p is None:
            (c,), _ = _clear_denominators([c])
        slices = {}
        for (i, j, m), v in c.data.items():
            slices.setdefault(i, {})[j, m] = v
        c_mkl = Tensor(f, ("m", "k", "l"), c.dims, c.data)
        for i in range(n):
            row = slices.get(i, {})
            lhs = contract_pair(Tensor(f, ("j", "m"), (n, n), row), c_mkl).data
            rhs = contract_pair(c, Tensor(f, ("m", "l"), (n, n), row)).data
            if lhs != rhs:
                raise NotAssociativeError(i, *_first_difference(lhs, rhs)[:2])

    # -- representation-theoretic data ----------------------------------------

    def left_regular_matrix(self, a) -> Matrix:
        """Matrix of ``L_a : b -> a*b``, ``L_a[k][j] = sum_i a_i c_ijk``."""
        coeffs = a.coeffs if isinstance(a, Element) else a
        return self._translation(coeffs, _LEFT).to_matrix(("k",), ("b",))

    def bilinear_form(self, v) -> Matrix:
        """Gram matrix ``G[i][j] = sum_k c_ijk v_k`` of the form ``(a, b) -> v(ab)``
        for a linear functional with coefficients ``v``."""
        g = contract_pair(self.structure_tensor(("i", "j", "k")),
                          Tensor.vector(self.field, "k", v))
        return g.to_matrix(("i",), ("j",))

    @_cached
    def canonical_pairing(self) -> Matrix:
        """Symmetric invariant form ``G[i][j] = trace(L_{e_i e_j})``: the form
        of the trace vector ``trace(L_{e_i}) = sum_j c_ijj``."""
        n = self.dim
        one = self.field.one()
        identity = Tensor(self.field, ("j", "k"), (n, n), {(j, j): one for j in range(n)})
        traces = contract_pair(self.structure_tensor(("i", "j", "k")), identity)
        return self.bilinear_form(traces.to_matrix(("i",), ()).column(0))

    def is_strongly_separable(self) -> bool:
        return self.canonical_pairing().rank() == self.dim

    @_cached
    def commutator_system(self):
        """``(rows, cols, nonzeros)``: the sparse matrix that sends a vector
        ``v`` to the coefficients of its commutators with the basis.

        Row ``(i, m)``, column ``k`` is ``c_kim - c_ikm``, the ``e_m``
        coefficient of ``e_k e_i - e_i e_k``: two read-offs of the structure
        tensor.  ``nonzeros`` is ``{row: {col: value}}`` over the nonzero
        rows, shared by every caller, who must not change it.
        """
        f = self.field
        rows, col = ("i", "m"), ("k",)
        nrows, ncols, system = self.structure_tensor(("k", "i", "m")).read_off(rows, col)
        for r, row in self.structure_tensor(("i", "k", "m")).read_off(rows, col)[2].items():
            target = system.setdefault(r, {})
            for k, v in row.items():
                if d := f.sub(target.get(k, 0), v):
                    target[k] = d
                else:
                    del target[k]
            if not target:
                del system[r]
        return nrows, ncols, system

    @_cached
    def centre_basis(self):
        """Basis of the centre, the kernel of :meth:`commutator_system`.

        Free-variable choices follow the deterministic rref pivoting, so the
        result is reproducible.
        """
        kernel = Matrix.from_nonzero_rows(self.field, *self.commutator_system()).kernel_basis()
        return [Element(self, v) for v in kernel]

    def __repr__(self):
        return f"Algebra(dim={self.dim} over {self.field})"


class Element:
    """An algebra element as a coefficient vector over the algebra's basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: Algebra, coeffs):
        if len(coeffs) != algebra.dim:
            raise ValueError("coefficient vector has wrong length")
        self.algebra = algebra
        self.coeffs = tuple(coeffs)

    def __mul__(self, other: "Element") -> "Element":
        if self.algebra is not other.algebra:
            raise ValueError("elements live in different algebras")
        alg = self.algebra
        # a b = L_a b
        ab = contract_pair(alg._translation(self.coeffs, _LEFT),
                           Tensor.vector(alg.field, "b", other.coeffs))
        return Element(alg, ab.to_matrix(("k",), ()).column(0))

    def scale(self, c) -> "Element":
        f = self.algebra.field
        return Element(self.algebra, [f.mul(c, a) for a in self.coeffs])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_central(self) -> bool:
        left, right = (self.algebra._translation(self.coeffs, legs) for legs in (_LEFT, _RIGHT))
        return left.data == right.data

    def inverse(self):
        """Two-sided inverse, or ``None`` if the element is not invertible."""
        alg = self.algebra
        la = alg.left_regular_matrix(self)
        x = la.solve(list(alg.unit))
        # a x = 1 gives x a = 1 in finite dimension: L_a onto is L_a one-to-one
        return None if x is None else Element(alg, x)

    def __repr__(self):
        names = self.algebra.basis_names
        fmt = self.algebra.field.format
        terms = [f"{fmt(c)}*{names[i]}" for i, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms) if terms else "0"

