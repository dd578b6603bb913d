"""Typed linear maps between tensor products of the open and closed spaces.

A :class:`Morphism` is a sparse exact matrix, its nonzero entries grouped by
row as ``{row: {col: value}}`` (nonzero rows only), together with domain and
codomain signatures.  A signature is an ordered tuple of factors; each
factor is the full algebra ``A`` or a split image such as ``C = p(A)``.
Tensor indices are lexicographic in factor order with the leftmost factor
most significant, so the matrix of ``f (x) g`` is the Kronecker product of
the matrices.

State sums are very sparse (raw ``strip(4, 4)`` over a 13-dimensional
algebra keeps 6,817 of 8.2x10^8 entries), so every operation here works on
the nonzeros: ``compose`` contracts the two maps as a two-tensor network
(the row-by-row product of ``tensors.contract_pair``, over integers when the
field is ``Q``), ``tensor`` is one ``contract_pair`` of the two maps with no
shared leg, and ``equal`` compares the nonzeros.  The dense ``matrix`` is
built only when asked for, within ``linalg.DENSE_BUDGET``.  Rows are dicts
keyed by column, not one dict keyed by ``(row, col)`` tuples: a tuple key
costs more than the dense cell it replaces when a result is not sparse, as
many small state sums are not.

Keeping the signatures on the value means that composing a reduced state sum
with the wrong leg type fails loudly instead of silently reindexing.
"""

from __future__ import annotations

from .errors import SignatureMismatchError
from .fields import Field
from .linalg import Matrix
from .tensors import Tensor, contract_pair, greedy_contract

FULL = "full"    # the algebra A itself
SPLIT = "split"  # a split image, e.g. C = p(A) or im P_kk


class Factor:
    """One tensor factor of a signature, immutable and compared by value."""

    __slots__ = ("kind", "dim")

    def __init__(self, kind: str, dim: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError(f"Factor is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.dim) == (other.kind, other.dim)

    def __hash__(self):
        return hash((self.kind, self.dim))

    def __repr__(self):
        return f"{self.kind}({self.dim})"


def full_factor(dim: int) -> Factor:
    return Factor(FULL, dim)


def split_factor(dim: int) -> Factor:
    return Factor(SPLIT, dim)


def signature_dim(signature) -> int:
    d = 1
    for f in signature:
        d *= f.dim
    return d


class Morphism:
    __slots__ = ("field", "domain", "codomain", "rows", "cols", "nonzeros")

    def __init__(self, field: Field, domain, codomain, nonzeros):
        """``nonzeros`` is ``{row: {col: nonzero value}}`` without empty rows,
        or a dense :class:`Matrix`."""
        self.field = field
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.rows = signature_dim(self.codomain)
        self.cols = signature_dim(self.domain)
        if isinstance(nonzeros, Matrix):
            if (nonzeros.rows, nonzeros.cols) != (self.rows, self.cols):
                raise ValueError(
                    f"matrix {nonzeros.rows}x{nonzeros.cols} does not match signatures "
                    f"{self.codomain} <- {self.domain}"
                )
            nonzeros = nonzeros.nonzero_rows()
        self.nonzeros = nonzeros

    @property
    def nnz(self) -> int:
        return sum(map(len, self.nonzeros.values()))

    @property
    def matrix(self) -> Matrix:
        """The dense matrix, built on every call (``DenseBudgetError`` over
        ``linalg.DENSE_BUDGET`` cells)."""
        return Matrix.from_nonzero_rows(self.field, self.rows, self.cols, self.nonzeros)

    @classmethod
    def identity(cls, field: Field, signature) -> "Morphism":
        one = field.one()
        return cls(field, signature, signature,
                   {i: {i: one} for i in range(signature_dim(signature))})

    @classmethod
    def scalar(cls, field: Field, value) -> "Morphism":
        return cls(field, (), (), {0: {0: value}} if value != 0 else {})

    def _tensor(self, legs) -> Tensor:
        return Tensor.from_rows(self.field, legs, (self.rows, self.cols), self.nonzeros)

    def compose(self, other: "Morphism") -> "Morphism":
        """``self`` after ``other``."""
        if self.domain != other.codomain:
            raise SignatureMismatchError(
                f"cannot compose: domain {self.domain} != codomain {other.codomain}"
            )
        nonzeros = greedy_contract([self._tensor(("out", "mid")), other._tensor(("mid", "in"))],
                                   ["out"], ["in"])[2]
        return Morphism(self.field, other.domain, self.codomain, nonzeros)

    def tensor(self, other: "Morphism") -> "Morphism":
        """``self (x) other``: a contraction with no shared leg."""
        t = contract_pair(self._tensor(("out1", "in1")), other._tensor(("out2", "in2")))
        return Morphism(self.field, self.domain + other.domain, self.codomain + other.codomain,
                        t.read_off(("out1", "out2"), ("in1", "in2"))[2])

    def equal(self, other: "Morphism") -> bool:
        return (
            self.field == other.field
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.nonzeros == other.nonzeros
        )

    def __eq__(self, other):
        return isinstance(other, Morphism) and self.equal(other)

    def scalar_value(self):
        if self.domain or self.codomain:
            raise ValueError("not a scalar morphism")
        return self.nonzeros.get(0, {}).get(0, self.field.zero())

    def __repr__(self):
        return f"Morphism({list(self.codomain)} <- {list(self.domain)})"

