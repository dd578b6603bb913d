"""Exact dense matrices over a :class:`~statesum.fields.Field`: storage,
comparison, the entrywise operations and elimination.

Products are not computed here.  ``@``, ``mul_vec`` and ``kron`` hand both
operands as two-leg tensors to ``tensors.contract_pair``, the one product
kernel of the library, and write its result out densely; a Kronecker product
is a contraction with no shared leg.

There is one elimination, ``Matrix._eliminate``, on rows held as sparse
dicts.  ``rref`` writes its rows out densely, and ``rank``, ``solve``,
``inverse`` and ``kernel_basis`` read that; ``frobenius.split_idempotent``
(its CR factorisation) densifies only the pivot rows.
It uses a fixed deterministic pivot rule (first nonzero entry scanning
columns left to right, rows top to bottom) so that every derived basis --
centres, idempotent images, kernels -- is reproducible across runs.

Dense storage is bounded: ``Matrix.zeros``, ``Matrix.kron``, ``@``,
``Morphism.matrix`` and the command line's matrix writer refuse a matrix of
more than ``DENSE_BUDGET`` cells with ``DenseBudgetError`` before they
allocate it, ``kron`` and ``@`` from the shapes before they contract, and
``eval`` checks it from the output signature before it contracts the
network.  Sparse results (``Morphism.nonzeros``) have no such bound.
"""

from __future__ import annotations

from .errors import DenseBudgetError, SingularMatrixError
from .fields import Field

#: The most cells (``rows * cols``) of one dense matrix.
DENSE_BUDGET = 10_000_000


def check_dense(rows: int, cols: int):
    """Raise ``DenseBudgetError`` if a dense ``rows x cols`` matrix is over budget."""
    if rows * cols > DENSE_BUDGET:
        raise DenseBudgetError(
            f"a dense {rows}x{cols} matrix has {rows * cols} cells, "
            f"over the budget of {DENSE_BUDGET}"
        )


class Matrix:
    """Immutable-by-convention dense matrix with exact entries."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data  # list of row lists; not aliased by callers

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        check_dense(rows, cols)
        z = field.zero()
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        data = [list(r) for r in rows]
        ncols = len(data[0]) if data else 0
        for r in data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(field, len(data), ncols, data)

    @classmethod
    def from_nonzero_rows(cls, field: Field, rows: int, cols: int, nonzeros) -> "Matrix":
        """The matrix with the ``{row: {col: value}}`` entries, zero elsewhere."""
        m = cls.zeros(field, rows, cols)
        for i, row in nonzeros.items():
            target = m.data[i]
            for j, v in row.items():
                target[j] = v
        return m

    @classmethod
    def column_vector(cls, field: Field, vec) -> "Matrix":
        return cls(field, len(vec), 1, [[v] for v in vec])

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, [row[:] for row in self.data])

    # -- basic queries ---------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def nonzero_rows(self) -> dict:
        """The nonzero entries as ``{row: {col: value}}``, nonzero rows only."""
        out = {}
        for i, row in enumerate(self.data):
            nonzero = {j: v for j, v in enumerate(row) if v != 0}
            if nonzero:
                out[i] = nonzero
        return out

    def row(self, i):
        return list(self.data[i])

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    # -- arithmetic -------------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        check_dense(self.rows, other.cols)
        return _product(self, ("i", "k"), other, ("k", "j"), ("i",), ("j",))

    def mul_vec(self, vec):
        """Matrix times column vector, returned as a list."""
        return (self @ Matrix.column_vector(self.field, vec)).column(0)

    def add(self, other: "Matrix") -> "Matrix":
        f = self.field
        if (self.rows, self.cols, f) != (other.rows, other.cols, other.field):
            raise ValueError(f"cannot add a {other.rows}x{other.cols} matrix over {other.field} "
                             f"to a {self.rows}x{self.cols} one over {f}")
        return Matrix(
            f, self.rows, self.cols,
            [[f.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols, [[f.mul(c, x) for x in row] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field, self.cols, self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; left factor is the most significant index."""
        check_dense(self.rows * other.rows, self.cols * other.cols)
        return _product(self, ("i", "j"), other, ("k", "l"), ("i", "k"), ("j", "l"))

    # -- elimination --------------------------------------------------------------

    def _eliminate(self):
        """The sparse elimination behind :meth:`rref`: ``(rows, pivots)``,
        the reduced rows as dicts of their nonzeros (the ``len(pivots)``
        pivot rows first, then empty ones) and the pivot columns.

        Rows are eliminated through the field's operations, for Q and F_p
        alike.  Pivot choice is deterministic: scan columns left to right,
        take the first row (top to bottom) at or below the current rank with
        a nonzero entry.  The scan stops once the rows below the pivots are
        zero.
        """
        f = self.field
        rows = [{j: v for j, v in enumerate(row) if v != 0} for row in self.data]
        pivots = []
        for c in range(self.cols):
            r = len(pivots)
            found = next((i for i in range(r, self.rows) if c in rows[i]), None)
            if found is None:
                continue
            rows[r], rows[found] = rows[found], rows[r]
            inv = f.inv(rows[r][c])
            pivot_row = rows[r] = {j: f.mul(x, inv) for j, x in rows[r].items()}
            for i, row in enumerate(rows):
                factor = row.get(c)
                if factor is None or i == r:
                    continue
                for j, y in pivot_row.items():
                    v = f.sub(row.get(j, 0), f.mul(factor, y))
                    if v == 0:
                        del row[j]
                    else:
                        row[j] = v
            pivots.append(c)
            if not any(rows[r + 1:]):
                break
        return rows, pivots

    def rref(self):
        """Reduced row-echelon form ``(R, pivot_columns, rank)`` of the
        elimination :meth:`_eliminate`; only reading the matrix and writing
        ``R`` visit every cell."""
        rows, pivots = self._eliminate()
        zero = self.field.zero()
        data = [[row.get(j, zero) for j in range(self.cols)] if row else [zero] * self.cols
                for row in rows]
        return Matrix(self.field, self.rows, self.cols, data), tuple(pivots), len(pivots)

    def rank(self) -> int:
        return self.rref()[2]

    def solve(self, b):
        """One exact solution of ``self @ x = b`` or ``None`` if inconsistent.

        Free variables are set to zero under the deterministic pivot rule.
        """
        if len(b) != self.rows:
            raise ValueError("right-hand side has wrong length")
        aug = Matrix(
            self.field, self.rows, self.cols + 1,
            [row[:] + [b[i]] for i, row in enumerate(self.data)],
        )
        red, pivots, rank = aug.rref()
        if rank and pivots[-1] == self.cols:
            return None
        x = [self.field.zero()] * self.cols
        for r, c in enumerate(pivots):
            x[c] = red.data[r][self.cols]
        return x

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        aug = Matrix(
            self.field, n, 2 * n,
            [
                row[:] + [self.field.one() if i == j else self.field.zero() for j in range(n)]
                for i, row in enumerate(self.data)
            ],
        )
        red, pivots, rank = aug.rref()
        if rank < n or any(c != i for i, c in enumerate(pivots)):
            raise SingularMatrixError(f"matrix of rank {rank} < {n} has no inverse")
        return Matrix(self.field, n, n, [row[n:] for row in red.data])

    def kernel_basis(self):
        """Deterministic basis of the null space, one vector per free column."""
        red, pivots, rank = self.rref()
        pivot_set = set(pivots)
        basis = []
        f = self.field
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = [f.zero()] * self.cols
            v[free] = f.one()
            for r, c in enumerate(pivots):
                v[c] = f.neg(red.data[r][free])
            basis.append(v)
        return basis


def _product(a, a_legs, b, b_legs, row_legs, col_legs) -> Matrix:
    """The dense matrix of ``tensors.contract_pair`` of ``a`` and ``b`` as
    two-leg tensors, read off with ``row_legs`` and ``col_legs``."""
    from .tensors import Tensor, contract_pair  # tensors imports this module
    t = contract_pair(Tensor.from_matrix_sparse(a_legs, a), Tensor.from_matrix_sparse(b_legs, b))
    return t.to_matrix(row_legs, col_legs)
