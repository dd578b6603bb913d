"""Symmetric Frobenius structures on strongly separable algebras.

A structure is keyed by its counit vector; the pairing ``g = eps o mu``, its
inverse and the window element are derived at construction time, so
validation errors surface immediately; the comultiplication and every later
map are derived on first use.  As in ``algebra``, every derived map is a
contraction of the structure tensor ``c_ijk`` through
``tensors.contract_pair``: ``Delta`` contracts it with the inverse pairing,
the window element contracts the inverse pairing with it, the trilinear
form ``g3`` contracts it with the pairing, and the canonical idempotent
``p`` contracts ``Delta`` with it twice, once for ``mu o tau`` and once for
``a^{-1} . id``.  Later derivations are memoised by ``algebra._cached``.

Checked on input, each with a typed error: associativity and the unit laws
(in ``Algebra``), symmetry and nondegeneracy of ``g = eps o mu``, and an
invertible window.  The other laws are theorems of these (Abrams 1996; Kock,
*Frobenius Algebras and 2D TQFTs*, 2.3), not checked again: the counit laws
follow from ``g* = g^-1`` and the unit law; coassociativity and the Frobenius
relation from associativity via ``g(xy, z) = g(x, yz)``; a central window
because the Casimir element ``sum g*[a][b] e_a (x) e_b`` commutes with every
``y``; ``p^2 = p`` because, ``g`` being symmetric, ``mu o tau o Delta`` has
central image and multiplies central elements by ``a``; and ``Delta_C`` is
the transported ``(coim (x) coim) o Delta_A o (a . id) o im`` because ``p``
is ``g``-self-adjoint and commutes with central multiplication.

The window element ``a = mu o Delta o eta`` is invertible exactly when the
algebra is strongly separable.  Everything downstream (the canonical
central idempotent ``p``, the split closed-string space ``C = p(A)``, the
boundary projector families ``P_kl``/``Q_kl`` and the isomorphisms that
normalise boundary triangulations) assumes an invertible window, so the
constructor insists on one.
"""

from __future__ import annotations

from .algebra import Algebra, Element, _cached, _first_difference
from .errors import (
    ArityError,
    DegeneratePairingError,
    NotCentralError,
    NotIdempotentError,
    NotInvertibleError,
    NotStronglySeparableError,
    NotSymmetricError,
    SingularMatrixError,
    WindowNotInvertibleError,
)
from .linalg import Matrix
from .morphism import Factor, Morphism, full_factor, split_factor
from .tensors import Tensor, contract_pair, greedy_contract


class FrobeniusStructure:
    """A symmetric Frobenius algebra with invertible window element."""

    __slots__ = ("algebra", "counit", "pairing", "pairing_inverse",
                 "window", "window_inverse", "_cache")

    def __init__(self, algebra: Algebra, counit):
        n = algebra.dim
        counit = tuple(counit)
        if len(counit) != n:
            raise ValueError("counit vector has wrong length")
        self.algebra = algebra
        self.counit = counit

        g = algebra.bilinear_form(counit)
        if not g.is_symmetric():
            raise NotSymmetricError("eps o mu is not a symmetric form")
        try:
            self.pairing_inverse = g.inverse()
        except SingularMatrixError:
            raise DegeneratePairingError("eps o mu is degenerate") from None
        self.pairing = g
        self._cache = {}

        # window = mu o Delta o eta = sum g*[a][b] e_a e_b, central: the Casimir commutes with all y
        gstar = Tensor.from_matrix_sparse(("a", "b"), self.pairing_inverse)
        wvec = contract_pair(gstar, algebra.structure_tensor(("a", "b", "k")))
        window = Element(algebra, wvec.to_matrix(("k",), ()).column(0))
        inv = window.inverse()
        if inv is None:
            raise WindowNotInvertibleError(
                "window element is not invertible; the algebra is not strongly separable"
            )
        self.window = window
        self.window_inverse = inv

    # -- basic derived matrices ----------------------------------------------

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @_cached
    def mu_matrix(self) -> Matrix:
        """Multiplication as an ``n x n^2`` matrix (columns indexed i*n+j)."""
        return self.algebra.structure_tensor(("i", "j", "k")).to_matrix(("k",), ("i", "j"))

    @_cached
    def delta_tensor(self) -> Tensor:
        """``Delta(e_i) = sum_{a,b} g*[a][b] (e_i e_a) (x) e_b`` as the tensor
        with legs ``(i, j, b)``: input ``i``, outputs ``j (x) b``."""
        gstar = Tensor.from_matrix_sparse(("a", "b"), self.pairing_inverse)
        return contract_pair(self.algebra.structure_tensor(("i", "a", "j")), gstar)

    @_cached
    def delta_matrix(self) -> Matrix:
        """Comultiplication as an ``n^2 x n`` matrix (rows indexed j*n+b)."""
        return self.delta_tensor().to_matrix(("j", "b"), ("i",))

    def eps_matrix(self) -> Matrix:
        return Matrix(self.field, 1, self.dim, [list(self.counit)])

    def eta_matrix(self) -> Matrix:
        return Matrix.column_vector(self.field, list(self.algebra.unit))

    @_cached
    def window_power_matrix(self, k: int) -> Matrix:
        """Matrix of the central action ``a^k . id`` (negative powers allowed),
        by repeated squaring: the powers of one matrix commute, and exact
        arithmetic makes every grouping of the product equal."""
        base = self.window if k >= 0 else self.window_inverse
        m = Matrix.identity(self.field, self.dim)
        square = self.algebra.left_regular_matrix(base)
        n = abs(k)
        while n:
            if n & 1:
                m = square @ m
            n >>= 1
            if n:
                square = square @ square
        return m

    def is_special(self) -> bool:
        """Window element equal to an invertible scalar multiple of the unit."""
        f = self.field
        w, u = self.window.coeffs, self.algebra.unit
        zeta = None
        for wi, ui in zip(w, u):
            if ui == 0:
                if wi != 0:
                    return False
                continue
            cand = f.div(wi, ui)
            if zeta is None:
                zeta = cand
            elif cand != zeta:
                return False
        return zeta is not None and zeta != 0

    # -- trilinear form -------------------------------------------------------

    @_cached
    def trilinear(self) -> dict:
        """Sparse ``g3[(i,j,k)] = eps(e_i e_j e_k) = sum_m c_ijm g[m][k]``;
        cyclically invariant."""
        g = Tensor.from_matrix_sparse(("m", "k"), self.pairing)
        return contract_pair(self.algebra.structure_tensor(("i", "j", "m")), g).data

    # -- the canonical central idempotent --------------------------------------

    @_cached
    def idempotent_matrix(self) -> Matrix:
        """Matrix of ``p = (a^{-1} . id) o mu o tau o Delta``:
        ``p[r][i] = sum a^{-1}_x c_xkr c_bjk Delta(e_i)[j, b]``."""
        alg = self.algebra
        mu_tau_delta = contract_pair(self.delta_tensor(), alg.structure_tensor(("b", "j", "k")))
        ainv = contract_pair(Tensor.vector(self.field, "x", self.window_inverse.coeffs),
                             alg.structure_tensor(("x", "k", "r")))
        # p^2 = p: mu o tau o Delta has central image and is a . id on the centre
        return contract_pair(mu_tau_delta, ainv).to_matrix(("r",), ("i",))

    @_cached
    def split_p(self):
        return split_idempotent(self.idempotent_matrix())

    # -- iterated (co)multiplication and the P/Q families ----------------------

    @_cached
    def iterated_mu_matrix(self, arity: int) -> Matrix:
        if arity < 1:
            raise ArityError("iterated multiplication needs arity >= 1")
        if arity == 1:
            return Matrix.identity(self.field, self.dim)
        if arity == 2:
            return self.mu_matrix()
        prev = self.iterated_mu_matrix(arity - 1)
        return self.mu_matrix() @ prev.kron(Matrix.identity(self.field, self.dim))

    @_cached
    def iterated_delta_matrix(self, arity: int) -> Matrix:
        if arity < 1:
            raise ArityError("iterated comultiplication needs arity >= 1")
        if arity == 1:
            return Matrix.identity(self.field, self.dim)
        if arity == 2:
            return self.delta_matrix()
        prev = self.iterated_delta_matrix(arity - 1)
        return prev.kron(Matrix.identity(self.field, self.dim)) @ self.delta_matrix()

    @_cached
    def p_matrix(self, k: int, l: int) -> Matrix:
        """``P_kl = Delta^(k) o (a^{-(k-1)} . id) o mu^(l)`` as a matrix."""
        return (self.iterated_delta_matrix(k)
                @ self.window_power_matrix(-(k - 1))
                @ self.iterated_mu_matrix(l))

    @_cached
    def q_matrix(self, k: int, l: int) -> Matrix:
        return (self.iterated_delta_matrix(k)
                @ self.window_power_matrix(-(k - 1))
                @ self.idempotent_matrix()
                @ self.iterated_mu_matrix(l))

    @_cached
    def split_pkk(self, k: int):
        return split_idempotent(self.p_matrix(k, k))

    @_cached
    def split_qkk(self, k: int):
        return split_idempotent(self.q_matrix(k, k))

    @_cached
    def phi_matrices(self, k: int):
        """Iso ``A -> P_kk(A^k)`` and its inverse, as matrices."""
        im, coim = self.split_pkk(k)
        return coim @ self.p_matrix(k, 1), self.p_matrix(1, k) @ im

    @_cached
    def psi_matrices(self, k: int):
        """Iso ``p(A) -> Q_kk(A^k)`` and its inverse, as matrices."""
        im_q, coim_q = self.split_qkk(k)
        im_p, coim_p = self.split_p()
        return coim_q @ self.q_matrix(k, 1) @ im_p, coim_p @ self.q_matrix(1, k) @ im_q

    @_cached
    def closed_window_matrix(self, power: int):
        """Multiplication by ``a^power`` on the split closed space ``p(A)``."""
        im_p, coim_p = self.split_p()
        return coim_p @ self.window_power_matrix(power) @ im_p

    @_cached
    def circle_boundary_matrices(self, k: int):
        """The circle-leg isomorphisms of the full state sum, from the pivot
        splitting of ``Q_kk``.

        These are the psi isomorphisms corrected by one central window factor
        on the closed space: the correction makes the evaluated generators
        land exactly on the knowledgeable Frobenius algebra obtained from the
        idempotent splitting, rather than on its transport along
        multiplication by the window element.  The state sum never forms
        them; it applies the same correction on the closed-form splitting.
        """
        psi, psi_inv = self.psi_matrices(k)
        return psi @ self.closed_window_matrix(-1), self.closed_window_matrix(1) @ psi_inv

    @_cached
    def knowledgeable(self) -> "KnowledgeableFrobenius":
        return knowledgeable_from_frobenius(self)

    def __repr__(self):
        return f"FrobeniusStructure(dim={self.dim} over {self.field})"


# -- constructors --------------------------------------------------------------


def frobenius_from_window(algebra: Algebra, z: Element) -> FrobeniusStructure:
    """The unique symmetric Frobenius structure with window element ``z``.

    The counit is ``x -> trace(L_{z^{-1} x})``.  With ``z`` the unit this is
    the canonical structure whose pairing is the canonical bilinear form.
    """
    if not algebra.is_strongly_separable():
        raise NotStronglySeparableError("canonical bilinear form is degenerate")
    if z.algebra is not algebra:
        raise ValueError("window candidate lives in a different algebra")
    if not z.is_central():
        raise NotCentralError("window candidate is not central")
    zinv = z.inverse()
    if zinv is None:
        raise NotInvertibleError("window candidate is not invertible")
    # eps(e_k) = trace(L_{z^{-1} e_k}) = sum_j G[k][j] z^{-1}_j, G the canonical form
    return FrobeniusStructure(algebra, algebra.canonical_pairing().mul_vec(list(zinv.coeffs)))


def canonical_frobenius(algebra: Algebra) -> FrobeniusStructure:
    return frobenius_from_window(algebra, algebra.unit_element())


# -- free-function forms of the structure operations ------------------------------


def split_idempotent(p: Matrix):
    """Split ``p = im o coim`` with ``coim o im = id`` on the image.

    This is the CR factorisation ``p = C R`` of one row reduction (Strang &
    Moler, *SIAM Review* 64, 2022): ``im`` is the columns of ``p`` at the
    pivot columns of ``rref(p)`` and ``coim`` the first ``rank`` rows of its
    ``R``, the only ones written out densely.  As ``im`` has full column
    rank, that ``coim`` is the only one with ``p = im o coim``, and
    ``coim o im = id`` follows when ``p`` is idempotent.
    """
    if p.rows != p.cols:
        raise NotIdempotentError("idempotent must be square")
    rows, pivots = p._eliminate()
    rank = len(pivots)
    im = Matrix(p.field, p.rows, rank, [[row[c] for c in pivots] for row in p.data])
    # p fixes its column space pointwise iff p is idempotent
    if p @ im != im:
        raise NotIdempotentError("matrix is not idempotent")
    zero = p.field.zero()
    coim = [[row.get(j, zero) for j in range(p.cols)] for row in rows[:rank]]
    return im, Matrix(p.field, rank, p.cols, coim)


def idempotent_property_report(F: FrobeniusStructure):
    """Exact check of the defining properties of the canonical idempotent.

    Returns a list of ``(name, ok)`` pairs covering: idempotence, unit and
    counit compatibility, the four absorption identities, fixing of central
    elements, commuting with central multiplications, and centrality of the
    image.
    """
    f = F.field
    n = F.dim
    P = F.idempotent_matrix()
    results = []

    results.append(("p squared equals p", P @ P == P))
    results.append(("p fixes the unit", P.mul_vec(list(F.algebra.unit)) == list(F.algebra.unit)))
    eps_row = F.eps_matrix()
    results.append(("counit absorbs p", eps_row @ P == eps_row))

    # the absorption identities on sparse maps of A (x) A, as in check_knowledgeable
    a = full_factor(n)
    mu = _structure_morphisms(F, a)[2]
    delta = _delta_morphism(F, a)
    p = Morphism(f, (a,), (a,), P)
    ident = Morphism.identity(f, (a,))
    # p (x) p = (p (x) id) o (id (x) p) is applied in two steps, never built:
    # it has nnz(p)^2 nonzeros, 6.8 million on Q[S_5]
    p_id, id_p = p.tensor(ident), ident.tensor(p)
    mu_p_id = mu.compose(p_id)
    a2 = mu_p_id.compose(id_p)
    a1, a3, a4 = p.compose(a2), p.compose(mu_p_id), p.compose(mu.compose(id_p))
    results.append(("multiplication absorption", a1 == a2 == a3 == a4))
    delta_p = delta.compose(p)
    b2 = p_id.compose(id_p.compose(delta))
    b1, b3, b4 = b2.compose(p), p_id.compose(delta_p), id_p.compose(delta_p)
    results.append(("comultiplication absorption", b1 == b2 == b3 == b4))

    centre = F.algebra.centre_basis()
    results.append(
        ("p fixes central elements",
         all(P.mul_vec(list(c.coeffs)) == list(c.coeffs) for c in centre))
    )
    results.append(
        ("p commutes with central multiplications",
         all(F.algebra.left_regular_matrix(c) @ P == P @ F.algebra.left_regular_matrix(c)
             for c in centre))
    )
    # the columns of p are central iff the commutator system kills them all;
    # greedy_contract runs the product over integers when the field is Q
    rows, cols, system = F.algebra.commutator_system()
    commutators = greedy_contract([Tensor.from_rows(f, ("im", "k"), (rows, cols), system),
                                   Tensor.from_matrix_sparse(("k", "j"), P)])
    results.append(("image of p is central", not commutators.data))
    return results


class KnowledgeableFrobenius:
    """Open/closed pair ``(A, C, iota, iota_star)`` with its structure maps."""

    def __init__(self, A: FrobeniusStructure, C: FrobeniusStructure, iota: Matrix,
                 iota_star: Matrix):
        self.A = A
        self.C = C
        self.iota = iota            # C -> A, n x d
        self.iota_star = iota_star  # A -> C, d x n


def knowledgeable_from_frobenius(F: FrobeniusStructure) -> KnowledgeableFrobenius:
    """Split the canonical idempotent and transport the structure to ``C = p(A)``.

    ``mu_C = coim o mu_A o (im (x) im)``, ``eta_C = coim o eta_A``,
    ``Delta_C = (coim (x) coim) o Delta_A o (a . id) o im``,
    ``eps_C = eps_A o (a^{-1} . id) o im``, ``iota = im`` and
    ``iota_star = coim o (a . id)``.  ``mu_C`` contracts the structure tensor
    with ``im`` on its two inputs and ``coim`` on its output.
    """
    f = F.field
    im, coim = F.split_p()
    d = im.cols
    mu_c = contract_pair(Tensor.from_matrix_sparse(("i", "x"), im),
                         F.algebra.structure_tensor(("i", "j", "k")))
    mu_c = contract_pair(mu_c, Tensor.from_matrix_sparse(("j", "y"), im))
    mu_c = contract_pair(mu_c, Tensor.from_matrix_sparse(("z", "k"), coim))
    eta_c = coim.mul_vec(list(F.algebra.unit))
    eps_c = (F.eps_matrix() @ F.window_power_matrix(-1) @ im).row(0)

    c_names = [f"c{i}" for i in range(d)]
    c_alg = Algebra(f, d, ((*xyz, c) for xyz, c in mu_c.data.items()), eta_c, basis_names=c_names)
    # Delta_C is the transported Delta, as p is g-self-adjoint and commutes with a . id
    c_frob = FrobeniusStructure(c_alg, eps_c)
    return KnowledgeableFrobenius(A=F, C=c_frob, iota=im,
                                  iota_star=coim @ F.window_power_matrix(1))


def _structure_morphisms(F: FrobeniusStructure, x: Factor):
    """``(eta, eps, mu, tau)`` of ``F`` on the factor ``x``, from the nonzeros
    of its structure maps; ``tau`` is the flip of ``x (x) x``."""
    f, n = F.field, F.dim
    one = f.one()
    mu = F.algebra.structure_tensor(("i", "j", "k")).read_off(["k"], ["i", "j"])[2]
    return (Morphism(f, (), (x,), F.eta_matrix()),
            Morphism(f, (x,), (), F.eps_matrix()),
            Morphism(f, (x, x), (x,), mu),
            Morphism(f, (x, x), (x, x),
                     {j * n + i: {i * n + j: one} for i in range(n) for j in range(n)}))


def _delta_morphism(F: FrobeniusStructure, x: Factor):
    """``Delta`` of ``F`` on the factor ``x``, from the nonzeros of its tensor."""
    return Morphism(F.field, (x,), (x, x), F.delta_tensor().read_off(["j", "b"], ["i"])[2])


def check_knowledgeable(K: KnowledgeableFrobenius):
    """Verify the axioms of a knowledgeable Frobenius algebra exactly.

    Each axiom is an equality of sparse :class:`~statesum.morphism.Morphism`
    composites built from the nonzeros of the structure maps, so no dense
    matrix on ``A (x) A`` is formed.  Returns a list of ``(axiom, ok,
    witness)`` triples; ``witness`` is the first matrix index, in row-major
    order, where the two sides differ, or ``None``.
    """
    A, C = K.A, K.C
    f = A.field
    a, c = full_factor(A.dim), split_factor(C.dim)
    eta_a, eps_a, mu_a, tau_a = _structure_morphisms(A, a)
    eta_c, eps_c, mu_c, tau_c = _structure_morphisms(C, c)
    delta_a = _delta_morphism(A, a)
    iota = Morphism(f, (c,), (a,), K.iota)
    iota_star = Morphism(f, (a,), (c,), K.iota_star)
    iota_id = iota.tensor(Morphism.identity(f, (a,)))
    open_form = eps_a.compose(mu_a)
    axioms = [
        ("iota preserves unit", iota.compose(eta_c), eta_a),
        ("iota is an algebra map", iota.compose(mu_c), mu_a.compose(iota.tensor(iota))),
        ("knowledge", mu_a.compose(iota_id), mu_a.compose(tau_a).compose(iota_id)),
        ("duality",
         eps_c.compose(mu_c).compose(Morphism.identity(f, (c,)).tensor(iota_star)),
         open_form.compose(iota_id)),
        ("cardy", mu_a.compose(tau_a).compose(delta_a), iota.compose(iota_star)),
        ("open symmetry", open_form, open_form.compose(tau_a)),
        ("closed commutativity", mu_c, mu_c.compose(tau_c)),
    ]
    results = []
    for name, lhs, rhs in axioms:
        witness = _first_difference(*({(i, j): v for i, row in m.nonzeros.items() for j, v in row.items()}
                                      for m in (lhs, rhs)))
        results.append((name, witness is None, witness))
    return results


def all_axioms_pass(report) -> bool:
    return all(ok for (_, ok, _) in report)
