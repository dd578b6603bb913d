"""Symmetric Frobenius structures on strongly separable algebras.

A structure is keyed by its counit vector; the pairing ``g = eps o mu``, its
inverse, the comultiplication, and the window element are all derived at
construction time, so validation errors surface immediately and later
operations are table lookups.  As in ``algebra``, every derived map is a
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

from dataclasses import dataclass

from .algebra import Algebra, Element, _cached
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
from .tensors import Tensor, contract_pair


class FrobeniusStructure:
    """A symmetric Frobenius algebra with invertible window element."""

    __slots__ = ("algebra", "counit", "pairing", "pairing_inverse", "comul",
                 "window", "window_inverse", "_cache")

    def __init__(self, algebra: Algebra, counit):
        f = algebra.field
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

        # Delta(e_i) as rows of sorted (j, b, value); its laws follow from g(xy, z) = g(x, yz)
        comul = [[] for _ in range(n)]
        for (i, j, b), v in sorted(self.delta_tensor().data.items()):
            comul[i].append((j, b, v))
        self.comul = tuple(map(tuple, comul))

        # window = mu o Delta o eta = sum g*[a][b] e_a e_b, central: the Casimir commutes with all y
        gstar = Tensor.from_matrix_sparse(f, ("a", "b"), (n, n), self.pairing_inverse)
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
        n = self.dim
        gstar = Tensor.from_matrix_sparse(self.field, ("a", "b"), (n, n), self.pairing_inverse)
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
    def swap(self) -> Matrix:
        """Matrix of the flip ``x (x) y -> y (x) x`` on ``A (x) A``."""
        n = self.dim
        m = Matrix.zeros(self.field, n * n, n * n)
        one = self.field.one()
        for i in range(n):
            for j in range(n):
                m.data[j * n + i][i * n + j] = one
        return m

    @_cached
    def window_power_matrix(self, k: int) -> Matrix:
        """Matrix of the central action ``a^k . id`` (negative powers allowed)."""
        base = self.window if k >= 0 else self.window_inverse
        m = Matrix.identity(self.field, self.dim)
        lb = self.algebra.left_regular_matrix(base)
        for _ in range(abs(k)):
            m = lb @ m
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
        n = self.dim
        g = Tensor.from_matrix_sparse(self.field, ("m", "k"), (n, n), self.pairing)
        return contract_pair(self.algebra.structure_tensor(("i", "j", "m")), g).data

    # -- the canonical central idempotent --------------------------------------

    @_cached
    def idempotent_matrix(self) -> Matrix:
        """Matrix of ``p = (a^{-1} . id) o mu o tau o Delta``:
        ``p[r][i] = sum a^{-1}_x c_xkr c_bjk Delta(e_i)[j, b]``."""
        alg, n = self.algebra, self.dim
        mu_tau_delta = contract_pair(self.delta_tensor(), alg.structure_tensor(("b", "j", "k")))
        ainv = contract_pair(Tensor.vector(self.field, "x", n, self.window_inverse.coeffs),
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


def window_element(F: FrobeniusStructure) -> Element:
    """Recompute ``mu o Delta o eta`` directly (always central)."""
    alg = F.algebra
    f = alg.field
    n = alg.dim
    two = [f.zero()] * (n * n)
    for i, ui in enumerate(alg.unit):
        if ui == 0:
            continue
        for (j, b, v) in F.comul[i]:
            two[j * n + b] = f.add(two[j * n + b], f.mul(ui, v))
    out = [f.zero()] * n
    for j in range(n):
        for b in range(n):
            c = two[j * n + b]
            if c == 0:
                continue
            for k, cc in alg.mul_row(j, b):
                out[k] = f.add(out[k], f.mul(c, cc))
    return Element(alg, out)


def split_idempotent(p: Matrix):
    """Split ``p = im o coim`` with ``coim o im = id`` on the image.

    The image basis is the pivot columns of ``rref(p)`` -- equivalently the
    leftmost maximal independent column set, found here by a greedy scan so
    that projectors with low rank but large ambient dimension (the boundary
    projectors on ``A^{(x)k}``) split in ``O(cols * rank * rows)`` time.
    """
    f = p.field
    nrows, ncols = p.rows, p.cols
    if nrows != ncols:
        raise NotIdempotentError("idempotent must be square")
    cols_sparse = [{} for _ in range(ncols)]
    for i, row in enumerate(p.data):
        for j, v in enumerate(row):
            if v != 0:
                cols_sparse[j][i] = v
    # echelon basis of selected columns: (lead row, normalized sparse vector,
    # representation of that vector over the selected original columns)
    basis = []
    selected = []
    coords = []  # per input column: dict selected-position -> coefficient
    for j in range(ncols):
        v = dict(cols_sparse[j])
        combo = {}
        for (lead, w, rep) in basis:
            c = v.get(lead)
            if not c:
                continue
            for idx, y in w.items():
                nv = f.sub(v.get(idx, 0), f.mul(c, y))
                if nv == 0:
                    v.pop(idx, None)
                else:
                    v[idx] = nv
            for pos, r in rep.items():
                combo[pos] = f.add(combo.get(pos, f.zero()), f.mul(c, r))
        if not v:
            coords.append(combo)
            continue
        lead = min(v)
        inv = f.inv(v[lead])
        w = {idx: f.mul(inv, x) for idx, x in v.items()}
        rep = {pos: f.neg(f.mul(inv, r)) for pos, r in combo.items()}
        pos = len(selected)
        rep[pos] = inv
        basis.append((lead, w, rep))
        selected.append(j)
        coords.append({pos: f.one()})
    rank = len(selected)
    im = Matrix(f, nrows, rank, [[p.data[i][c] for c in selected] for i in range(nrows)])
    coim = Matrix.zeros(f, rank, ncols)
    for j, combo in enumerate(coords):
        for pos, c in combo.items():
            coim.data[pos][j] = c
    # p fixes its column space pointwise iff p is idempotent
    if p @ im != im:
        raise NotIdempotentError("matrix is not idempotent")
    return im, coim


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
    I = Matrix.identity(f, n)
    MU = F.mu_matrix()
    DE = F.delta_matrix()
    TAU = F.swap()
    results = []

    results.append(("p squared equals p", P @ P == P))
    results.append(("p fixes the unit", P.mul_vec(list(F.algebra.unit)) == list(F.algebra.unit)))
    eps_row = F.eps_matrix()
    results.append(("counit absorbs p", eps_row @ P == eps_row))

    pp = P.kron(P)
    a1 = P @ MU @ pp
    a2 = MU @ pp
    a3 = P @ MU @ P.kron(I)
    a4 = P @ MU @ I.kron(P)
    results.append(("multiplication absorption", a1 == a2 and a2 == a3 and a3 == a4))

    b1 = pp @ DE @ P
    b2 = pp @ DE
    b3 = P.kron(I) @ DE @ P
    b4 = I.kron(P) @ DE @ P
    results.append(("comultiplication absorption", b1 == b2 and b2 == b3 and b3 == b4))

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
    results.append(("image of p is central", MU @ P.kron(I) == MU @ TAU @ P.kron(I)))
    return results


@dataclass
class KnowledgeableFrobenius:
    """Open/closed pair ``(A, C, iota, iota_star)`` with its structure maps."""

    A: FrobeniusStructure
    C: FrobeniusStructure
    iota: Matrix       # C -> A, n x d
    iota_star: Matrix  # A -> C, d x n


def knowledgeable_from_frobenius(F: FrobeniusStructure) -> KnowledgeableFrobenius:
    """Split the canonical idempotent and transport the structure to ``C = p(A)``.

    ``mu_C = coim o mu_A o (im (x) im)``, ``eta_C = coim o eta_A``,
    ``Delta_C = (coim (x) coim) o Delta_A o (a . id) o im``,
    ``eps_C = eps_A o (a^{-1} . id) o im``, ``iota = im`` and
    ``iota_star = coim o (a . id)``.
    """
    f = F.field
    im, coim = F.split_p()
    d = im.cols
    la = F.window_power_matrix(1)
    lainv = F.window_power_matrix(-1)

    mu_c = coim @ F.mu_matrix() @ im.kron(im)
    eta_c = coim.mul_vec(list(F.algebra.unit))
    eps_c = (F.eps_matrix() @ lainv @ im).row(0)

    entries = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                c = mu_c.data[k][i * d + j]
                if c != 0:
                    entries.append((i, j, k, c))
    c_names = [f"c{i}" for i in range(d)]
    c_alg = Algebra(f, d, entries, eta_c, basis_names=c_names)
    # Delta_C is the transported Delta, as p is g-self-adjoint and commutes with a . id
    c_frob = FrobeniusStructure(c_alg, eps_c)
    return KnowledgeableFrobenius(A=F, C=c_frob, iota=im, iota_star=coim @ la)


def check_knowledgeable(K: KnowledgeableFrobenius):
    """Verify the axioms of a knowledgeable Frobenius algebra exactly.

    Returns a list of ``(axiom, ok, witness)`` triples; ``witness`` is a
    matrix index where the first discrepancy occurs, or ``None``.
    """
    A, C = K.A, K.C
    f = A.field
    n, d = A.dim, C.dim
    I_n = Matrix.identity(f, n)
    I_d = Matrix.identity(f, d)
    results = []

    def record(name, lhs, rhs):
        if lhs == rhs:
            results.append((name, True, None))
            return
        witness = None
        for i in range(lhs.rows):
            for j in range(lhs.cols):
                if lhs.data[i][j] != rhs.data[i][j]:
                    witness = (i, j)
                    break
            if witness:
                break
        results.append((name, False, witness))

    record("iota preserves unit",
           Matrix.column_vector(f, K.iota.mul_vec(list(C.algebra.unit))),
           A.eta_matrix())
    record("iota is an algebra map",
           K.iota @ C.mu_matrix(),
           A.mu_matrix() @ K.iota.kron(K.iota))
    record("knowledge",
           A.mu_matrix() @ K.iota.kron(I_n),
           A.mu_matrix() @ A.swap() @ K.iota.kron(I_n))
    record("duality",
           C.eps_matrix() @ C.mu_matrix() @ I_d.kron(K.iota_star),
           A.eps_matrix() @ A.mu_matrix() @ K.iota.kron(I_n))
    record("cardy",
           A.mu_matrix() @ A.swap() @ A.delta_matrix(),
           K.iota @ K.iota_star)
    record("open symmetry",
           A.eps_matrix() @ A.mu_matrix(),
           A.eps_matrix() @ A.mu_matrix() @ A.swap())
    record("closed commutativity",
           C.mu_matrix(),
           C.mu_matrix() @ C.swap())
    return results


def all_axioms_pass(report) -> bool:
    return all(ok for (_, ok, _) in report)
