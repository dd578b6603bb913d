"""The state sum: dual tensor network of a triangulation and its evaluations.

All levels run one pipeline (``_evaluate``): build the network dual to the
triangulation, close its black components unless the level is raw, and
contract.  The last contraction step writes the result as a sparse
morphism's nonzero entries grouped by row, output legs as rows and input legs
as columns (``greedy_contract`` given those legs); no result tensor is built
and read off again.  Nothing dense is built on the way, so results far larger
than any dense matrix (raw ``strip(5, 5)`` over a 13-dimensional algebra is a
371,293 x 371,293 map with 60,073 nonzeros) evaluate.

The network is one tensor per triangle and one vector per coloured edge.  A
triangle carries the trilinear form ``g3`` (legs in the cyclic order of the
stored orientation) with the legs it owns raised through the inverse pairing,
as in ``c_ij^k = g3_ijl g^lk`` (Fukuma-Hosono-Kawai), so every edge is one leg
and no pairing tensor is needed.  It owns its black out-edges, which are free
legs, and the interior edges it traverses upwards (``u < v``); validation
makes each interior edge traversed both ways.  Black in-edges (free legs) and
coloured edges (on a unit or a D-brane idempotent) stay lowered.  One factor
of the inverse window element goes with each interior vertex and each
non-corner vertex of the black out-boundary.  Because the inverse window
element is central, each connected component's factor ``a^-k`` may act on any
leg of it.  It is counted before any triangle is built and twists the form
of the component's first triangle, ``g3(a^-k x, y, z)``, before its legs are
raised (``_triangle_data``, cached per raised pattern and ``k`` like the
untwisted forms); a test asserts the placement is immaterial.  One pass
over the edge index names each edge's leg, notes whether a triangle
traversing it upwards or downwards raises it and finds the boundary
vertices; each distinct raised pattern and ``k`` is looked up once.
``state_sum_raw`` keeps one ``A`` leg per black edge: the triangulation-level
morphism.

``state_sum_reduced`` and ``state_sum`` close each black component with ``h``
legs through the closed-form splitting of its boundary projector.
``P_kl = Delta^(k) o a^-(k-1) o mu^(l)`` and ``mu^(h) o Delta^(h) = a^(h-1)``
give ``P_h1 o P_1h = P_hh`` and ``P_1h o P_h1 = id``, so ``im = P_h1``,
``coim = P_1h`` split ``P_hh`` through ``A`` itself.  They are built as chains
of ``h - 1`` sparse three-leg copies of ``P_21`` (input) or of ``P_12 = mu``,
the structure tensor itself (output), so no dense ``n^h x n^h`` matrix
appears, and an interval leg is the chain's joined leg.  Only a circle
component gets one two-leg closing tensor, through ``im_p``/``coim_p``,
which splits ``Q_hh`` through ``C = p(A)``.  Interval legs are the same at
both levels; the full level, which is triangulation independent, differs
only by the central ``a_C^(-+1)`` on circle legs.
"""

from __future__ import annotations

from .algebra import _cached
from .complexes import OpenClosedComplex
from .errors import HasBlackBoundaryError
from .frobenius import FrobeniusStructure
from .morphism import Morphism, full_factor, split_factor
from .tensors import Tensor, greedy_contract


@_cached
def _triangle_data(F: FrobeniusStructure, raised, k):
    """The trilinear form's entries ``{(x, y, z): value}`` twisted by ``a^-k``
    on its first leg, ``g3(a^-k x, y, z)``, with the legs at the positions
    ``raised`` then raised through the inverse pairing.  The twist acts on
    the lowered leg as ``W^T``, ``W`` the matrix of ``a^-k``; as ``L_a`` is
    self-adjoint for the pairing (``W g^-1 = g^-1 W^T``), a raised leg 0
    carries ``W`` as on a vector.  Untwisted, raising position 2 alone gives
    ``Algebra.structure_tensor``; cyclic invariance rotates it."""
    n = F.dim
    t = Tensor(F.field, (0, 1, 2), (n, n, n), F.trilinear())
    if k:
        t = t.apply_matrix(0, F.window_power_matrix(-k).transpose())
    for pos in raised:
        t = t.apply_matrix(pos, F.pairing_inverse)
    return t.data


def signature(F: FrobeniusStructure, components, level):
    """The factors of one side of the state sum at ``level`` whose black
    boundary on that side is ``components``: one ``A`` per edge at the raw
    level, otherwise one per component, ``A`` for an interval and ``C = p(A)``
    for a circle."""
    if level == "raw":
        return [full_factor(F.dim)] * sum(len(comp.edges) for comp in components)
    return [full_factor(F.dim) if comp.kind == "interval" else split_factor(F.split_p()[0].cols)
            for comp in components]


class DualNetwork:
    def __init__(self, tensors: list, in_components: list, out_components: list):
        self.tensors = tensors
        self.in_components = in_components  # (kind, [leg ids]) per black_in component
        self.out_components = out_components


def build_dual_network(F: FrobeniusStructure, c: OpenClosedComplex,
                       coloured_elements=None) -> DualNetwork:
    """Assemble the tensor network dual to a validated triangulation.

    ``coloured_elements`` optionally maps coloured edge keys to algebra
    elements that replace the unit (D-brane colouring).
    """
    c.require_valid()
    field, n = F.field, F.dim
    coloured_elements = coloured_elements or {}

    free = {}  # black edge -> its free leg
    components = {"in": [], "out": []}
    for side, comps in (("in", c.black_in), ("out", c.black_out)):
        for ci, comp in enumerate(comps):
            legs = [(side, ci, pos, 0) for pos in range(len(comp.edges))]
            free.update(zip(comp.edge_keys(), legs))
            components[side].append((comp.kind, legs))

    # one pass over the edge index: each edge's leg, named once, and whether a
    # triangle raises it when it traverses the edge upwards (u < v) and when
    # downwards, and the boundary vertices
    edge_legs, boundary_vs = {}, set()
    for e, ts in c.edge_triangles().items():
        if len(ts) == 2:
            edge_legs[e] = ("e",) + e, True, False
        else:
            boundary_vs.update(e)
            leg = free.get(e) or ("e",) + e
            out = leg[0] == "out"
            edge_legs[e] = leg, out, out

    # inverse-window exponent per connected component, twisted into the
    # form of the component's first triangle
    roots = c.vertex_components()
    corners = c.corner_vertices()
    out_vs = {v for comp in c.black_out for e in comp.edge_keys() for v in e}
    exponents = {}
    for v in range(c.vertex_count):
        if v not in boundary_vs or (v in out_vs and v not in corners):
            exponents[roots[v]] = exponents.get(roots[v], 0) + 1

    forms = {}  # (raised pattern, k) -> _triangle_data, looked up once each
    dims = (n, n, n)
    tensors = []
    for (a, b, x) in c.triangles:  # canonical: (a, b) runs upwards, (x, a) downwards
        leg0, raised0, _ = edge_legs[a, b]
        if b < x:
            leg1, raised1, _ = edge_legs[b, x]
        else:
            leg1, _, raised1 = edge_legs[x, b]
        leg2, _, raised2 = edge_legs[a, x]
        key = raised0, raised1, raised2, exponents.pop(roots[a], 0)
        if (data := forms.get(key)) is None:
            forms[key] = data = _triangle_data(F, tuple(p for p in range(3) if key[p]), key[3])
        tensors.append(Tensor(field, (leg0, leg1, leg2), dims, data))
    for e in sorted(c.coloured_edges):
        elem = coloured_elements.get(e)
        coeffs = elem.coeffs if elem is not None else F.algebra.unit
        tensors.append(Tensor.vector(field, edge_legs[e][0], coeffs))
    return DualNetwork(tensors, components["in"], components["out"])


@_cached
def _chain_data(F: FrobeniusStructure):
    """Sparse three-leg forms of ``P_21 = Delta o a^-1`` and of ``P_12 = mu``,
    the structure tensor, both indexed ``(left, right, joined)``."""
    n = F.dim
    delta = {(r // n, r % n, i): v for r, row in enumerate(F.p_matrix(2, 1).data)
             for i, v in enumerate(row) if v != 0}
    return delta, F.algebra.structure_tensor(("i", "j", "k")).data


def _join_legs(F, legs, prefix, data):
    """Join an ordered leg group to one leg through ``len(legs) - 1`` copies of
    the three-leg ``data``, on inner legs ``prefix + (pos, 0)``.  Gluing strips
    composes ``P_21`` chains to ``P_h1`` and ``P_12`` chains to ``P_1h``.
    Returns the tensors and the joined leg."""
    n = F.dim
    tensors = []
    joined = legs[-1]
    for pos in range(len(legs) - 2, -1, -1):
        leg = prefix + (pos, 0)
        tensors.append(Tensor(F.field, (legs[pos], joined, leg), (n, n, n), data))
        joined = leg
    return tensors, joined


def _close_component(F, side, ci, kind, legs, full):
    """Tensors closing one black component with ``h`` legs onto a single leg,
    and that leg.

    An input gets ``P_h1 = Delta^(h) o a^-(h-1)``, an output ``P_1h = mu^(h)``;
    ``P_h1 o P_1h = P_hh`` and ``P_1h o P_h1 = id``, so this splits ``P_hh``
    through ``A``, and an interval ends on the chain's joined leg (a one-edge
    interval on its free leg).  A circle also passes through ``im_p`` or
    ``coim_p`` onto the leg ``("r" + side, ci, 0, 0)``, which splits ``Q_hh``
    through ``C``; the full level adds the central ``a_C^(-+1)`` there.
    """
    delta, mu = _chain_data(F)
    tensors, joined = _join_legs(F, legs, ("j" + side, ci), delta if side == "in" else mu)
    if kind == "interval":
        return tensors, joined
    new_leg = ("r" + side, ci, 0, 0)
    shift = 1 if full else 0
    if side == "in":
        m, ends = F.window_power_matrix(-shift) @ F.split_p()[0], (joined, new_leg)
    else:
        m, ends = F.split_p()[1] @ F.window_power_matrix(shift), (new_leg, joined)
    tensors.append(Tensor.from_matrix_sparse(ends, m))
    return tensors, new_leg


def _evaluate(F, c, coloured_elements, level) -> Morphism:
    """The one pipeline behind every level: build the dual network, close each
    black component unless ``level`` is ``"raw"``, and contract; the last step
    writes the result's nonzeros with output legs as rows and input legs as
    columns.  No dense matrix is formed."""
    net = build_dual_network(F, c, coloured_elements)
    legs = {"in": [], "out": []}
    for side, components in (("in", net.in_components), ("out", net.out_components)):
        for ci, (kind, comp_legs) in enumerate(components):
            if level == "raw":
                legs[side] += comp_legs
            else:
                tensors, leg = _close_component(F, side, ci, kind, comp_legs, level == "full")
                net.tensors += tensors
                legs[side].append(leg)
    if net.tensors:
        nonzeros = greedy_contract(net.tensors, legs["out"], legs["in"])[2]
    else:  # the empty complex: the empty product is the scalar 1
        nonzeros = {0: {0: F.field.one()}}
    return Morphism(F.field, signature(F, c.black_in, level), signature(F, c.black_out, level),
                    nonzeros)


def state_sum_raw(F: FrobeniusStructure, c: OpenClosedComplex,
                  coloured_elements=None) -> Morphism:
    """Triangulation-level morphism ``A^{m1} -> A^{m2}``, one leg per black edge."""
    return _evaluate(F, c, coloured_elements, "raw")


def state_sum_reduced(F: FrobeniusStructure, c: OpenClosedComplex,
                      coloured_elements=None) -> Morphism:
    """State sum compressed through the boundary projectors' splittings.

    Interval legs land on ``A``, circle legs on ``C = p(A)``.
    """
    return _evaluate(F, c, coloured_elements, "reduced")


def state_sum(F: FrobeniusStructure, c: OpenClosedComplex,
              coloured_elements=None) -> Morphism:
    """The triangulation-independent morphism of the underlying cobordism.

    Interval legs land on the full algebra ``A``; circle legs on the split
    closed space ``C = p(A)``.
    """
    return _evaluate(F, c, coloured_elements, "full")


def evaluate_closed(F: FrobeniusStructure, c: OpenClosedComplex):
    """Scalar invariant of a closed (no black boundary) complex."""
    if c.black_in or c.black_out:
        raise HasBlackBoundaryError("complex has black boundary; use state_sum")
    return _evaluate(F, c, None, "raw").scalar_value()
