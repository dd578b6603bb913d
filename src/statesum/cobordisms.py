"""Builtin triangulations of open-closed cobordism generators and surfaces.

Orientation convention: pictures are read with the source at the top and the
target at the bottom; triangles are stored so that open multiplication takes
its legs left to right.  All builders construct triangles counterclockwise in
plane coordinates and then reverse them all (``_orient``); the open-pants
convention test pins that reversal down.

Boundary circles need at least three edges to stay simplicial (an edge is an
unordered vertex pair), so ``annulus(k, l)`` and circle-valued generators
triangulate each circle with ``max(k, 3)`` edges.  The full state sum does
not depend on those counts.
"""

from __future__ import annotations

from .complexes import BoundaryComponent, OpenClosedComplex, _relabelled, canonical_triangle, ekey
from .errors import InvalidComplexError, UnknownCatalogError, _shown


def _orient(tris):
    return [(a, c, b) for (a, b, c) in tris]


def _circle(first: int, h: int):
    """The chain ``first -> first + 1 -> ... -> first + h - 1 -> first``.

    Convention (pinned by the cylinder = Q_kl test): input circles are listed
    along the induced boundary orientation, output circles against it, so the
    two chains of a cylinder wind the same way around it.  The builders'
    triangles induce this chain on a cylinder's top circle and its reverse on
    the bottom one and on ``closed_unit``'s boundary, so each is a ``_circle``.
    """
    return [(first + i, first + (i + 1) % h) for i in range(h)]


# -- flat pieces -----------------------------------------------------------------


def strip(k: int, l: int) -> OpenClosedComplex:
    """Rectangle ``I x I`` with ``l`` black in-edges (top) and ``k`` out-edges."""
    if k < 1 or l < 1:
        raise UnknownCatalogError("strip needs k, l >= 1")
    t = list(range(l + 1))
    b = [l + 1 + i for i in range(k + 1)]
    tris = [(t[0], b[i], b[i + 1]) for i in range(k)]
    tris.append((t[0], b[k], t[l]))
    for j in range(l, 1, -1):
        tris.append((t[0], t[j], t[j - 1]))
    c = OpenClosedComplex(
        l + k + 2,
        _orient(tris),
        [(t[0], b[0]), (t[l], b[k])],
        [BoundaryComponent("interval", [(t[i], t[i + 1]) for i in range(l)])],
        [BoundaryComponent("interval", [(b[i], b[i + 1]) for i in range(k)])],
    )
    return c.require_valid()


def _cylinder_triangles(m: int, n: int):
    """Merge triangulation of a cylinder: top circle m edges, bottom n edges."""
    def top(i):
        return i % m

    def bottom(j):
        return m + (j % n)

    tris = []
    i = j = 0
    while i < m or j < n:
        advance_top = i < m and (j >= n or (i + 1) * n <= (j + 1) * m)
        if advance_top:
            tris.append((top(i + 1), top(i), bottom(j)))
            i += 1
        else:
            tris.append((bottom(j), bottom(j + 1), top(i)))
            j += 1
    return _orient(tris)


def annulus(k: int, l: int) -> OpenClosedComplex:
    """Cylinder ``S^1 x I``; the circles carry ``max(l,3)`` and ``max(k,3)`` edges."""
    if k < 1 or l < 1:
        raise UnknownCatalogError("annulus needs k, l >= 1")
    hl, hk = max(l, 3), max(k, 3)
    return OpenClosedComplex(hl + hk, _cylinder_triangles(hl, hk), [],
                             [BoundaryComponent("circle", _circle(0, hl))],
                             [BoundaryComponent("circle", _circle(hl, hk))]).require_valid()


def zipper(circle_edges: int = 3, interval_edges: int = 1) -> OpenClosedComplex:
    """Annulus as a morphism circle -> interval: the closed-to-open cobordism."""
    if interval_edges < 1:
        raise UnknownCatalogError("zipper needs at least one black out edge")
    hc, hb = max(circle_edges, 3), interval_edges + 2
    # the bottom circle, against its induced orientation as an output runs:
    # a 2-edge coloured arc, then the black out edges
    bottom = _circle(hc, hb)
    return OpenClosedComplex(hc + hb, _cylinder_triangles(hc, hb), bottom[:2],
                             [BoundaryComponent("circle", _circle(0, hc))],
                             [BoundaryComponent("interval", bottom[2:])]).require_valid()


def reversed_cobordism(c: OpenClosedComplex) -> OpenClosedComplex:
    """Flip top and bottom: reverse all triangles and swap in/out components."""
    return OpenClosedComplex(
        c.vertex_count,
        [(a, cc, b) for (a, b, cc) in c.triangles],
        c.coloured_edges,
        c.black_out,
        c.black_in,
        c.edge_colours,
    )


def cozipper(circle_edges: int = 3, interval_edges: int = 1) -> OpenClosedComplex:
    return reversed_cobordism(zipper(circle_edges, interval_edges))


# -- open generators (hexagon and triangle pictures) ---------------------------------


def open_mult() -> OpenClosedComplex:
    """Open pair of pants ``I + I -> I``: the hexagon with three black sides."""
    # plane positions: 0=(2,0) 1=(5,0) 2=(7,2.5) 3=(5,5) 4=(2,5) 5=(0,2.5)
    tris = _orient([(0, 1, 3), (0, 3, 4), (1, 2, 3), (0, 4, 5)])
    return OpenClosedComplex(
        6, tris,
        [(0, 5), (1, 2), (3, 4)],
        [BoundaryComponent("interval", [(5, 4)]), BoundaryComponent("interval", [(3, 2)])],
        [BoundaryComponent("interval", [(0, 1)])],
    ).require_valid()


def open_comult() -> OpenClosedComplex:
    return reversed_cobordism(open_mult())


def open_unit() -> OpenClosedComplex:
    """Disk ``1 -> I``: a single triangle with a black bottom edge."""
    tris = _orient([(0, 1, 2)])
    return OpenClosedComplex(
        3, tris,
        [(0, 2), (1, 2)],
        [],
        [BoundaryComponent("interval", [(0, 1)])],
    ).require_valid()


def open_counit() -> OpenClosedComplex:
    return reversed_cobordism(open_unit())


# -- closed generators ------------------------------------------------------------------


def closed_unit() -> OpenClosedComplex:
    """Disk ``1 -> S^1``: one triangle whose whole boundary is a black circle."""
    return OpenClosedComplex(3, _orient([(0, 1, 2)]), [], [],
                             [BoundaryComponent("circle", _circle(0, 3))]).require_valid()


def closed_counit() -> OpenClosedComplex:
    return reversed_cobordism(closed_unit())


def dig_hole(c: OpenClosedComplex, tri_index: int, role: str) -> OpenClosedComplex:
    """Replace a triangle by a six-triangle ring around a fresh triangular hole.

    ``role`` is "window" (coloured hole), "in" or "out" (black circle hole).
    """
    return _dig_holes(c, [tri_index], role)


def _dig_holes(c: OpenClosedComplex, tri_indices, role: str) -> OpenClosedComplex:
    """``c`` with a ``role`` hole dug at each of ``tri_indices`` in turn, as
    repeated :func:`dig_hole` would, but built once: each dig deletes its
    triangle from the list and appends its ring (in canonical form, as the
    constructor would store it), so later indices see the same list."""
    tris = list(c.triangles)
    coloured = set(c.coloured_edges)
    black_in, black_out = list(c.black_in), list(c.black_out)
    vertex_count = c.vertex_count
    for tri_index in tri_indices:
        u, v, w = tris.pop(tri_index)
        a, b, d = vertex_count, vertex_count + 1, vertex_count + 2
        vertex_count += 3
        tris += map(canonical_triangle,
                    [(u, v, a), (v, b, a), (v, w, b), (w, d, b), (w, u, d), (u, a, d)])
        # induced orientation of the hole boundary is a -> d -> b -> a
        hole_chain = [(a, d), (d, b), (b, a)] if role == "in" else [(a, b), (b, d), (d, a)]
        if role == "window":
            coloured.update(ekey(x, y) for (x, y) in hole_chain)
        elif role == "in":
            black_in.append(BoundaryComponent("circle", hole_chain))
        elif role == "out":
            black_out.append(BoundaryComponent("circle", hole_chain))
        else:
            raise UnknownCatalogError(f"unknown hole role {role!r}")
    return OpenClosedComplex(vertex_count, tris, coloured, black_in, black_out, c.edge_colours)


def closed_mult() -> OpenClosedComplex:
    """Closed pair of pants ``S^1 + S^1 -> S^1``: annulus with an extra in-hole."""
    return dig_hole(annulus(3, 3), 0, "in").require_valid()


def closed_comult() -> OpenClosedComplex:
    """Reversed pants; dug at a different triangle so pants compositions glue."""
    return reversed_cobordism(dig_hole(annulus(3, 3), 3, "in").require_valid())


# -- closed surfaces ------------------------------------------------------------------


def sphere() -> OpenClosedComplex:
    tris = _orient([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
    return OpenClosedComplex(4, tris, [], [], []).require_valid()


def grid_torus() -> OpenClosedComplex:
    """The 9-vertex, 18-triangle grid torus."""
    def v(i, j):
        return (i % 3) * 3 + (j % 3)

    tris = []
    for i in range(3):
        for j in range(3):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    return OpenClosedComplex(9, _orient(tris), [], [], []).require_valid()


def minimal_torus() -> OpenClosedComplex:
    """The 7-vertex torus (every vertex pair is an edge)."""
    tris = []
    for i in range(7):
        tris.append((i, (i + 1) % 7, (i + 3) % 7))
        tris.append((i, (i + 3) % 7, (i + 2) % 7))
    return OpenClosedComplex(7, _orient(tris), [], [], []).require_valid()


def connected_sum(c1: OpenClosedComplex, t1: int, c2: OpenClosedComplex,
                  t2: int) -> OpenClosedComplex:
    """Glue two closed surfaces along removed triangles ``t1`` and ``t2``."""
    return _connected_sum(c1, t1, c2, t2).require_valid()


def _connected_sum(c1, t1, c2, t2):
    """:func:`connected_sum` before its scan."""
    u1, v1, w1 = c1.triangles[t1]
    u2, v2, w2 = c2.triangles[t2]
    holed = [c.replaced(triangles=[x for i, x in enumerate(c.triangles) if i != t])
             for c, t in ((c1, t1), (c2, t2))]
    # orientation-reversing identification of the removed boundaries
    return _union(*holed, {v2: u1, u2: v1, w2: w1})


def closed_surface(genus: int, windows: int) -> OpenClosedComplex:
    """Closed oriented surface of the given genus with ``windows`` coloured holes.

    Only the sphere or torus it starts from and the finished surface are
    scanned: complexes are not changed after they are built, so one torus
    serves every handle, and no intermediate connected sum is returned."""
    if genus < 0 or windows < 0:
        raise UnknownCatalogError("genus and windows must be >= 0")
    if genus == 0:
        surf = sphere()
    elif genus == 1:
        surf = grid_torus()
    else:
        surf = torus = minimal_torus()
        for _ in range(genus - 1):
            surf = _connected_sum(surf, 0, torus, 0)
    return _dig_holes(surf, range(windows), "window").require_valid()


# -- composition helpers ---------------------------------------------------------------


def _union(c1: OpenClosedComplex, c2: OpenClosedComplex, ident) -> OpenClosedComplex:
    """``c1`` and ``c2`` as one complex, with the boundary components of both
    in order.  Vertex ``x`` of ``c2`` becomes ``ident[x]``, a vertex of ``c1``,
    if it is identified, and otherwise the next label after ``c1``'s.  No
    label is dropped, so a vertex that lies in no triangle of ``c1`` or
    ``c2`` lies in none of the union, and its scan refuses it."""
    vmap = {}
    fresh = c1.vertex_count
    for x in range(c2.vertex_count):
        if x in ident:
            vmap[x] = ident[x]
        else:
            vmap[x] = fresh
            fresh += 1
    c2 = _relabelled(c2, vmap, fresh, c2.triangles, c2.coloured_edges, c2.edge_colours)
    return OpenClosedComplex(
        fresh,
        c1.triangles + c2.triangles,
        c1.coloured_edges | c2.coloured_edges,
        c1.black_in + c2.black_in,
        c1.black_out + c2.black_out,
        {**c1.edge_colours, **c2.edge_colours},
    )


def disjoint_union(c1: OpenClosedComplex, c2: OpenClosedComplex) -> OpenClosedComplex:
    return _union(c1, c2, {})


def glue(upper: OpenClosedComplex, lower: OpenClosedComplex) -> OpenClosedComplex:
    """Stack ``lower`` after ``upper``: identify upper outputs with lower inputs.

    Component kinds and edge counts must match pairwise in order, and the
    identification must produce a valid complex (pre-apply moves to either
    piece when small triangulations collide).
    """
    outs, ins = upper.black_out, lower.black_in
    if len(outs) != len(ins):
        raise InvalidComplexError(["output/input component counts differ"])
    ident = {}
    for comp_o, comp_i in zip(outs, ins):
        if comp_o.kind != comp_i.kind or len(comp_o.edges) != len(comp_i.edges):
            raise InvalidComplexError([f"components {comp_o} and {comp_i} do not match"])
        vo, vi = comp_o.vertices(), comp_i.vertices()
        if comp_o.kind == "circle":
            vo, vi = vo[:-1], vi[:-1]
        for a, b in zip(vo, vi):
            if b in ident and ident[b] != a:
                raise InvalidComplexError([f"vertex {b} identified twice"])
            ident[b] = a
    glued = _union(upper, lower, ident)
    # the matched components are now interior: keep upper's inputs and lower's outputs
    return glued.replaced(black_in=glued.black_in[:len(upper.black_in)],
                          black_out=glued.black_out[len(outs):]).require_valid()


def rotate_circle(c: OpenClosedComplex, side: str, index: int, steps: int) -> OpenClosedComplex:
    """Rotate the starting edge of one circle component."""
    comps = list(c.black_in if side == "in" else c.black_out)
    comp = comps[index]
    if comp.kind != "circle":
        raise InvalidComplexError(["can only rotate circle components"])
    k = steps % len(comp.edges)
    comps[index] = BoundaryComponent("circle", comp.edges[k:] + comp.edges[:k])
    if side == "in":
        return c.replaced(black_in=comps)
    return c.replaced(black_out=comps)


# -- catalog dispatch --------------------------------------------------------------------

# name -> (constructor, the parameter counts it accepts)
_BUILTINS = {
    "strip": (strip, (2,)),
    "annulus": (annulus, (2,)),
    "open_mult": (open_mult, (0,)),
    "open_comult": (open_comult, (0,)),
    "open_unit": (open_unit, (0,)),
    "open_counit": (open_counit, (0,)),
    "closed_mult": (closed_mult, (0,)),
    "closed_comult": (closed_comult, (0,)),
    "closed_unit": (closed_unit, (0,)),
    "closed_counit": (closed_counit, (0,)),
    "zipper": (zipper, (0, 2)),
    "cozipper": (cozipper, (0, 2)),
    "closed_surface": (closed_surface, (2,)),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, *params: int) -> OpenClosedComplex:
    """Catalog complex by name; see ``BUILTIN_NAMES`` for the vocabulary."""
    if name not in _BUILTINS:
        raise UnknownCatalogError(f"unknown builtin complex {_shown(name)}")
    build, counts = _BUILTINS[name]
    if len(params) not in counts:
        if counts == (0,):
            raise UnknownCatalogError(f"{name} takes no parameters")
        raise UnknownCatalogError(f"bad parameters for {name}: {params}")
    return build(*params)


def generator_suite():
    """The generator cobordisms checked against the knowledgeable structure."""
    return {
        "open_mult": open_mult(),
        "open_comult": open_comult(),
        "open_unit": open_unit(),
        "open_counit": open_counit(),
        "closed_mult": closed_mult(),
        "closed_comult": closed_comult(),
        "closed_unit": closed_unit(),
        "closed_counit": closed_counit(),
        "zipper": zipper(),
        "cozipper": cozipper(),
        "open_identity": strip(1, 1),
    }
