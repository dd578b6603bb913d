"""Triangulated open-closed cobordisms and their local moves.

A complex stores oriented triangles as vertex triples (canonically rotated so
the smallest vertex comes first), a set of coloured (free) boundary edges,
and ordered black boundary components split into inputs and outputs.  Edge
identity is the unordered vertex pair.  All orientation data lives on the
triangles and is read from them: validation counts the directed edges
itself, and a boundary edge runs as its one triangle traverses it.
Degenerate triangulations (loop edges, parallel edges, repeated triangles)
are rejected -- in particular a boundary circle needs at least three edges.

Moves (bistellar 1-3 / 3-1 / 2-2 and the coloured elementary shellings)
return new complexes; values are immutable after construction.  Each move's
precondition is written once, as a site check that returns what the move
needs or ``None``.  The move raises ``NotApplicableError`` on ``None`` or on
a site not shaped like a vertex, edge or triangle, and ``applicable_moves``
lists exactly the sites the checks accept, so a listed move always applies.

The checks share one edge index, the complex's only one: each edge maps to
its triangles in ascending index order, each with its apex, the vertex
opposite the edge.  So the flip precondition (``_flippable``: two triangles
whose apexes differ and are not already joined) reads one edge's entries and
one membership in O(1).  ``pachner_22`` checks it through its site, and
``applicable_moves`` filters the edge index with it directly, so listing the
flips builds no site.  The other checks, which also read a lazy vertex ->
triangles and boundary vertex -> boundary edges index, cost O(degree).  One
pair of primitives edits the edge index, adding or dropping one triangle.
The constructor adds every triangle to empty indexes.  A move that keeps every
triangle's index (2-2, 1-3, and the shellings that split an edge or close a
vertex, which only append) copies its parent's index and drops and adds just
the triangles it changes; 2-2 and 1-3 keep the parent's boundary index
too.  The moves that renumber vertices or shift indices (3-1 and the other
two shellings) go through the constructor.
"""

from __future__ import annotations

import random

from .errors import InvalidComplexError, NotApplicableError


def ekey(u: int, v: int):
    return (u, v) if u < v else (v, u)


def canonical_triangle(tri):
    a, b, c = tri
    if len({a, b, c}) != 3:
        raise InvalidComplexError([f"degenerate triangle {tri}"])
    m = min(tri)
    while tri[0] != m:
        tri = (tri[1], tri[2], tri[0])
    return tri


class BoundaryComponent:
    """An ordered black boundary piece: the edge list fixes the leg order.
    Immutable and compared by value."""

    __slots__ = ("kind", "edges")

    def __init__(self, kind: str, edges):
        if kind not in ("interval", "circle"):
            raise InvalidComplexError([f"unknown boundary kind {kind!r}"])
        object.__setattr__(self, "kind", kind)
        # directed (u, v) pairs chaining head-to-tail
        object.__setattr__(self, "edges", tuple((u, v) for (u, v) in edges))

    def __setattr__(self, name, value):
        raise AttributeError(f"BoundaryComponent is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.edges) == (other.kind, other.edges)

    def __hash__(self):
        return hash((self.kind, self.edges))

    def __repr__(self):
        return f"BoundaryComponent(kind={self.kind!r}, edges={self.edges!r})"

    def edge_keys(self):
        return [ekey(u, v) for (u, v) in self.edges]

    def vertices(self):
        seq = [self.edges[0][0]]
        for (u, v) in self.edges:
            seq.append(v)
        return seq


class OpenClosedComplex:
    """Oriented triangulated 2-manifold with black/coloured boundary."""

    __slots__ = ("vertex_count", "triangles", "coloured_edges", "black_in", "black_out",
                 "edge_colours", "_edge_tris", "_vertex_tris", "_boundary_at")

    def __init__(self, vertex_count, triangles, coloured_edges, black_in, black_out,
                 edge_colours=None):
        self.vertex_count = vertex_count
        self.triangles = tuple(canonical_triangle(tuple(t)) for t in triangles)
        self.coloured_edges = frozenset(ekey(u, v) for (u, v) in coloured_edges)
        self.black_in = tuple(
            b if isinstance(b, BoundaryComponent) else BoundaryComponent(**b) for b in black_in
        )
        self.black_out = tuple(
            b if isinstance(b, BoundaryComponent) else BoundaryComponent(**b) for b in black_out
        )
        self.edge_colours = {ekey(u, v): c for (u, v), c in (edge_colours or {}).items()}

        self._edge_tris = {}
        for idx in range(len(self.triangles)):
            self._add_triangle(idx)
        self._vertex_tris = None  # incidence for the move checks, built on first use
        self._boundary_at = None

    # -- the edge index: the one pair of primitives that edits it -----------------

    def _add_triangle(self, i):
        """Enter ``triangles[i]`` into the edge index: each of its edges gets the
        entry ``(i, apex)``, kept in ascending index order."""
        a, b, c = self.triangles[i]
        et = self._edge_tris
        for (u, v, x) in ((a, b, c), (b, c, a), (c, a, b)):
            e = (u, v) if u < v else (v, u)
            old = et.get(e, ())
            entries = old + ((i, x),)
            et[e] = entries if not old or old[-1][0] < i else tuple(sorted(entries))

    def _drop_triangle(self, i):
        """Remove ``triangles[i]`` from the edge index, the inverse of ``_add_triangle``."""
        a, b, c = self.triangles[i]
        et = self._edge_tris
        for (u, v) in ((a, b), (b, c), (c, a)):
            e = (u, v) if u < v else (v, u)
            kept = tuple(entry for entry in et[e] if entry[0] != i)
            if kept:
                et[e] = kept
            else:
                del et[e]

    # -- derived sets -----------------------------------------------------------

    def edge_triangles(self):
        """Edge -> ``((index, apex), ...)``: the triangles on the edge in ascending
        index order, each with its vertex opposite the edge."""
        return self._edge_tris

    def edges(self):
        return sorted(self._edge_tris)

    def vertex_triangles(self):
        """Vertex -> indices of the triangles that contain it, ascending."""
        if self._vertex_tris is None:
            vt = {}
            for idx, t in enumerate(self.triangles):
                for v in t:
                    vt.setdefault(v, []).append(idx)
            self._vertex_tris = vt
        return self._vertex_tris

    def boundary_edges_at(self):
        """Boundary vertex -> the boundary edges through it, in sorted order."""
        if self._boundary_at is None:
            at = {}
            for e in self.boundary_edges():
                for v in e:
                    at.setdefault(v, []).append(e)
            self._boundary_at = at
        return self._boundary_at

    def boundary_edges(self):
        return sorted(e for e, ts in self._edge_tris.items() if len(ts) == 1)

    def interior_edges(self):
        return sorted(e for e, ts in self._edge_tris.items() if len(ts) == 2)

    def black_edge_set(self):
        out = set()
        for comp in self.black_in + self.black_out:
            out.update(comp.edge_keys())
        return out

    def boundary_vertex_set(self):
        verts = set()
        for e in self.boundary_edges():
            verts.update(e)
        return verts

    def corner_vertices(self):
        """Vertices where a black and a coloured boundary edge meet."""
        black_v = set()
        for e in self.black_edge_set():
            black_v.update(e)
        col_v = set()
        for e in self.coloured_edges:
            col_v.update(e)
        return black_v & col_v

    def vertex_components(self):
        """Union-find partition of vertices by triangle adjacency."""
        parent = list(range(self.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, b, c) in self.triangles:
            for (u, v) in ((a, b), (b, c)):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        return [find(v) for v in range(self.vertex_count)]

    def boundary_cycles(self):
        """Boundary circuits as directed vertex cycles (induced orientation)."""
        succ = {}
        for idx, (a, b, c) in enumerate(self.triangles):
            for (u, v) in ((a, b), (b, c), (c, a)):
                if len(self._edge_tris[ekey(u, v)]) == 1:
                    succ[u] = v
        cycles = []
        seen = set()
        for start in sorted(succ):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            v = succ[start]
            while v != start:
                cyc.append(v)
                seen.add(v)
                v = succ[v]
            cycles.append(cyc)
        return cycles

    def coloured_arcs(self):
        """Maximal coloured chains, in a deterministic discovery order.

        Arcs are sorted by their smallest edge; each arc is a list of edge
        keys in chain order starting from the end with the smaller vertex
        (paths) or from the smallest edge (cycles).
        """
        adj = {}
        for (u, v) in self.coloured_edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        unvisited = set(self.coloured_edges)
        arcs = []
        while unvisited:
            seed = min(unvisited)
            # walk the whole chain containing `seed`
            comp = {seed}
            frontier = [seed]
            while frontier:
                (a, b) = frontier.pop()
                for x in (a, b):
                    for y in adj[x]:
                        e = ekey(x, y)
                        if e in unvisited and e not in comp:
                            comp.add(e)
                            frontier.append(e)
            comp_vertices = set()
            for e in comp:
                comp_vertices.update(e)
            ends = sorted(v for v in comp_vertices if len([y for y in adj[v] if ekey(v, y) in comp]) == 1)
            if ends:  # path: start from the smaller endpoint
                start = ends[0]
            else:  # cycle: start at the smallest vertex of the smallest edge
                start = min(min(e) for e in comp)
            chain = []
            prev = None
            cur = start
            while True:
                nxts = [y for y in adj[cur] if ekey(cur, y) in comp and y != prev]
                if prev is None and not ends:
                    nxts = [min(nxts)]
                if not nxts:
                    break
                nxt = nxts[0]
                chain.append(ekey(cur, nxt))
                prev, cur = cur, nxt
                if len(chain) == len(comp):
                    break
            arcs.append(chain)
            unvisited -= comp
        arcs.sort(key=lambda chain: min(chain))
        return arcs

    def arc_colours(self):
        """Brane colours as an arc-index map (the file-format view)."""
        out = {}
        for idx, arc in enumerate(self.coloured_arcs()):
            cols = {self.edge_colours.get(e) for e in arc}
            cols.discard(None)
            if len(cols) > 1:
                raise InvalidComplexError([f"arc {idx} carries inconsistent colours {sorted(cols)}"])
            if cols:
                out[idx] = next(iter(cols))
        return out

    # -- validation ----------------------------------------------------------------

    def validate(self) -> "ComplexReport":
        violations = self._violations()
        components = self._component_reports() if not violations else []
        return ComplexReport(ok=not violations, violations=violations, components=components)

    def _violations(self):
        """Every ``(kind, message)`` by which the complex is not a valid
        open-closed cobordism, in a fixed order; empty when it is one."""
        violations = []
        n = self.vertex_count

        used = set()
        for t in self.triangles:
            for v in t:
                if not (0 <= v < n):
                    violations.append(("vertex_range", f"triangle {t} references vertex {v}"))
                used.add(v)
        # counted over the used vertices, so a huge declared count costs nothing
        isolated = n - sum(0 <= v < n for v in used)
        if isolated > 0:
            first = next(v for v in range(n) if v not in used)
            violations.append(("isolated_vertex",
                               f"{isolated} of {n} vertices lie in no triangle, the smallest {first}"))

        seen_sets = set()
        for t in self.triangles:
            key = frozenset(t)
            if key in seen_sets:
                violations.append(("duplicate_triangle", f"{t}"))
            seen_sets.add(key)

        for e, ts in sorted(self._edge_tris.items()):
            if len(ts) > 2:
                violations.append(("edge_in_many_triangles", f"edge {e} lies in {len(ts)} triangles"))
        directed = {}
        for (a, b, c) in self.triangles:
            for d in ((a, b), (b, c), (c, a)):
                directed[d] = directed.get(d, 0) + 1
        for (u, v), cnt in sorted(directed.items()):
            if cnt > 1:
                violations.append(("orientation", f"directed edge {(u, v)} repeats; orientations clash"))
        for e, ts in sorted(self._edge_tris.items()):
            if len(ts) == 2:
                u, v = e
                if directed.get((u, v), 0) != 1 or directed.get((v, u), 0) != 1:
                    violations.append(("orientation", f"interior edge {e} not traversed both ways"))

        boundary = set(self.boundary_edges())
        black = set()
        for comp in self.black_in + self.black_out:
            for e in comp.edge_keys():
                if e in black:
                    violations.append(("component_overlap", f"edge {e} in two black components"))
                black.add(e)
        overlap = black & self.coloured_edges
        for e in sorted(overlap):
            violations.append(("classification", f"edge {e} is both black and coloured"))
        for e in sorted(black | self.coloured_edges):
            if e not in boundary:
                violations.append(("classification", f"classified edge {e} is not a boundary edge"))
        for e in sorted(boundary - black - self.coloured_edges):
            violations.append(("classification", f"boundary edge {e} is unclassified"))

        for which, comps in (("in", self.black_in), ("out", self.black_out)):
            for ci, comp in enumerate(comps):
                if not comp.edges:
                    violations.append(("component_empty", f"black_{which}[{ci}] has no edges"))
                    continue
                for (u, v) in comp.edges:
                    if u == v:
                        violations.append(("component_chain", f"black_{which}[{ci}] has loop edge"))
                for i in range(len(comp.edges) - 1):
                    if comp.edges[i][1] != comp.edges[i + 1][0]:
                        violations.append(
                            ("component_chain", f"black_{which}[{ci}] edges {i},{i+1} do not chain")
                        )
                if comp.kind == "circle":
                    if len(comp.edges) < 3:
                        violations.append(
                            ("circle_too_short",
                             f"black_{which}[{ci}] circle has {len(comp.edges)} edges; needs >= 3")
                        )
                    elif comp.edges[-1][1] != comp.edges[0][0]:
                        violations.append(("component_chain", f"black_{which}[{ci}] circle does not close"))
                else:
                    if comp.edges[-1][1] == comp.edges[0][0]:
                        violations.append(("component_chain", f"black_{which}[{ci}] interval closes up"))

        # every boundary vertex must lie on exactly two boundary edges
        bcount = {}
        for e in boundary:
            for v in e:
                bcount[v] = bcount.get(v, 0) + 1
        for v, cnt in sorted(bcount.items()):
            if cnt != 2:
                violations.append(("pinched_boundary", f"vertex {v} lies on {cnt} boundary edges"))

        # interval endpoints are corners; corners are exactly the black/coloured meeting points
        corner = self.corner_vertices()
        for which, comps in (("in", self.black_in), ("out", self.black_out)):
            for ci, comp in enumerate(comps):
                if comp.kind == "interval" and comp.edges:
                    seq = comp.vertices()
                    for endpoint in (seq[0], seq[-1]):
                        if endpoint not in corner:
                            violations.append(
                                ("corner", f"black_{which}[{ci}] endpoint {endpoint} is not a corner")
                            )

        violations.extend(self._link_violations())

        try:
            self.arc_colours()
        except InvalidComplexError as err:
            violations.extend(("brane_colours", v) for v in err.violations)
        for e in self.edge_colours:
            if e not in self.coloured_edges:
                violations.append(("brane_colours", f"colour on non-coloured edge {e}"))
        return violations

    def _link_violations(self):
        """A link that branches or is disconnected.  Nothing else can be wrong
        with it: the degree of ``w`` in the link of ``v`` is the number of
        triangles on the edge ``{v, w}``, so a connected link without branches
        is a chain at a boundary vertex (it has a degree-1 vertex) and a cycle
        at an interior one (it has none)."""
        violations = []
        links = {}
        for (a, b, c) in self.triangles:
            for v, opp in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
                links.setdefault(v, []).append(opp)
        for v in sorted(links):
            opposite = links[v]
            deg = {}
            for (x, y) in opposite:
                deg[x] = deg.get(x, 0) + 1
                deg[y] = deg.get(y, 0) + 1
            bad = [x for x, d in sorted(deg.items()) if d > 2]
            if bad:
                violations.append(("link", f"link of vertex {v} branches at {bad}"))
                continue
            # connectivity of the link graph
            adj = {}
            for (x, y) in opposite:
                adj.setdefault(x, set()).add(y)
                adj.setdefault(y, set()).add(x)
            start = next(iter(sorted(adj)))
            seen = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if len(seen) != len(adj):
                violations.append(("link", f"link of vertex {v} is disconnected"))
        return violations

    def _component_reports(self):
        roots = self.vertex_components()
        comp_ids = sorted(set(roots))
        reports = []
        cycles = self.boundary_cycles()
        coloured_v = set()
        for e in self.coloured_edges:
            coloured_v.update(e)
        black_v = set()
        for e in self.black_edge_set():
            black_v.update(e)
        for cid in comp_ids:
            verts = [v for v in range(self.vertex_count) if roots[v] == cid]
            vset = set(verts)
            tris = [t for t in self.triangles if t[0] in vset]
            edges = [e for e in self._edge_tris if e[0] in vset]
            chi = len(verts) - len(edges) + len(tris)
            my_cycles = [c for c in cycles if c[0] in vset]
            windows = 0
            black_circles = 0
            mixed = 0
            intervals_touched = 0
            for cyc in my_cycles:
                cset = set(cyc)
                if cset <= coloured_v and not (cset & black_v):
                    windows += 1
                elif cset <= black_v and not (cset & coloured_v):
                    black_circles += 1
                else:
                    mixed += 1
            genus2 = 2 - chi - len(my_cycles)
            reports.append({
                "vertices": len(verts),
                "edges": len(edges),
                "triangles": len(tris),
                "euler_characteristic": chi,
                "boundary_cycles": len(my_cycles),
                "windows": windows,
                "black_circles": black_circles,
                "mixed_cycles": mixed,
                "genus": genus2 // 2 if genus2 % 2 == 0 and genus2 >= 0 else None,
            })
        return reports

    def require_valid(self):
        violations = self._violations()
        if violations:
            raise InvalidComplexError(violations)
        return self

    # -- rebuilding helpers -----------------------------------------------------

    def replaced(self, vertex_count=None, triangles=None, coloured_edges=None,
                 black_in=None, black_out=None, edge_colours=None) -> "OpenClosedComplex":
        return OpenClosedComplex(
            vertex_count if vertex_count is not None else self.vertex_count,
            triangles if triangles is not None else self.triangles,
            coloured_edges if coloured_edges is not None else self.coloured_edges,
            black_in if black_in is not None else self.black_in,
            black_out if black_out is not None else self.black_out,
            edge_colours if edge_colours is not None else self.edge_colours,
        )

    def _patched(self, changes, vertex_count=None, coloured_edges=None,
                 edge_colours=None) -> "OpenClosedComplex":
        """This complex with the triangles at the indices of ``changes`` replaced
        by its values (indices past the end append), equal to what ``replaced``
        builds.  The edge index is a copy of this one's with just the changed
        triangles dropped and added; the lazy indexes start empty."""
        child = object.__new__(OpenClosedComplex)
        child.vertex_count = vertex_count if vertex_count is not None else self.vertex_count
        child.coloured_edges = (frozenset(coloured_edges) if coloured_edges is not None
                                else self.coloured_edges)
        child.black_in, child.black_out = self.black_in, self.black_out
        child.edge_colours = edge_colours if edge_colours is not None else self.edge_colours
        child._edge_tris = dict(self._edge_tris)
        child._vertex_tris = child._boundary_at = None
        child.triangles = self.triangles
        for i in changes:
            if i < len(self.triangles):
                child._drop_triangle(i)
        triangles = list(self.triangles) + [None] * (max(changes) + 1 - len(self.triangles))
        for i, t in changes.items():
            triangles[i] = canonical_triangle(t)
        child.triangles = tuple(triangles)
        for i in changes:
            child._add_triangle(i)
        return child

    def relabelled(self, vmap, new_count) -> "OpenClosedComplex":
        def m(v):
            return vmap[v]

        return OpenClosedComplex(
            new_count,
            [(m(a), m(b), m(c)) for (a, b, c) in self.triangles],
            [(m(u), m(v)) for (u, v) in self.coloured_edges],
            [BoundaryComponent(b.kind, [(m(u), m(v)) for (u, v) in b.edges]) for b in self.black_in],
            [BoundaryComponent(b.kind, [(m(u), m(v)) for (u, v) in b.edges]) for b in self.black_out],
            {(m(u), m(v)): c for (u, v), c in self.edge_colours.items()},
        )

    def __repr__(self):
        return (f"OpenClosedComplex(V={self.vertex_count}, F={len(self.triangles)}, "
                f"in={len(self.black_in)}, out={len(self.black_out)}, "
                f"coloured={len(self.coloured_edges)})")


class ComplexReport:
    def __init__(self, ok: bool, violations: list, components: list):
        self.ok = ok
        self.violations = violations
        self.components = components

    def __bool__(self):
        return self.ok


# -- local moves: one site check per move (see the module docstring) ---------------


# a vertex is an int, an edge a pair of distinct ints, and a triangle an index
# or a triple of distinct vertices; a boolean is not an int here
_SITE_ARITY = {"flip": 2, "split": 3, "merge": 1, "shell_split": 2, "shell_merge": 1,
               "shell_open": 2, "shell_close": 1}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _site(check, c, where, kind):
    n = _SITE_ARITY[kind]
    if _is_int(where):
        shaped = n != 2
    else:
        shaped = (n > 1 and isinstance(where, (tuple, list)) and len(where) == n
                  and all(map(_is_int, where)) and len(set(where)) == n)
    site = check(c, where) if shaped else None
    if site is None:
        raise NotApplicableError(f"{kind} does not apply at {where!r}")
    return site


def _without_vertex(c, w):
    """``c`` with the (no longer used) vertex ``w`` deleted and the rest renumbered."""
    vmap = {x: (x if x < w else x - 1) for x in range(c.vertex_count)}
    vmap[w] = -1
    return c.relabelled(vmap, c.vertex_count - 1)


def _flippable(et, tris):
    """The flip precondition, read off the edge index ``et`` for an edge with
    the entries ``tris``: the edge is interior (two triangles), and their
    apexes differ and are not already joined by an edge."""
    if len(tris) != 2:
        return False
    (_, x), (_, y) = tris
    return x != y and ((x, y) if x < y else (y, x)) not in et


def _opposite(c, t, x):
    """The directed edge of triangle ``t`` opposite its vertex ``x``."""
    a, b, cc = c.triangles[t]
    return (b, cc) if x == a else (cc, a) if x == b else (a, b)


def _flip_site(c, edge):
    """For a flippable edge (``_flippable``): its directed form ``(u, v)`` in
    triangle ``t1`` with apex ``x``, and triangle ``t2`` with apex ``y``."""
    tris = c._edge_tris.get(ekey(*edge), ())
    if not _flippable(c._edge_tris, tris):
        return None
    (t1, x), (t2, y) = tris
    return _opposite(c, t1, x), t1, x, t2, y


def pachner_22(c: OpenClosedComplex, edge) -> OpenClosedComplex:
    """Flip the diagonal of the quadrilateral around an interior edge."""
    (u, v), t1, x, t2, y = _site(_flip_site, c, edge, "flip")
    child = c._patched({t1: (x, u, y), t2: (y, v, x)})
    child._boundary_at = c._boundary_at  # the boundary is untouched
    return child


def _split_site(c, triangle):
    """Index of a triangle given by index or by its vertices."""
    if isinstance(triangle, int):
        return triangle if 0 <= triangle < len(c.triangles) else None
    want = canonical_triangle(tuple(triangle))
    return next((idx for idx, t in enumerate(c.triangles) if t == want), None)


def pachner_13(c: OpenClosedComplex, triangle) -> OpenClosedComplex:
    """Star-subdivide one triangle with a fresh interior vertex."""
    idx = _site(_split_site, c, triangle, "split")
    i, j, k = c.triangles[idx]
    w, n = c.vertex_count, len(c.triangles)
    child = c._patched({idx: (i, j, w), n: (j, k, w), n + 1: (k, i, w)}, vertex_count=w + 1)
    child._boundary_at = c._boundary_at  # the boundary is untouched
    return child


def _merge_site(c, v):
    """For an interior vertex of degree three: its triangles and the outer
    triangle that replaces them, unless that triangle already exists."""
    incident = c.vertex_triangles().get(v, ())
    if len(incident) != 3 or v in c.boundary_edges_at():
        return None
    opp = {}
    for idx in incident:
        a, b, cc = c.triangles[idx]
        for (x, y, z) in ((a, b, cc), (b, cc, a), (cc, a, b)):
            if z == v:
                opp[x] = y
    start = min(opp)
    cyc = (start, opp.get(start), opp.get(opp.get(start)))
    if None in cyc or len(set(cyc)) != 3 or opp.get(cyc[2]) != start:
        return None
    if any(apex == cyc[2] for _, apex in c._edge_tris[ekey(cyc[0], cyc[1])]):
        return None
    return incident, cyc


def pachner_31(c: OpenClosedComplex, vertex: int) -> OpenClosedComplex:
    """Remove an interior vertex of degree exactly three."""
    incident, cyc = _site(_merge_site, c, vertex, "merge")
    new_tris = [t for idx, t in enumerate(c.triangles) if idx not in incident]
    new_tris.append(cyc)
    return _without_vertex(c.replaced(triangles=new_tris), vertex)


# -- type-2 elementary shellings (all involved boundary edges coloured) -------------


def _boundary_direction(c, e):
    """Directed form of a boundary edge as induced by its triangle."""
    (t, x), = c._edge_tris[e]
    return _opposite(c, t, x)


def _recoloured(c, removed, added):
    """The ``coloured_edges`` and ``edge_colours`` of ``c`` with the coloured
    edges ``removed`` replaced by ``added``, which take the brane colour of
    ``removed[0]``."""
    colour = c.edge_colours.get(removed[0])
    new_cols = {k: col for k, col in c.edge_colours.items() if k not in removed}
    if colour is not None:
        new_cols.update(dict.fromkeys(added, colour))
    new_coloured = set(c.coloured_edges) - set(removed) | set(added)
    return {"coloured_edges": new_coloured, "edge_colours": new_cols}


def _coloured_boundary_edge(c, edge):
    """A coloured boundary edge, its triangle and that triangle's apex (black
    sites would change the black boundary)."""
    e = ekey(*edge)
    tris = c._edge_tris.get(e, ())
    if len(tris) != 1 or e not in c.coloured_edges:
        return None
    return (e,) + tris[0]


def shelling_split_edge(c: OpenClosedComplex, edge) -> OpenClosedComplex:
    """One coloured edge -> two: glue a triangle with a fresh boundary vertex."""
    e, _, _ = _site(_coloured_boundary_edge, c, edge, "shell_split")
    (u, v) = _boundary_direction(c, e)
    w = c.vertex_count
    return c._patched({len(c.triangles): (v, u, w)}, vertex_count=w + 1,
                      **_recoloured(c, (e,), (ekey(u, w), ekey(w, v))))


def _coloured_pair(c, e1, e2):
    return (e1 in c.coloured_edges and e2 in c.coloured_edges
            and c.edge_colours.get(e1) == c.edge_colours.get(e2))


def _shell_merge_site(c, w):
    """For a vertex in one triangle whose two edges at it are coloured alike:
    that triangle, the two edges, and the opposite edge, which must be interior."""
    incident = c.vertex_triangles().get(w, ())
    if len(incident) != 1:
        return None
    u, v = [x for x in c.triangles[incident[0]] if x != w]
    e1, e2, inner = ekey(u, w), ekey(w, v), ekey(u, v)
    if not _coloured_pair(c, e1, e2) or len(c.edge_triangles().get(inner, ())) != 2:
        return None
    return incident[0], e1, e2, inner


def shelling_merge_edges(c: OpenClosedComplex, vertex: int) -> OpenClosedComplex:
    """Two coloured edges -> one: remove a boundary vertex spanning one triangle."""
    t_idx, e1, e2, inner = _site(_shell_merge_site, c, vertex, "shell_merge")
    new_tris = [t for idx, t in enumerate(c.triangles) if idx != t_idx]
    return _without_vertex(c.replaced(triangles=new_tris, **_recoloured(c, (e1, e2), (inner,))),
                           vertex)


def _shell_open_site(c, edge):
    """For a coloured edge: its triangle and that triangle's apex, which must be
    interior, as long as neither end of the edge lies in that triangle alone."""
    found = _coloured_boundary_edge(c, edge)
    if found is None:
        return None
    e, t_idx, w = found
    vt = c.vertex_triangles()
    if w in c.boundary_edges_at() or any(len(vt[x]) < 2 for x in e):
        return None
    return e, t_idx, w


def shelling_open_vertex(c: OpenClosedComplex, edge) -> OpenClosedComplex:
    """Remove the triangle under a coloured edge, pushing its interior apex out."""
    e, t_idx, w = _site(_shell_open_site, c, edge, "shell_open")
    u, v = e
    new_tris = [t for idx, t in enumerate(c.triangles) if idx != t_idx]
    return c.replaced(triangles=new_tris, **_recoloured(c, (e,), (ekey(u, w), ekey(w, v))))


def _shell_close_site(c, w):
    """For a boundary vertex between two edges coloured alike, with the
    boundary running ``u -> w -> v``: the two edges and ``u``, ``v``, unless
    ``u``-``v`` is already an edge."""
    bedges = c.boundary_edges_at().get(w, ())
    if len(bedges) != 2 or not _coloured_pair(c, *bedges):
        return None
    e1, e2 = bedges
    d1 = _boundary_direction(c, e1)
    d2 = _boundary_direction(c, e2)
    if d1[1] == w and d2[0] == w:
        u, v = d1[0], d2[1]
    elif d2[1] == w and d1[0] == w:
        u, v = d2[0], d1[1]
    else:
        return None
    if u == v or ekey(u, v) in c.edge_triangles():
        return None
    return e1, e2, u, v


def shelling_close_vertex(c: OpenClosedComplex, vertex: int) -> OpenClosedComplex:
    """Fill the notch at a boundary vertex with two coloured edges, making it interior."""
    e1, e2, u, v = _site(_shell_close_site, c, vertex, "shell_close")
    return c._patched({len(c.triangles): (vertex, u, v)}, **_recoloured(c, (e1, e2), (ekey(u, v),)))


_MOVES = {
    "flip": pachner_22,
    "split": pachner_13,
    "merge": pachner_31,
    "shell_split": shelling_split_edge,
    "shell_merge": shelling_merge_edges,
    "shell_open": shelling_open_vertex,
    "shell_close": shelling_close_vertex,
}

# -- seeded fuzz driver ---------------------------------------------------------------


def applicable_moves(c: OpenClosedComplex):
    """Deterministically ordered list of the ``(kind, site)`` pairs whose move
    applies: the sites that the moves' own checks accept."""
    et = c._edge_tris
    moves = [("flip", e) for e in sorted(e for e, ts in et.items() if _flippable(et, ts))]
    moves += [("split", t) for t in range(len(c.triangles))]  # every index in range splits
    vt = c.vertex_triangles()
    moves += [("merge", v) for v in sorted(vt)  # only a vertex of degree 3 can merge
              if len(vt[v]) == 3 and _merge_site(c, v) is not None]
    for e in sorted(c.coloured_edges):
        if _coloured_boundary_edge(c, e) is not None:
            moves.append(("shell_split", e))
        if _shell_open_site(c, e) is not None:
            moves.append(("shell_open", e))
    for v in sorted(c.boundary_edges_at()):
        if _shell_merge_site(c, v) is not None:
            moves.append(("shell_merge", v))
        if _shell_close_site(c, v) is not None:
            moves.append(("shell_close", v))
    return moves


def random_moves(c: OpenClosedComplex, seed: int, n: int) -> OpenClosedComplex:
    """Apply ``n`` uniformly chosen applicable moves with a seeded PRNG."""
    rng = random.Random(seed)
    for _ in range(n):
        moves = applicable_moves(c)
        if not moves:
            break
        kind, site = moves[rng.randrange(len(moves))]
        c = _MOVES[kind](c, site)
    return c
