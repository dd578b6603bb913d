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
return new complexes; a complex is never changed after it is built, which
lets it remember its indexes and a clean validation scan.  Each move's
precondition is written once, as a site check that returns what the move
needs or ``None``.  The move raises ``NotApplicableError`` on ``None`` or on
a site not shaped like a vertex, edge or triangle, and ``applicable_moves``
lists exactly the sites the checks accept, so a listed move always applies.

The checks share one edge index: each edge maps to its triangles in
ascending index order, each with its apex, the vertex opposite the edge.  So
the flip precondition (``_flippable``: two triangles whose apexes differ and
are not already joined) reads one edge's entries and one membership in O(1).
The other checks, which also read a vertex -> triangles and a boundary
vertex -> boundary edges index, cost O(degree).  The constructor builds the
edge index; the other two are built on first use.  A fourth index, the move
sites, holds the sites each check accepts; ``_listed_sites`` builds it on
first use by running every check on every candidate site, and
``applicable_moves`` and ``random_moves`` read it.  One pair of primitives
edits the edge index, adding or dropping one triangle.

Every move is one edit (``_patched``) of a private complex, a copy no caller
holds, of just the index entries that the triangles it changes reach; once
the move sites are listed, it reruns each check only at the sites whose
verdict reads such an entry (``_resynced_sites``), about ten a step on the
benchmark's ``fuzz-moves`` walks, where a listing checks every site.  A walk
(``random_moves``) copies its start once and edits the copy move by move, so
a step costs what it changes; a public move edits a fresh copy of its
argument.  ``_patched`` canonicalises the changed triangles and notes what
the updates read, the number of triangles on each of their edges and at
each of their vertices and which are coloured or on the boundary, in one
pass before the edit; ``_resynced_sites`` then reruns the checks from one
pass over those edges and one over those vertices.  A deleted vertex or
triangle id stays unused and a new one takes the next id, so no entry is
renumbered.  ``_compacted`` makes the public result, closing the gaps in
one constructor call, or, if there are none, freezing the private complex
in place.  Its renaming keeps the order of the ids, so every sorted site
list, and with it every draw of a walk, reads as if the ids were compacted
at each step.

``require_valid`` scans a complex once: a clean scan is remembered, so a
second call is a flag test (``validate`` always scans and reports).  A walk
(``random_moves``) applies only moves at sites their checks accept, each of
which turns a valid complex into a valid one, so the complex a walk returns
carries its start's validity.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter

from .errors import InvalidComplexError, NotApplicableError


def ekey(u: int, v: int):
    return (u, v) if u < v else (v, u)


def _roots(pairs, nodes=()):
    """Node -> the root of its component in the graph of the edges ``pairs``
    and the further nodes ``nodes`` (union-find with path halving).  Each
    union hangs the first end's root under the second's, so the roots follow
    the order of ``pairs``."""
    parent = {x: x for x in nodes}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return {x: find(x) for x in parent}


def canonical_triangle(tri):
    a, b, c = tri
    if a == b or b == c or c == a:
        raise InvalidComplexError([f"degenerate triangle {tri}"])
    if a < b and a < c:
        return tri
    return (b, c, a) if b < c else (c, a, b)  # rotated to start at the smallest


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
    """Oriented triangulated 2-manifold with black/coloured boundary.

    A complex a caller holds is not changed after it is built: its indexes and
    ``_valid``, set by a clean ``require_valid`` scan, describe its fields for
    good.  The moves edit private copies (``_copy``) in place; a private
    complex holds its triangles in a list, where a deleted one leaves
    ``None``, its coloured edges in a set, and in ``_holes`` the lists of the
    deleted vertex ids and of the sorted deleted triangle ids.  A complex
    returned by a walk carries its start's ``_valid``."""

    __slots__ = ("vertex_count", "triangles", "coloured_edges", "black_in", "black_out",
                 "edge_colours", "_edge_tris", "_vertex_tris", "_boundary_at", "_sites", "_valid",
                 "_holes")

    def __init__(self, vertex_count, triangles, coloured_edges, black_in, black_out,
                 edge_colours=None):
        self.vertex_count = vertex_count
        self.triangles = tuple(canonical_triangle(tuple(t)) for t in triangles)
        self.coloured_edges = frozenset(ekey(u, v) for (u, v) in coloured_edges)
        self.black_in = tuple(black_in)
        self.black_out = tuple(black_out)
        self.edge_colours = {ekey(u, v): c for (u, v), c in (edge_colours or {}).items()}

        # the edge index (see _add_triangle), its entries made in ascending index order
        self._edge_tris = et = {}
        for i, (a, b, c) in enumerate(self.triangles):  # canonical: a is the smallest
            for e, x in (((a, b), c), ((b, c) if b < c else (c, b), a), ((a, c), b)):
                et[e] = et.get(e, ()) + ((i, x),)
        self._vertex_tris = None  # incidence for the move checks, built on first use
        self._boundary_at = None
        self._sites = None  # the sites each move accepts, listed on first use
        self._valid = False  # set by the first clean require_valid scan
        self._holes = ((), ())

    # -- the edge index: the one pair of primitives that edits it -----------------

    def _add_triangle(self, i):
        """Enter ``triangles[i]`` into the edge index: each of its edges gets the
        entry ``(i, apex)``, kept in ascending index order."""
        a, b, c = self.triangles[i]  # canonical: a is the smallest
        et = self._edge_tris
        for e, x in (((a, b), c), ((b, c) if b < c else (c, b), a), ((a, c), b)):
            old = et.get(e)
            if old is None:
                et[e] = ((i, x),)
            elif old[-1][0] < i:
                et[e] = old + ((i, x),)
            else:
                et[e] = tuple(sorted(old + ((i, x),)))

    def _drop_triangle(self, i):
        """Remove ``triangles[i]`` from the edge index, the inverse of ``_add_triangle``."""
        a, b, c = self.triangles[i]
        et = self._edge_tris
        for e in ((a, b), (b, c) if b < c else (c, b), (a, c)):
            old = et[e]
            if len(old) == 1:
                del et[e]
            elif len(old) == 2:
                et[e] = old[1:] if old[0][0] == i else old[:1]
            else:
                et[e] = tuple([entry for entry in old if entry[0] != i])

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

    def _move_sites(self):
        """The sites each move accepts, as ``[flips, merges, edge shellings,
        vertex shellings]``: sorted lists of edges, of vertices, and of
        ``(site, rank)`` pairs naming ``_EDGE_SHELLINGS[rank]`` or
        ``_VERTEX_SHELLINGS[rank]``.  Every triangle index splits, so splits
        have no list.  Listed by ``_listed_sites`` on first use."""
        if self._sites is None:
            self._sites = _listed_sites(self)
        return self._sites

    def interior_edges(self):
        return sorted(e for e, ts in self._edge_tris.items() if len(ts) == 2)

    def black_edge_set(self):
        return {e for comp in self.black_in + self.black_out for e in comp.edge_keys()}

    def boundary_vertex_set(self):
        return {v for e in self.boundary_edges() for v in e}

    def corner_vertices(self):
        """Vertices where a black and a coloured boundary edge meet."""
        black_v = {v for e in self.black_edge_set() for v in e}
        return black_v & {v for e in self.coloured_edges for v in e}

    def vertex_components(self):
        """Vertex -> the root of its component, by triangle adjacency, as a
        list indexed by vertex."""
        roots = _roots((p for (a, b, c) in self.triangles for p in ((a, b), (b, c))),
                       range(self.vertex_count))
        return [roots[v] for v in range(self.vertex_count)]

    def coloured_arcs(self):
        """The components of the coloured edges, each a sorted list of edge
        keys, in order of their smallest edge.  On a valid complex each is a
        maximal coloured chain."""
        roots = _roots(self.coloured_edges)
        arcs = {}
        for e in sorted(self.coloured_edges):
            arcs.setdefault(roots[e[0]], []).append(e)
        return list(arcs.values())

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
        if n < 0:
            violations.append(("vertex_range", f"the vertex count {n} is negative"))

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
        directed = Counter(d for (a, b, c) in self.triangles for d in ((a, b), (b, c), (c, a)))
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
                elif comp.edges[-1][1] == comp.edges[0][0]:
                    violations.append(("component_chain", f"black_{which}[{ci}] interval closes up"))

        # every boundary vertex must lie on exactly two boundary edges
        for v, at in sorted(self.boundary_edges_at().items()):
            if len(at) != 2:
                violations.append(("pinched_boundary", f"vertex {v} lies on {len(at)} boundary edges"))

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
            deg = Counter(x for pair in opposite for x in pair)
            bad = [x for x, d in sorted(deg.items()) if d > 2]
            if bad:
                violations.append(("link", f"link of vertex {v} branches at {bad}"))
                continue
            if len(set(_roots(opposite).values())) != 1:
                violations.append(("link", f"link of vertex {v} is disconnected"))
        return violations

    def _component_reports(self):
        """Each component's counts, in order of its root.  Run only on a
        complex with no violations, where every boundary vertex lies on two
        boundary edges: a boundary cycle is then a component of the boundary
        edges, a window if its edges are all coloured, a black circle if none
        is, and mixed otherwise."""
        roots = self.vertex_components()
        counts = {r: Counter(vertices=0, edges=0, triangles=0, euler_characteristic=0,
                             boundary_cycles=0, windows=0, black_circles=0, mixed_cycles=0,
                             genus=0) for r in sorted(set(roots))}  # a report's fields, in order
        for r in roots:
            counts[r]["vertices"] += 1
        for (u, _) in self._edge_tris:
            counts[roots[u]]["edges"] += 1
        for (a, _, _) in self.triangles:
            counts[roots[a]]["triangles"] += 1
        boundary = self.boundary_edges()
        cycle_of = _roots(boundary)
        coloured = {}  # a boundary cycle's root -> whether each of its edges is coloured
        for e in boundary:
            coloured.setdefault(cycle_of[e[0]], []).append(e in self.coloured_edges)
        for r, marks in coloured.items():
            n = counts[roots[r]]
            n["boundary_cycles"] += 1
            n["windows" if all(marks) else "mixed_cycles" if any(marks) else "black_circles"] += 1
        for n in counts.values():
            n["euler_characteristic"] = chi = n["vertices"] - n["edges"] + n["triangles"]
            genus2 = 2 - chi - n["boundary_cycles"]
            n["genus"] = genus2 // 2 if genus2 % 2 == 0 and genus2 >= 0 else None
        return [dict(n) for n in counts.values()]

    def require_valid(self):
        """Raise ``InvalidComplexError`` unless the complex is valid; a clean
        scan is remembered, so each complex is scanned until it passes once."""
        if not self._valid:
            violations = self._violations()
            if violations:
                raise InvalidComplexError(violations)
            self._valid = True
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

    def _copy(self) -> "OpenClosedComplex":
        """A private copy (see the class docstring), with indexes and move
        sites of its own."""
        c = object.__new__(OpenClosedComplex)
        c.vertex_count, c.black_in, c.black_out = self.vertex_count, self.black_in, self.black_out
        c.triangles = list(self.triangles)
        c.coloured_edges = set(self.coloured_edges)
        c.edge_colours, c._edge_tris = dict(self.edge_colours), dict(self._edge_tris)
        c._vertex_tris = {v: ts[:] for v, ts in self.vertex_triangles().items()}
        c._boundary_at = {v: es[:] for v, es in self.boundary_edges_at().items()}
        c._sites = self._sites and [s[:] for s in self._sites]
        c._holes = tuple(map(list, self._holes))
        c._valid = False
        return c

    def _patched(self, changes, vertex_count=None, recoloured=None) -> "OpenClosedComplex":
        """Replace the triangles at the indices of ``changes`` by its values (an
        index past the end appends, ``None`` deletes) and, given ``recoloured
        = (removed, added)``, the coloured edges ``removed`` by ``added``,
        which take the colour of ``removed[0]``.  Edits this complex if it is
        private, else a private copy, and returns it.  The ids of deleted
        triangles and of vertices left in no triangle stay unused until
        ``_compacted``.  Just the index entries that the changed triangles
        reach are edited, and so are the move sites once they are listed."""
        c = self if self.triangles.__class__ is list else self._copy()
        tris, et, vt, bat = c.triangles, c._edge_tris, c._vertex_tris, c._boundary_at
        coloured, end = c.coloured_edges, len(tris)
        # one pass before the edit (see the module docstring), over the removed and
        # added triangles (``changed``), their edges E and their vertices (touched)
        new, changed, pcount, pdegree, pbat, pcoloured = {}, [], {}, {}, set(), set()
        for i, t in changes.items():
            new[i] = t = t and canonical_triangle(t)
            for tri in (tris[i] if i < end else None, t):
                if tri:
                    changed.append(tri)
                    a, b, x = tri  # canonical: a is the smallest
                    for e in ((a, b), (a, x), (b, x) if b < x else (x, b)):
                        if e not in pcount:
                            pcount[e] = len(et.get(e, ()))
                            if e in coloured:
                                pcoloured.add(e)
                    for v in tri:
                        if v not in pdegree:
                            pdegree[v] = len(vt.get(v, ()))
                            if v in bat:
                                pbat.add(v)
        tris.extend([None] * (max(new) + 1 - end))
        for i, t in new.items():
            old = tris[i]
            if old:
                c._drop_triangle(i)  # reads tris[i]
                for v in old:
                    if not (t and v in t):
                        vt[v].remove(i)
            tris[i] = t
            if t:
                c._add_triangle(i)
                for v in t:
                    if not (old and v in old):
                        ts = vt.setdefault(v, [])
                        if ts and ts[-1] > i:
                            insort(ts, i)
                        else:  # a new triangle's id is the largest
                            ts.append(i)
            else:
                insort(c._holes[1], i)
        for v in pdegree:
            if not vt[v]:
                del vt[v]
                c._holes[0].append(v)
        flipped = []  # the edges of E that appeared or vanished
        for e, was in pcount.items():
            count = len(et.get(e, ()))
            if not (count and was):
                flipped.append(e)
            if (count == 1) != (was == 1):  # e joined or left the boundary
                for v in e:
                    at = [f for f in bat.pop(v, ()) if f != e] + [e] * (count == 1)
                    if at:
                        bat[v] = sorted(at)
        if recoloured:
            removed, added = recoloured
            colour = c.edge_colours.get(removed[0])
            c.coloured_edges.difference_update(removed)
            c.coloured_edges.update(added)
            for e in removed:
                c.edge_colours.pop(e, None)
            c.edge_colours.update(dict.fromkeys(added, colour) if colour is not None else ())
        c.vertex_count = vertex_count or c.vertex_count
        if c._sites is not None:
            _resynced_sites(c, new, changed, (pcount, pdegree, pbat, pcoloured, flipped))
        return c

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


def _relabelled(c, vmap, new_count, triangles, coloured_edges, edge_colours):
    """The complex with ``c``'s black boundary and the given triangles,
    coloured edges and edge colours, every vertex ``v`` renamed ``vmap[v]``,
    built in one constructor call."""
    return OpenClosedComplex(
        new_count,
        [(vmap[a], vmap[b], vmap[x]) for (a, b, x) in triangles],
        [(vmap[u], vmap[v]) for (u, v) in coloured_edges],
        [BoundaryComponent(b.kind, [(vmap[u], vmap[v]) for (u, v) in b.edges]) for b in c.black_in],
        [BoundaryComponent(b.kind, [(vmap[u], vmap[v]) for (u, v) in b.edges]) for b in c.black_out],
        {(vmap[u], vmap[v]): col for (u, v), col in edge_colours.items()},
    )


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
    return _compacted(_flip(c._copy(), edge))


def _flip(c, edge):
    (u, v), t1, x, t2, y = _site(_flip_site, c, edge, "flip")
    return c._patched({t1: (x, u, y), t2: (y, v, x)})


def _split_site(c, triangle):
    """Index of a triangle given by index or by its vertices."""
    if isinstance(triangle, int):
        return triangle if 0 <= triangle < len(c.triangles) else None
    want = canonical_triangle(tuple(triangle))
    return next((idx for idx, t in enumerate(c.triangles) if t == want), None)


def pachner_13(c: OpenClosedComplex, triangle) -> OpenClosedComplex:
    """Star-subdivide one triangle with a fresh interior vertex."""
    return _compacted(_split(c._copy(), triangle))


def _split(c, triangle):
    idx = _site(_split_site, c, triangle, "split")
    i, j, k = c.triangles[idx]
    w, n = c.vertex_count, len(c.triangles)
    return c._patched({idx: (i, j, w), n: (j, k, w), n + 1: (k, i, w)}, vertex_count=w + 1)


def _merge_site(c, v):
    """For an interior vertex of degree three: its triangles and the outer
    triangle that replaces them, unless that triangle already exists."""
    incident = c.vertex_triangles().get(v, ())
    if len(incident) != 3 or v in c.boundary_edges_at():
        return None
    opp = {}  # the link of v, oriented: x -> y for each triangle (x, y, v)
    for idx in incident:
        a, b, cc = c.triangles[idx]
        if a == v:
            opp[b] = cc
        elif b == v:
            opp[cc] = a
        else:
            opp[a] = b
    x = min(opp)
    y = opp[x]
    z = opp.get(y)
    if z is None or z == x or opp.get(z) != x:  # the link is not one 3-cycle
        return None
    if z in [apex for _, apex in c._edge_tris[ekey(x, y)]]:  # the outer triangle exists
        return None
    return incident, (x, y, z)


def pachner_31(c: OpenClosedComplex, vertex: int) -> OpenClosedComplex:
    """Remove an interior vertex of degree exactly three."""
    return _compacted(_merge(c._copy(), vertex))


def _merge(c, vertex):
    incident, cyc = _site(_merge_site, c, vertex, "merge")
    return c._patched({**dict.fromkeys(incident), len(c.triangles): cyc})


# -- type-2 elementary shellings (all involved boundary edges coloured) -------------


def _boundary_direction(c, e):
    """Directed form of a boundary edge as induced by its triangle."""
    (t, x), = c._edge_tris[e]
    return _opposite(c, t, x)


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
    return _compacted(_shell_split(c._copy(), edge))


def _shell_split(c, edge):
    e, _, _ = _site(_coloured_boundary_edge, c, edge, "shell_split")
    (u, v) = _boundary_direction(c, e)
    w = c.vertex_count
    return c._patched({len(c.triangles): (v, u, w)}, vertex_count=w + 1,
                      recoloured=((e,), (ekey(u, w), ekey(w, v))))


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
    return _compacted(_shell_merge(c._copy(), vertex))


def _shell_merge(c, vertex):
    t_idx, e1, e2, inner = _site(_shell_merge_site, c, vertex, "shell_merge")
    return c._patched({t_idx: None}, recoloured=((e1, e2), (inner,)))


def _shell_open_site(c, edge):
    """For a coloured edge: its triangle and that triangle's apex, which must be
    interior, as long as neither end of the edge lies in that triangle alone."""
    found = _coloured_boundary_edge(c, edge)
    if found is None:
        return None
    e, t_idx, w = found
    vt = c.vertex_triangles()
    if w in c.boundary_edges_at() or len(vt[e[0]]) < 2 or len(vt[e[1]]) < 2:
        return None
    return e, t_idx, w


def shelling_open_vertex(c: OpenClosedComplex, edge) -> OpenClosedComplex:
    """Remove the triangle under a coloured edge, pushing its interior apex out."""
    return _compacted(_shell_open(c._copy(), edge))


def _shell_open(c, edge):
    (u, v), t_idx, w = _site(_shell_open_site, c, edge, "shell_open")
    return c._patched({t_idx: None}, recoloured=(((u, v),), (ekey(u, w), ekey(w, v))))


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
    return _compacted(_shell_close(c._copy(), vertex))


def _shell_close(c, vertex):
    e1, e2, u, v = _site(_shell_close_site, c, vertex, "shell_close")
    return c._patched({len(c.triangles): (vertex, u, v)}, recoloured=((e1, e2), (ekey(u, v),)))


def _compacted(c):
    """The public complex for ``c``: ``c`` itself if it is public or has no
    ids that deletions left unused (``_patched``), a private one frozen in
    place, since no caller holds it; else ``c`` with those ids closed up in
    one constructor call.  The renaming keeps the order of the ids."""
    dead, gaps = c._holes
    if not gaps:
        if c.triangles.__class__ is list:
            c.triangles, c.coloured_edges = tuple(c.triangles), frozenset(c.coloured_edges)
            c._holes = tuple(dead), ()
        return c
    dead = set(dead)
    vmap = {v: i for i, v in enumerate(v for v in range(c.vertex_count) if v not in dead)}
    return _relabelled(c, vmap, len(vmap), filter(None, c.triangles), c.coloured_edges,
                       c.edge_colours)


# the walk's moves, which edit a private complex (``_patched``)
_MOVES = {"flip": _flip, "split": _split, "merge": _merge, "shell_split": _shell_split,
          "shell_merge": _shell_merge, "shell_open": _shell_open, "shell_close": _shell_close}

# -- the move sites: listed once, then patched move by move -------------------------

# the shellings listed per coloured edge and per boundary vertex, in listing order;
# a site's rank is its position here
_EDGE_SHELLINGS = (("shell_split", _coloured_boundary_edge), ("shell_open", _shell_open_site))
_VERTEX_SHELLINGS = (("shell_merge", _shell_merge_site), ("shell_close", _shell_close_site))


def _listed_sites(c: OpenClosedComplex):
    """The sites each move accepts (``_move_sites``), found by running every
    move's check on every candidate site: the one definition of what
    ``applicable_moves`` lists."""
    et = c._edge_tris
    flips = sorted(e for e, ts in et.items() if _flippable(et, ts))
    vt = c.vertex_triangles()
    merges = [v for v in sorted(vt)  # only a vertex of degree 3 can merge
              if len(vt[v]) == 3 and _merge_site(c, v) is not None]
    return [flips, merges, _accepted(c, c.coloured_edges, _EDGE_SHELLINGS),
            _accepted(c, c.boundary_edges_at(), _VERTEX_SHELLINGS)]


def _accepted(c, sites, shellings):
    """The ``(site, rank)`` pairs, in order, at which ``shellings[rank]`` applies."""
    return sorted([(s, rank) for rank, (_, check) in enumerate(shellings)
                   for s in sites if check(c, s) is not None])


def _resynced(sites, verdicts):
    """Edit the sorted list ``sites`` to hold each key of ``verdicts`` exactly
    when its verdict is true."""
    for key, ok in verdicts.items():
        i = bisect_left(sites, key)
        if (i < len(sites) and sites[i] == key) != ok:
            if ok:
                sites.insert(i, key)
            else:
                del sites[i]


def _resynced_sites(c, changes, changed, before):
    """Patch ``c``'s move sites once ``_patched`` replaced the triangles at the
    indices of ``changes``; ``changed`` holds the removed and added triangles.
    Call their vertices ``touched`` and their edges E, and the edges of E that
    appeared or vanished E+-.  ``before`` is what the checks read before the
    edit, and E+- (see ``_patched``).  A triangle outside ``changed`` is as it was, and
    so is the number of triangles at a vertex outside ``touched``; colours and
    numbers of triangles change only on E.  So each check is rerun only at
    the sites whose verdict reads something the change edited:

    - flip reads its edge's entries and whether their apexes are joined:
      rerun it on E and on the edges whose apexes are the ends of an edge of
      E+-, which outside E are opposite one end in an unchanged triangle.
    - merge reads the three triangles at its vertex, whether the vertex is on
      the boundary, which changes only at ``touched``, and whether the outer
      triangle exists.  Off ``touched`` that changes only if a changed
      triangle is the outer one, which has the vertex for an apex of each of
      its edges.  Rerun it on the vertices of ``touched`` with three
      triangles before or after, and on the apexes with three triangles of
      the first edge of each changed triangle.
    - shell_split reads its edge's colour and number of triangles: rerun it
      on the edges of E coloured before or after.
    - shell_open also reads its edge's apex, whether that apex is on the
      boundary and whether an end lies in one triangle: rerun it there too,
      on the coloured boundary edges at a vertex of ``touched`` that came to
      or left one triangle, and on the coloured edges opposite a vertex of
      ``touched`` that joined or left the boundary.
    - shell_merge reads its vertex's one triangle, the colours of that
      triangle's edges at the vertex and the number of triangles on its
      inner edge: rerun it on the vertices of ``touched`` in one triangle
      before or after, and on the apexes in one triangle of the edges of E
      whose number of triangles changed.
    - shell_close reads its vertex's boundary edges, their colours and
      directions, and whether its neighbours on the boundary are joined:
      rerun it at the ends of the edges of E on the boundary before or
      after, and at the vertices whose neighbours on the boundary are the
      ends of an edge of E+-."""
    et, vt, bat, coloured = c._edge_tris, c._vertex_tris, c._boundary_at, c.coloured_edges
    pcount, pdegree, pbat, pcoloured, flipped = before  # keyed by E, touched, touched, E; E+-
    shelled = coloured or pcoloured  # else no shelling applies, before or after
    (_, split), (_, open_) = _EDGE_SHELLINGS  # ranks 0 and 1
    (_, merge), (_, close) = _VERTEX_SHELLINGS
    # the verdicts of the flips, merges, edge and vertex shellings, found in one
    # pass over E, one over touched, then at the sites E+- and ``changed`` reach
    flips, merges, edge_sites, vertex_sites = verdicts = {}, {}, {}, {}
    for e, was in pcount.items():
        entries = et.get(e, ())
        count = len(entries)
        flips[e] = _flippable(et, entries)
        if shelled:
            if e in coloured or e in pcoloured:
                edge_sites[e, 0] = split(c, e) is not None
                edge_sites[e, 1] = open_(c, e) is not None
            if count != was:  # an apex in one triangle may have e for its inner edge
                for _, apex in entries:
                    if len(vt[apex]) == 1:
                        vertex_sites[apex, 0] = apex in bat and merge(c, apex) is not None
            if count == 1 or was == 1:
                for v in e:
                    vertex_sites[v, 1] = v in bat and close(c, v) is not None
    for x, was in pdegree.items():
        degree = len(vt.get(x, ()))
        if degree == 3 or was == 3:
            merges[x] = degree == 3 and _merge_site(c, x) is not None
        if shelled:
            if degree == 1 or was == 1:
                vertex_sites[x, 0] = x in bat and merge(c, x) is not None
            if (degree == 1) != (was == 1):  # came to or left one triangle
                for e in bat.get(x, ()):
                    if e in coloured:
                        edge_sites[e, 1] = open_(c, e) is not None
            if (x in bat) != (x in pbat):  # joined or left the boundary
                for i in vt.get(x, ()):
                    o = ekey(*_opposite(c, i, x))
                    if o in coloured:
                        edge_sites[o, 1] = open_(c, o) is not None
    for (p, q) in flipped:
        x, y = (q, p) if len(vt.get(p, ())) > len(vt.get(q, ())) else (p, q)
        for i in vt.get(x, ()):
            if i not in changes:
                o = ekey(*_opposite(c, i, x))
                entries = et[o]
                if len(entries) == 2 and (entries[0][1] == y or entries[1][1] == y):
                    flips[o] = _flippable(et, entries)
        if shelled:
            for (u, v) in bat.get(p, ()):
                w = v if u == p else u
                if ekey(w, q) in bat[w]:
                    vertex_sites[w, 1] = close(c, w) is not None
    for (a, b, _) in changed:
        for _, apex in et.get((a, b), ()):
            if apex not in merges and len(vt[apex]) == 3:
                merges[apex] = _merge_site(c, apex) is not None
    for sites, found in zip(c._sites, verdicts):
        _resynced(sites, found)


# -- seeded fuzz driver ---------------------------------------------------------------


def applicable_moves(c: OpenClosedComplex):
    """Deterministically ordered list of the ``(kind, site)`` pairs whose move
    applies: the sites that the moves' own checks accept (``_listed_sites``),
    read off the complex's move sites."""
    return [_nth_move(c, k) for k in range(_move_count(c))]


def _move_count(c: OpenClosedComplex):
    """The number of moves that apply to ``c``: every triangle splits."""
    return len(c.triangles) - len(c._holes[1]) + sum(map(len, c._move_sites()))


def _nth_move(c: OpenClosedComplex, k):
    """Move ``k`` of ``c``, read off its move sites: the flips, the splits of
    every triangle in index order, the merges, the edge shellings, then the
    vertex shellings."""
    flips, merges, edge_sites, vertex_sites = c._move_sites()
    if k < len(flips):
        return "flip", flips[k]
    k -= len(flips)
    gaps = c._holes[1]
    if k < len(c.triangles) - len(gaps):
        i = k  # the k-th index not in gaps: k plus the gaps at or below it
        while (j := k + bisect_right(gaps, i)) != i:
            i = j
        return "split", i
    k -= len(c.triangles) - len(gaps)
    if k < len(merges):
        return "merge", merges[k]
    k -= len(merges)
    if k < len(edge_sites):
        e, rank = edge_sites[k]
        return _EDGE_SHELLINGS[rank][0], e
    v, rank = vertex_sites[k - len(edge_sites)]
    return _VERTEX_SHELLINGS[rank][0], v


def random_moves(c: OpenClosedComplex, seed: int, n: int) -> OpenClosedComplex:
    """Apply ``n`` uniformly chosen applicable moves with a seeded PRNG.  Each
    move turns a valid complex into a valid one, so the walk's end carries
    ``c``'s ``require_valid`` verdict.  The first move copies ``c`` into a
    private complex and every move edits that in place, its move sites with
    it; the ids that the walk deletes stay unused until its end is
    compacted, once."""
    rng = random.Random(seed)
    valid = c._valid
    for _ in range(n):
        count = _move_count(c)
        if not count:
            break
        kind, site = _nth_move(c, rng.randrange(count))
        c = _MOVES[kind](c, site)
    c = _compacted(c)
    c._valid = valid
    return c
