import hashlib
import random
from collections import deque

import pytest

import statesum as S
from statesum import io as sio
from statesum.cobordisms import (
    annulus,
    builtin,
    closed_mult,
    closed_surface,
    connected_sum,
    dig_hole,
    disjoint_union,
    generator_suite,
    glue,
    grid_torus,
    minimal_torus,
    open_mult,
    open_unit,
    reversed_cobordism,
    sphere,
    strip,
    zipper,
)
from statesum.complexes import (
    _MOVES,
    BoundaryComponent,
    ComplexReport,
    OpenClosedComplex,
    _compacted,
    _listed_sites,
    _move_count,
    _nth_move,
    applicable_moves,
    pachner_13,
    pachner_22,
    pachner_31,
    random_moves,
    shelling_close_vertex,
    shelling_merge_edges,
    shelling_open_vertex,
    shelling_split_edge,
)
from statesum.errors import InvalidComplexError, NotApplicableError, UnknownCatalogError


def euler(c):
    return c.vertex_count - len(c.edges()) + len(c.triangles)


# -- validation -------------------------------------------------------------------


def test_strip_square_is_valid():
    c = strip(1, 1)
    assert c.vertex_count == 4 and len(c.triangles) == 2
    assert len(c.coloured_edges) == 2
    report = c.validate()
    assert report.ok
    assert report.components[0]["genus"] == 0
    assert report.components[0]["windows"] == 0


def test_grid_torus_is_valid_and_closed():
    c = grid_torus()
    assert c.vertex_count == 9 and len(c.triangles) == 18
    report = c.validate()
    assert report.ok
    comp = report.components[0]
    assert comp["euler_characteristic"] == 0
    assert comp["boundary_cycles"] == 0
    assert comp["genus"] == 1


def test_minimal_torus_valid():
    report = minimal_torus().validate()
    assert report.ok and report.components[0]["genus"] == 1


def test_edge_in_three_triangles_is_invalid():
    c = OpenClosedComplex(
        5,
        [(0, 1, 2), (1, 0, 3), (0, 1, 4)],
        [],
        [],
        [],
    )
    report = c.validate()
    assert not report.ok
    assert any(code == "edge_in_many_triangles" for code, _ in report.violations)


def test_orientation_clash_detected():
    # two triangles traversing the shared edge the same way
    c = OpenClosedComplex(4, [(0, 1, 2), (0, 1, 3)], [(0, 2), (2, 1), (1, 3), (3, 0)], [], [])
    report = c.validate()
    assert not report.ok
    assert any(code == "orientation" for code, _ in report.violations)


def test_unclassified_boundary_detected():
    c = OpenClosedComplex(3, [(0, 1, 2)], [(0, 2)], [], [])
    report = c.validate()
    assert not report.ok
    assert any(code == "classification" for code, _ in report.violations)


def test_require_valid_raises_exactly_the_violations_validate_reports():
    invalid = [
        OpenClosedComplex(5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)], [], [], []),
        OpenClosedComplex(4, [(0, 1, 2), (0, 1, 3)], [(0, 2), (2, 1), (1, 3), (3, 0)], [], []),
        OpenClosedComplex(3, [(0, 1, 2)], [(0, 2)], [], []),
    ]
    for c in invalid:
        with pytest.raises(InvalidComplexError) as err:
            c.require_valid()
        assert err.value.violations == c.validate().violations
    for c in (closed_surface(2, 1), disjoint_union(strip(1, 1), open_unit())):
        assert c.require_valid() is c


def _rebuilt(c):
    """``c`` built again by the constructor from its fields alone, never scanned."""
    return OpenClosedComplex(c.vertex_count, c.triangles, c.coloured_edges, c.black_in,
                             c.black_out, c.edge_colours)


def _count_scans(monkeypatch):
    calls = []
    scan = OpenClosedComplex._violations

    def counted(self):
        calls.append(self)
        return scan(self)

    monkeypatch.setattr(OpenClosedComplex, "_violations", counted)
    return calls


def test_an_invalid_complex_raises_on_every_require_valid(monkeypatch):
    calls = _count_scans(monkeypatch)
    c = OpenClosedComplex(3, [(0, 1, 2)], [(0, 2)], [], [])
    for attempt in (1, 2):
        with pytest.raises(InvalidComplexError):
            c.require_valid()
        assert len(calls) == attempt  # a failed scan is not remembered


def test_validate_scans_a_complex_require_valid_has_passed(monkeypatch):
    c = _rebuilt(strip(2, 1))
    expect = c.validate()
    calls = _count_scans(monkeypatch)
    assert c.require_valid() is c and c.require_valid() is c
    assert len(calls) == 1
    report = c.validate()
    assert len(calls) == 2
    assert report.ok and report.violations == expect.violations
    assert report.components == expect.components and report.components


def test_a_walk_is_scanned_when_its_start_never_was(monkeypatch):
    _, F = S.group_algebra(S.QQ, S.GroupTable.cyclic(2))
    valid = strip(1, 1)
    bare = _rebuilt(valid)
    # a square with unclassified boundary: flips and splits apply all the same
    unclassified = OpenClosedComplex(4, [(0, 1, 2), (0, 2, 3)], [], [], [])
    calls = _count_scans(monkeypatch)
    moved = random_moves(valid, seed=7, n=10)
    S.state_sum_raw(F, moved)
    assert calls == []  # the start was scanned when strip() built it
    moved = random_moves(bare, seed=7, n=10)
    S.state_sum_raw(F, moved)
    assert calls == [moved]
    moved = random_moves(unclassified, seed=7, n=10)
    assert moved.triangles != unclassified.triangles
    with pytest.raises(InvalidComplexError):
        S.state_sum_raw(F, moved)


@pytest.mark.parametrize("g,w", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0)])
def test_closed_surface_scans_its_torus_and_itself(monkeypatch, g, w):
    # the benchmark's surfaces: one torus serves every handle, and the
    # intermediate connected sums are never returned, so never scanned
    calls = _count_scans(monkeypatch)
    surf = closed_surface(g, w)
    assert len(calls) == 2 and calls[-1] is surf


def _interval(*edges):
    return BoundaryComponent("interval", edges)


def _circle(*edges):
    return BoundaryComponent("circle", edges)


_TRI, _RING = [(0, 1, 2)], [(0, 1), (1, 2), (2, 0)]  # one triangle; its boundary
_SQUARE = [(0, 3, 2), (0, 1, 3)]  # boundary 0 -> 1 -> 3 -> 2 -> 0

# one minimal bad complex per violation, with every (kind, message) it reports
_VIOLATIONS = {
    "vertex_range": (
        lambda: OpenClosedComplex(3, [(0, 1, 3)], [(0, 1), (1, 3), (3, 0)], [], []),
        [("vertex_range", "triangle (0, 1, 3) references vertex 3"),
         ("isolated_vertex", "1 of 3 vertices lie in no triangle, the smallest 2")]),
    "negative_vertex_count": (
        lambda: OpenClosedComplex(-3, [], [], [], []),
        [("vertex_range", "the vertex count -3 is negative")]),
    "isolated_vertex": (
        lambda: OpenClosedComplex(4, _TRI, _RING, [], []),
        [("isolated_vertex", "1 of 4 vertices lie in no triangle, the smallest 3")]),
    "duplicate_triangle": (
        lambda: OpenClosedComplex(3, [(0, 1, 2), (0, 2, 1)], [], [], []),
        [("duplicate_triangle", "(0, 2, 1)")]),
    "edge_in_many_triangles": (
        lambda: OpenClosedComplex(5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)], [], [], []),
        [("edge_in_many_triangles", "edge (0, 1) lies in 3 triangles"),
         ("orientation", "directed edge (0, 1) repeats; orientations clash"),
         *[("classification", f"boundary edge {e} is unclassified")
           for e in ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))],
         ("pinched_boundary", "vertex 0 lies on 3 boundary edges"),
         ("pinched_boundary", "vertex 1 lies on 3 boundary edges"),
         ("link", "link of vertex 0 branches at [1]"),
         ("link", "link of vertex 1 branches at [0]")]),
    "orientation": (
        lambda: OpenClosedComplex(4, [(0, 1, 2), (0, 1, 3)], [(0, 2), (2, 1), (1, 3), (3, 0)], [], []),
        [("orientation", "directed edge (0, 1) repeats; orientations clash"),
         ("orientation", "interior edge (0, 1) not traversed both ways")]),
    "component_overlap": (
        lambda: OpenClosedComplex(3, _TRI, [(1, 2), (2, 0)], [_interval((0, 1))], [_interval((0, 1))]),
        [("component_overlap", "edge (0, 1) in two black components")]),
    "black_and_coloured": (
        lambda: OpenClosedComplex(3, _TRI, _RING, [_interval((0, 1))], []),
        [("classification", "edge (0, 1) is both black and coloured")]),
    "classified_interior_edge": (
        lambda: OpenClosedComplex(4, _SQUARE, [(1, 3), (3, 2), (2, 0), (0, 3)], [_interval((0, 1))], []),
        [("classification", "classified edge (0, 3) is not a boundary edge")]),
    "unclassified": (
        lambda: OpenClosedComplex(3, _TRI, [(0, 2)], [], []),
        [("classification", "boundary edge (0, 1) is unclassified"),
         ("classification", "boundary edge (1, 2) is unclassified")]),
    "component_empty": (
        lambda: OpenClosedComplex(3, _TRI, _RING, [_interval()], []),
        [("component_empty", "black_in[0] has no edges")]),
    "loop_edge": (
        lambda: OpenClosedComplex(3, _TRI, [(1, 2), (2, 0)], [_interval((0, 1), (1, 1))], []),
        [("classification", "classified edge (1, 1) is not a boundary edge"),
         ("component_chain", "black_in[0] has loop edge")]),
    "edges_do_not_chain": (
        lambda: OpenClosedComplex(4, _SQUARE, [(1, 3), (2, 0)], [_interval((0, 1), (3, 2))], []),
        [("component_chain", "black_in[0] edges 0,1 do not chain")]),
    "circle_does_not_close": (
        lambda: OpenClosedComplex(4, _SQUARE, [(2, 0)], [_circle((0, 1), (1, 3), (3, 2))], []),
        [("component_chain", "black_in[0] circle does not close")]),
    "interval_closes_up": (
        lambda: OpenClosedComplex(3, _TRI, [], [_interval(*_RING)], []),
        [("component_chain", "black_in[0] interval closes up"),
         ("corner", "black_in[0] endpoint 0 is not a corner"),
         ("corner", "black_in[0] endpoint 0 is not a corner")]),
    "circle_too_short": (
        lambda: OpenClosedComplex(3, _TRI, [(2, 0)], [_circle((0, 1), (1, 2))], []),
        [("circle_too_short", "black_in[0] circle has 2 edges; needs >= 3")]),
    "pinched_boundary": (
        lambda: OpenClosedComplex(5, [(0, 1, 2), (0, 3, 4)], _RING + [(0, 3), (3, 4), (4, 0)], [], []),
        [("pinched_boundary", "vertex 0 lies on 4 boundary edges"),
         ("link", "link of vertex 0 is disconnected")]),
    "corner": (
        lambda: OpenClosedComplex(3, _TRI, [], [_interval((0, 1))], [_interval((1, 2), (2, 0))]),
        [("corner", "black_in[0] endpoint 0 is not a corner"),
         ("corner", "black_in[0] endpoint 1 is not a corner"),
         ("corner", "black_out[0] endpoint 1 is not a corner"),
         ("corner", "black_out[0] endpoint 0 is not a corner")]),
    "inconsistent_brane_colours": (
        lambda: OpenClosedComplex(3, _TRI, _RING, [], [], {(0, 1): "a", (1, 2): "b"}),
        [("brane_colours", "arc 0 carries inconsistent colours ['a', 'b']")]),
    "colour_on_black_edge": (
        lambda: OpenClosedComplex(4, _SQUARE, [(1, 3), (0, 2)], [_interval((0, 1))],
                                  [_interval((2, 3))], {(0, 1): "a"}),
        [("brane_colours", "colour on non-coloured edge (0, 1)")]),
}


@pytest.mark.parametrize("case", list(_VIOLATIONS))
def test_each_violation_reports_its_exact_messages(case):
    build, want = _VIOLATIONS[case]
    report = build().validate()
    assert not report.ok and report.components == []
    assert report.violations == want


def test_genus_and_windows_reported():
    c = closed_surface(2, 1)
    report = c.validate()
    assert report.ok
    comp = report.components[0]
    assert comp["genus"] == 2 and comp["windows"] == 1


def test_sphere_tetrahedron():
    report = sphere().validate()
    assert report.ok
    assert report.components[0]["euler_characteristic"] == 2
    assert report.components[0]["genus"] == 0


def _components_by_search(c):
    """Each component's report, found apart from the library: components by
    a breadth-first search over shared vertices, boundary cycles by following
    each boundary edge to the next as its triangle runs it, and a cycle
    classed by its vertices."""
    at = {}
    for t in c.triangles:
        for v in t:
            at.setdefault(v, []).append(t)
    succ = {}
    for (a, b, cc) in c.triangles:
        for (u, v) in ((a, b), (b, cc), (cc, a)):
            if len(c.edge_triangles()[tuple(sorted((u, v)))]) == 1:
                succ[u] = v
    coloured = {v for e in c.coloured_edges for v in e}
    black = {v for e in c.black_edge_set() for v in e}
    seen, reports = set(), []
    for start in range(c.vertex_count):
        if start in seen:
            continue
        seen.add(start)
        queue, verts = deque([start]), set()
        while queue:
            v = queue.popleft()
            verts.add(v)
            for t in at[v]:
                for w in t:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        tris = [t for t in c.triangles if t[0] in verts]
        edges = {tuple(sorted(p)) for (a, b, cc) in tris for p in ((a, b), (b, cc), (cc, a))}
        cycles, on_cycle = [], set()
        for u in sorted(verts & set(succ)):
            if u not in on_cycle:
                cycle = [u]
                while succ[cycle[-1]] != u:
                    cycle.append(succ[cycle[-1]])
                on_cycle.update(cycle)
                cycles.append(set(cycle))
        chi = len(verts) - len(edges) + len(tris)
        reports.append({
            "vertices": len(verts), "edges": len(edges), "triangles": len(tris),
            "euler_characteristic": chi, "boundary_cycles": len(cycles),
            "windows": sum(cyc <= coloured and not cyc & black for cyc in cycles),
            "black_circles": sum(cyc <= black and not cyc & coloured for cyc in cycles),
            "mixed_cycles": sum(bool(cyc & coloured and cyc & black) for cyc in cycles),
            "genus": (2 - chi - len(cycles)) // 2,
        })
    return reports


def _report(v, e, t, cycles, windows, black, mixed, genus):
    return {"vertices": v, "edges": e, "triangles": t, "euler_characteristic": v - e + t,
            "boundary_cycles": cycles, "windows": windows, "black_circles": black,
            "mixed_cycles": mixed, "genus": genus}


def _topology(reports):
    """The fields of the reports that no move changes, in sorted order."""
    keys = ("euler_characteristic", "boundary_cycles", "windows", "black_circles",
            "mixed_cycles", "genus")
    return sorted(tuple(r[k] for k in keys) for r in reports)


@pytest.mark.parametrize("build,want", [
    (lambda: disjoint_union(annulus(3, 3), closed_surface(1, 2)),
     [_report(6, 12, 6, 2, 0, 2, 0, 0), _report(15, 45, 28, 2, 2, 0, 0, 1)]),
    (zipper, [_report(6, 12, 6, 2, 0, 1, 1, 0)]),
    (lambda: strip(1, 1), [_report(4, 5, 2, 1, 0, 0, 1, 0)]),
], ids=["annulus + genus 1 with 2 windows", "zipper", "strip(1, 1)"])
def test_component_reports_count_each_component_and_its_boundary_circles(build, want):
    c = build()
    assert c.validate().components == want == _components_by_search(c)
    for seed in range(3):
        moved = random_moves(c, seed=seed, n=40)
        got = moved.validate().components
        # a walk may renumber the vertices, and with them the order of the components
        assert sorted(got, key=repr) == sorted(_components_by_search(moved), key=repr)
        assert _topology(got) == _topology(want)


# -- bistellar moves ----------------------------------------------------------------


def test_flip_is_an_involution():
    c = strip(1, 1)
    e = c.interior_edges()[0]
    flipped = pachner_22(c, e)
    assert flipped.validate().ok
    assert set(flipped.triangles) != set(c.triangles)
    # the new diagonal connects the two apexes
    new_diag = next(iter(set(flipped.interior_edges())))
    back = pachner_22(flipped, new_diag)
    assert set(back.triangles) == set(c.triangles)


def test_flip_requires_interior_edge():
    c = strip(1, 1)
    with pytest.raises(NotApplicableError):
        pachner_22(c, (0, 1))  # black boundary edge


def test_flip_blocked_when_diagonal_exists():
    c = sphere()  # tetrahedron: every flip would duplicate an edge
    for e in c.interior_edges():
        with pytest.raises(NotApplicableError):
            pachner_22(c, e)


def test_flip_blocked_when_both_triangles_have_one_apex():
    # two triangles on one vertex set (validation rejects the duplicate): each
    # edge's apexes coincide, and flipping would make a degenerate triangle
    c = OpenClosedComplex(3, [(0, 1, 2), (0, 2, 1)], [], [], [])
    assert not any(kind == "flip" for kind, _ in applicable_moves(c))
    for e in c.interior_edges():
        with pytest.raises(NotApplicableError):
            pachner_22(c, e)


def test_split_counts_and_inverse():
    c = grid_torus()
    split = pachner_13(c, 0)
    assert split.vertex_count == c.vertex_count + 1
    assert len(split.triangles) == len(c.triangles) + 2
    assert len(split.edges()) == len(c.edges()) + 3
    assert euler(split) == euler(c)
    assert split.validate().ok
    merged = pachner_31(split, c.vertex_count)  # the fresh vertex
    assert merged.validate().ok
    assert merged.vertex_count == c.vertex_count
    assert set(merged.triangles) == set(c.triangles)
    u, v, w = c.triangles[0]
    assert pachner_13(c, (v, w, u)).triangles == split.triangles  # by its vertices


def test_merge_requires_interior_degree_three():
    c = strip(1, 1)
    with pytest.raises(NotApplicableError):
        pachner_31(c, 0)  # boundary vertex
    t = grid_torus()
    with pytest.raises(NotApplicableError):
        pachner_31(t, 0)  # degree 6


def test_merge_blocked_on_tetrahedron():
    c = pachner_13(sphere(), 0)
    # merging the new vertex works; merging any original vertex would either
    # fail the degree condition or recreate an existing triangle
    merged = pachner_31(c, 4)
    assert set(merged.triangles) == set(sphere().triangles)
    for v in range(3):
        with pytest.raises(NotApplicableError):
            pachner_31(sphere(), v)


# -- type-2 shellings ----------------------------------------------------------------


def test_shelling_split_and_merge_roundtrip():
    c = strip(1, 1)
    e = sorted(c.coloured_edges)[0]
    grown = shelling_split_edge(c, e)
    assert grown.validate().ok
    assert len(grown.coloured_edges) == len(c.coloured_edges) + 1
    back = shelling_merge_edges(grown, grown.vertex_count - 1)
    assert back.validate().ok
    assert set(back.triangles) == set(c.triangles)
    assert back.coloured_edges == c.coloured_edges


def test_shelling_open_and_close_roundtrip():
    c = pachner_13(strip(1, 1), 0)  # gives an interior vertex
    # find a coloured edge whose apex is interior
    site = None
    for e in sorted(c.coloured_edges):
        [(_, apex)] = c.edge_triangles()[e]
        if apex not in c.boundary_vertex_set():
            site = e
            break
    if site is None:
        pytest.skip("no applicable site in this configuration")
    opened = shelling_open_vertex(c, site)
    assert opened.validate().ok
    assert len(opened.triangles) == len(c.triangles) - 1
    closed = shelling_close_vertex(opened, apex)
    assert closed.validate().ok
    assert set(closed.triangles) == set(c.triangles)


def test_shelling_rejects_black_sites():
    c = strip(1, 1)
    with pytest.raises(NotApplicableError):
        shelling_split_edge(c, (0, 1))


def test_shelling_close_blocked_when_edge_exists():
    c = open_unit()  # apex vertex 2 has two coloured edges but (0,1) exists
    with pytest.raises(NotApplicableError):
        shelling_close_vertex(c, 2)


def test_moves_refuse_sites_whose_triangles_disagree_on_orientation():
    # vertex 0 lies in three triangles and on no boundary edge, but its link
    # is no oriented 3-cycle
    twisted = OpenClosedComplex(4, [(0, 1, 2), (0, 2, 3), (0, 1, 3)], [], [], [])
    with pytest.raises(NotApplicableError):
        pachner_31(twisted, 0)
    # both coloured boundary edges at vertex 0 point away from it
    notch = OpenClosedComplex(4, [(0, 1, 3), (0, 2, 3)], [(0, 1), (0, 2)], [], [])
    with pytest.raises(NotApplicableError):
        shelling_close_vertex(notch, 0)
    assert not twisted.validate().ok and not notch.validate().ok


def test_a_split_next_to_an_edge_in_three_triangles_patches_its_edge_index():
    c = OpenClosedComplex(5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)], [], [], [])
    split = pachner_13(c, 0)
    rebuilt = OpenClosedComplex(split.vertex_count, split.triangles, [], [], [])
    assert split.edge_triangles() == rebuilt.edge_triangles()
    assert len(split.edge_triangles()[0, 1]) == 3


def test_coloured_edges_that_branch_are_one_arc_and_are_reported():
    # three coloured edges meet at vertex 1: their component is one arc, and
    # the scan reports the complex
    c = OpenClosedComplex(4, [(0, 1, 2)], [(0, 1), (1, 2), (1, 3)], [], [])
    (arc,) = c.coloured_arcs()
    assert arc == [(0, 1), (1, 2), (1, 3)]
    assert not c.validate().ok


def _arcs_by_search(c):
    """The components of the coloured-edge graph by breadth-first search, each
    a sorted list of edges, in order of their smallest edge."""
    at = {}
    for e in c.coloured_edges:
        for v in e:
            at.setdefault(v, []).append(e)
    arcs, seen = [], set()
    for start in sorted(c.coloured_edges):
        if start in seen:
            continue
        seen.add(start)
        arc, queue = [], deque([start])
        while queue:
            e = queue.popleft()
            arc.append(e)
            for f in at[e[0]] + at[e[1]]:
                if f not in seen:
                    seen.add(f)
                    queue.append(f)
        arcs.append(sorted(arc))
    return arcs


def test_coloured_arcs_are_the_components_of_the_coloured_edges():
    params = {"strip": [(1, 1), (3, 2)], "annulus": [(1, 1), (4, 2)], "zipper": [(), (4, 2)],
              "cozipper": [(), (3, 2)], "closed_surface": [(2, 1)]}
    complexes = [builtin(name, *p) for name in S.BUILTIN_NAMES for p in params.get(name, [()])]
    complexes += [random_moves(c, seed=seed, n=40)
                  for c in generator_suite().values() for seed in range(3)]
    for c in complexes:
        arcs = c.coloured_arcs()
        assert arcs == _arcs_by_search(c)
        coloured = c.replaced(edge_colours={e: f"x{i}" for i, arc in enumerate(arcs) for e in arc})
        assert coloured.arc_colours() == {i: f"x{i}" for i in range(len(arcs))}
        doc = sio.complex_to_json(coloured)
        assert doc.get("brane_colours", {}) == {str(i): f"x{i}" for i in range(len(arcs))}
        assert sio.complex_from_json(doc).edge_colours == coloured.edge_colours


def test_a_walk_on_the_empty_complex_makes_no_move():
    empty = OpenClosedComplex(0, [], [], [], []).require_valid()
    assert random_moves(empty, seed=0, n=5) is empty


def test_shellings_preserve_brane_colours():
    c = strip(1, 1)
    arcs = c.coloured_arcs()
    coloured = c.replaced(edge_colours={e: f"x{i}" for i, arc in enumerate(arcs) for e in arc})
    e = arcs[0][0]
    grown = shelling_split_edge(coloured, e)
    assert grown.validate().ok
    new_arcs = grown.coloured_arcs()
    assert grown.arc_colours() == {i: ("x0" if any(0 in edge or 2 in edge for edge in arc) else "x1")
                                   for i, arc in enumerate(new_arcs)}


# -- fuzz driver ----------------------------------------------------------------------


def test_random_moves_zero_is_identity():
    c = strip(2, 2)
    assert random_moves(c, seed=5, n=0) is c


def test_random_moves_deterministic():
    c = builtin("open_mult")
    a = random_moves(c, seed=11, n=25)
    b = random_moves(c, seed=11, n=25)
    assert a.triangles == b.triangles and a.coloured_edges == b.coloured_edges
    other = random_moves(c, seed=12, n=25)
    assert (other.triangles != a.triangles) or (other.vertex_count != a.vertex_count)


@pytest.mark.parametrize("name,params", [
    ("strip", (1, 1)), ("annulus", (3, 3)), ("open_mult", ()),
    ("closed_surface", (1, 0)), ("closed_surface", (0, 2)), ("zipper", ()),
])
def test_random_moves_preserve_validity_and_topology(name, params):
    c = builtin(name, *params)
    before = c.validate()
    moved = random_moves(c, seed=3, n=40)
    after = moved.validate()
    assert after.ok
    keyfields = ("euler_characteristic", "boundary_cycles", "windows", "genus")
    assert [{k: comp[k] for k in keyfields} for comp in before.components] == \
           [{k: comp[k] for k in keyfields} for comp in after.components]
    # black boundary untouched
    assert [b.edges for b in moved.black_in] == [b.edges for b in c.black_in]
    assert [b.edges for b in moved.black_out] == [b.edges for b in c.black_out]


def test_applicable_moves_nonempty_everywhere():
    for name, params in [("strip", (1, 1)), ("annulus", (3, 3)), ("closed_unit", ())]:
        assert applicable_moves(builtin(name, *params))


# -- builders ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,l", [(1, 1), (2, 3), (3, 1)])
def test_strip_black_edge_counts(k, l):
    c = strip(k, l)
    assert c.validate().ok
    assert sum(len(b.edges) for b in c.black_in) == l
    assert sum(len(b.edges) for b in c.black_out) == k
    assert len(c.black_edge_set()) == k + l


@pytest.mark.parametrize("k,l", [(3, 3), (4, 5), (1, 1)])
def test_annulus_counts(k, l):
    c = annulus(k, l)
    assert c.validate().ok
    assert c.black_in[0].kind == "circle" and c.black_out[0].kind == "circle"
    assert len(c.black_in[0].edges) == max(l, 3)
    assert len(c.black_out[0].edges) == max(k, 3)


@pytest.mark.parametrize("g,w", [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 2), (3, 1)])
def test_closed_surface_invariants(g, w):
    c = closed_surface(g, w)
    report = c.validate()
    assert report.ok
    comp = report.components[0]
    assert comp["genus"] == g and comp["windows"] == w
    assert comp["euler_characteristic"] == 2 - 2 * g - w


def test_builtin_unknown_name():
    with pytest.raises(UnknownCatalogError):
        builtin("klein_bottle")
    with pytest.raises(UnknownCatalogError):
        builtin("strip", 0, 1)
    with pytest.raises(UnknownCatalogError, match="genus and windows must be >= 0"):
        closed_surface(-1, 0)


def test_generator_suite_is_eleven():
    suite = S.generator_suite()
    assert len(suite) == 11
    for name, c in suite.items():
        assert c.validate().ok, name


def test_reversed_cobordism_swaps_components():
    c = zipper()
    r = reversed_cobordism(c)
    assert r.validate().ok
    assert [b.kind for b in r.black_in] == [b.kind for b in c.black_out]
    assert [b.kind for b in r.black_out] == [b.kind for b in c.black_in]
    assert set(reversed_cobordism(r).triangles) == set(c.triangles)


def test_dig_hole_roles():
    base = annulus(3, 3)
    for role, slot in (("window", None), ("in", "black_in"), ("out", "black_out")):
        dug = dig_hole(base, 0, role)
        assert dug.validate().ok
        report = dug.validate()
        if role == "window":
            assert report.components[0]["windows"] == 1
        else:
            comps = getattr(dug, slot)
            assert len(comps) == 2 and comps[1].kind == "circle"


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_closed_surface_digs_its_windows_like_dig_hole(genus):
    # closed_surface digs every window on one triangle list; it must build the
    # complex that digging one hole at a time through dig_hole builds
    for windows in range(7):
        surf = closed_surface(genus, 0)
        for h in range(windows):
            surf = dig_hole(surf, h, "window")
        batched = closed_surface(genus, windows)
        assert batched.vertex_count == surf.vertex_count
        assert batched.triangles == surf.triangles
        assert batched.coloured_edges == surf.coloured_edges
        assert batched.edge_colours == surf.edge_colours
        assert (batched.black_in, batched.black_out) == (surf.black_in, surf.black_out) == ((), ())


def test_boundary_component_is_a_value():
    b = BoundaryComponent(**{"kind": "circle", "edges": [[0, 1], [1, 2], [2, 0]]})
    assert b.edges == ((0, 1), (1, 2), (2, 0))
    same = BoundaryComponent("circle", [(0, 1), (1, 2), (2, 0)])
    assert b == same and hash(b) == hash(same)
    assert len({b, same}) == 1
    assert b != BoundaryComponent("interval", [(0, 1), (1, 2), (2, 0)])
    assert b != BoundaryComponent("circle", [(1, 2), (2, 0), (0, 1)])
    assert b != ("circle", b.edges)
    with pytest.raises(AttributeError):
        b.kind = "interval"
    with pytest.raises(InvalidComplexError):
        BoundaryComponent("disk", [(0, 1)])


def test_complex_report_truth_follows_ok():
    assert ComplexReport(ok=True, violations=[], components=[])
    assert not ComplexReport(False, ["bad"], [])


def test_connected_sum_genus_adds():
    two = connected_sum(minimal_torus(), 0, minimal_torus(), 0)
    report = two.validate()
    assert report.ok and report.components[0]["genus"] == 2


def test_disjoint_union_components():
    c = disjoint_union(strip(1, 1), open_unit())
    report = c.validate()
    assert report.ok and len(report.components) == 2
    assert len(c.black_in) == 1 and len(c.black_out) == 2


def test_disjoint_union_keeps_an_isolated_vertex():
    # a sphere declared on 5 vertices: vertex 4 lies in no triangle
    loose = OpenClosedComplex(5, sphere().triangles, [], [], [])
    assert not loose.validate().ok
    union = disjoint_union(loose, closed_surface(0, 0))
    assert not union.validate().ok
    with pytest.raises(InvalidComplexError):
        union.require_valid()


def test_glue_shape_mismatch_rejected():
    with pytest.raises(InvalidComplexError):
        glue(strip(1, 1), strip(1, 2))  # 1-edge out onto 2-edge in
    with pytest.raises(InvalidComplexError):
        glue(annulus(3, 3), strip(3, 3))  # circle onto interval
    with pytest.raises(InvalidComplexError, match="counts differ"):
        glue(strip(1, 1), open_mult())  # one output onto two inputs
    # two inputs share vertex 1, which the two outputs would send to two vertices
    shared = OpenClosedComplex(3, [(0, 1, 2)], [], [BoundaryComponent("interval", [(0, 1)]),
                                                   BoundaryComponent("interval", [(1, 2)])], [])
    with pytest.raises(InvalidComplexError, match="vertex 1 identified twice"):
        glue(disjoint_union(strip(1, 1), strip(1, 1)), shared)


def test_only_circles_rotate_and_holes_have_a_role():
    with pytest.raises(InvalidComplexError):
        S.rotate_circle(strip(1, 1), "in", 0, 1)
    with pytest.raises(UnknownCatalogError):
        dig_hole(sphere(), 0, "door")


def test_glue_strip_stack():
    g = glue(strip(1, 1), strip(1, 1))
    report = g.validate()
    assert report.ok
    assert len(g.black_in) == 1 and len(g.black_out) == 1
    assert report.components[0]["genus"] == 0


def test_closed_mult_shape():
    c = closed_mult()
    assert [b.kind for b in c.black_in] == ["circle", "circle"]
    assert [b.kind for b in c.black_out] == ["circle"]
    assert c.validate().components[0]["euler_characteristic"] == -1


def _walk_state(c):
    return (c.vertex_count, c.triangles, sorted(c.coloured_edges), c.black_in, c.black_out,
            sorted(c.edge_colours.items()))


# SHA-1 over the walks of acceptance test 05's slice (13 complexes, seeds
# 1000 * t + 17 for t < 20, 30 moves each), computed with the earlier
# implementation in which applicable_moves restated every move's precondition
# and random_moves skipped a listed move that then failed to apply.
FUZZ_TRAFFIC_SHA1 = "0c39a9dad3aa8fa8dfa3188044a15e506f01eeec"


def test_fuzz_traffic_is_pinned():
    suite = dict(generator_suite(), torus=closed_surface(1, 0),
                 genus2_window=closed_surface(2, 1))
    digest = hashlib.sha1()
    for c in suite.values():
        for trial in range(20):
            digest.update(repr(_walk_state(random_moves(c, seed=1000 * trial + 17, n=30))).encode())
    assert digest.hexdigest() == FUZZ_TRAFFIC_SHA1


# SHA-1 of the state of two 1,000-move walks (760 and 859 triangles at the
# end, about a hundred deletion steps each), computed with the earlier
# implementation in which every move that deletes a vertex or a triangle
# renumbered the rest at once.  Inside a walk ids now stay sparse until the
# walk returns, so these check that one compaction at the end draws and
# builds the same walk.
@pytest.mark.parametrize("start,seed,sha1", [
    (open_mult, 0, "42dcdb2d48ff3ccdf11700fd72668a0d0894cc95"),
    (zipper, 5, "77dfaae4ebaa9231b618b64634d54a6db941a07f"),
])
def test_long_walks_are_pinned(start, seed, sha1):
    c = random_moves(start(), seed=seed, n=1000)
    assert hashlib.sha1(repr(_walk_state(c)).encode()).hexdigest() == sha1


# SHA-1 over the JSON files of the catalog complexes (each builtin at one or two
# parameter sets, closed_surface(g, w) for g <= 4 and w <= 2) and of one glue
# and one disjoint_union composite, so that a rewrite of the builders in
# cobordisms.py keeps every vertex label and every list order.
CATALOG_COMPLEXES_SHA1 = "b8f63f3aa718dbdc91d889cec1738c6c4e33ae79"


def test_catalog_complexes_are_pinned():
    params = {"strip": [(1, 1), (3, 2)], "annulus": [(1, 1), (4, 2)], "zipper": [(), (4, 2)],
              "cozipper": [(), (3, 2)], "closed_surface": [(2, 1)]}
    complexes = [builtin(name, *p) for name in S.BUILTIN_NAMES for p in params.get(name, [()])]
    complexes += [closed_surface(g, w) for g in range(5) for w in range(3)]
    complexes += [glue(builtin("closed_comult"), builtin("closed_mult")),
                  glue(disjoint_union(open_unit(), strip(1, 1)), open_mult())]
    digest = hashlib.sha1()
    for c in complexes:
        digest.update(sio.dumps(sio.complex_to_json(c)).encode())
    assert digest.hexdigest() == CATALOG_COMPLEXES_SHA1


_MOVE_BY_KIND = {
    "flip": pachner_22,
    "split": pachner_13,
    "merge": pachner_31,
    "shell_split": shelling_split_edge,
    "shell_merge": shelling_merge_edges,
    "shell_open": shelling_open_vertex,
    "shell_close": shelling_close_vertex,
}


def _candidate_sites(c):
    """Every site a move of each kind could be asked about, out-of-range ones included."""
    vertices = range(c.vertex_count + 1)
    return {"flip": c.edges(), "split": range(len(c.triangles) + 1), "merge": vertices,
            "shell_split": c.edges(), "shell_open": c.edges(),
            "shell_merge": vertices, "shell_close": vertices}


def test_applicable_moves_are_exactly_the_moves_that_apply():
    """On the states of seeded walks, a move applies (to a valid complex)
    exactly at the sites applicable_moves lists, and it lists no site twice."""
    starts = [sphere(), strip(2, 2), annulus(3, 3), open_unit(), zipper(), closed_surface(1, 1)]
    kinds_seen = set()
    for start in starts:
        for seed in (1, 2):
            c = start
            for step in range(12):
                listed = applicable_moves(c)
                assert len(set(listed)) == len(listed)
                accepted = []
                for kind, sites in _candidate_sites(c).items():
                    for site in sites:
                        try:
                            moved = _MOVE_BY_KIND[kind](c, site)
                        except NotApplicableError:
                            continue
                        assert moved.validate().ok, (kind, site)
                        accepted.append((kind, site))
                assert set(accepted) == set(listed)
                kinds_seen.update(kind for kind, _ in listed)
                c = random_moves(c, seed=100 * seed + step, n=1)
    assert kinds_seen == set(_MOVE_BY_KIND)


def _indexes(c):
    return (c.triangles, c._edge_tris, c.vertex_triangles(), c.boundary_edges_at())


def test_moves_build_the_complex_the_constructor_builds():
    """At every step of the pinned walks, the child a move builds from its
    parent's indexes has the indexes the constructor builds from the child's
    own fields, and lists the same moves; the constructor's rebuild passes a
    full scan at every step of the first two walks and at the end of each."""
    suite = dict(generator_suite(), torus=closed_surface(1, 0),
                 genus2_window=closed_surface(2, 1))
    for start in suite.values():
        for trial in range(20):
            rng = random.Random(1000 * trial + 17)  # random_moves' walk, step by step
            c = start
            moves = applicable_moves(c)
            for _ in range(30):
                if not moves:
                    break
                kind, site = moves[rng.randrange(len(moves))]
                c = _MOVE_BY_KIND[kind](c, site)
                moves = applicable_moves(c)
                scratch = OpenClosedComplex(c.vertex_count, c.triangles, c.coloured_edges,
                                            c.black_in, c.black_out, c.edge_colours)
                assert _indexes(c) == _indexes(scratch), (kind, site)
                assert moves == applicable_moves(scratch), (kind, site)
                if trial < 2:  # a full scan of every step costs 3 s; two walks of each start
                    assert scratch._violations() == [], (kind, site)
            # a walk carries its start's validity, so evaluation scans none of its complexes
            assert scratch._violations() == []  # the rebuild of the walk's last complex
            assert _walk_state(c) == _walk_state(random_moves(start, seed=1000 * trial + 17, n=30))


def _walk_checking_sites(start, seed, n, patched):
    """``random_moves(start, seed, n)`` step by step, checking at every step
    that the moves read off the walked complex's sites equal those a
    constructor rebuild lists by a full scan.  Adds to ``patched`` the kinds
    of the moves whose child came with its sites already patched."""
    rng = random.Random(seed)
    c = start
    for _ in range(n):
        moves = applicable_moves(c)
        assert moves == applicable_moves(_rebuilt(c))
        if not moves:
            break
        kind, site = moves[rng.randrange(len(moves))]
        c = _MOVE_BY_KIND[kind](c, site)
        if c._sites is not None:
            patched.add(kind)
    assert applicable_moves(c) == applicable_moves(_rebuilt(c))
    assert _walk_state(c) == _walk_state(random_moves(start, seed=seed, n=n))
    return c


def test_patched_move_sites_equal_a_full_scan():
    """On held-out walks, a child's move sites patched from its parent's list
    the moves a full scan lists, in the same order; the moves that renumber
    vertices or shift indices leave their child to a full scan."""
    patched = set()
    suite = dict(generator_suite(), torus=closed_surface(1, 0),
                 genus2_window=closed_surface(2, 1))
    for start in suite.values():
        for trial in range(20, 25):  # test 05 and the pins use trials 0-19
            _walk_checking_sites(start, 1000 * trial + 17, 30, patched)
    starts = [sphere(), strip(2, 2), annulus(3, 3), open_unit(), zipper(), closed_surface(1, 1)]
    for start in starts:
        for seed in (3, 4):
            _walk_checking_sites(start, seed, 60, patched)
    long_walk = _walk_checking_sites(zipper(), 5, 400, patched)
    assert len(long_walk.triangles) > 100
    assert patched == {"flip", "split", "shell_split", "shell_close"}

    # a walk whose complexes never list their sites, chosen from rebuilds: a
    # child of a complex without sites has none, and its first listing scans
    start = _rebuilt(zipper())
    rng = random.Random(9)
    c = start
    for _ in range(40):
        moves = applicable_moves(_rebuilt(c))
        kind, site = moves[rng.randrange(len(moves))]
        c = _MOVE_BY_KIND[kind](c, site)
        assert c._sites is None
    assert start._sites is None
    assert _walk_state(c) == _walk_state(random_moves(start, seed=9, n=40))
    _walk_checking_sites(c, 10, 60, patched)


def _compaction_map(c):
    """The renaming by which ``_compacted`` closes up the deleted vertex ids of ``c``."""
    dead = set(c._holes[0])
    return {v: i for i, v in enumerate(v for v in range(c.vertex_count) if v not in dead)}


def _renamed_sites(sites, vmap):
    flips, merges, edge_sites, vertex_sites = sites
    return [[(vmap[u], vmap[v]) for (u, v) in flips], [vmap[v] for v in merges],
            [((vmap[u], vmap[v]), rank) for (u, v), rank in edge_sites],
            [(vmap[v], rank) for v, rank in vertex_sites]]


def test_walk_children_come_with_patched_sites():
    """On held-out walks stepped through the walk's own moves, which leave the
    ids they delete unused, every child comes with its move sites patched from
    its parent's, and these name, with the ids compacted, the sites a full
    scan of the compacted rebuild lists."""
    kinds = set()
    suite = dict(generator_suite(), torus=closed_surface(1, 0),
                 genus2_window=closed_surface(2, 1))
    walks = [(start, 1000 * trial + 17, 30) for start in suite.values() for trial in range(25, 28)]
    walks += [(start, seed, 60) for start in (sphere(), strip(2, 2), annulus(3, 3), open_unit(),
                                              zipper(), closed_surface(1, 1)) for seed in (6, 7)]
    walks += [(zipper(), 8, 400), (open_mult(), 9, 400)]
    for start, seed, n in walks:
        rng = random.Random(seed)  # random_moves' walk, step by step
        c = start
        for _ in range(n):
            count = _move_count(c)
            if not count:
                break
            kind, site = _nth_move(c, rng.randrange(count))
            c = _MOVES[kind](c, site)
            assert c._sites is not None, (kind, site)
            kinds.add(kind)
            compact = _rebuilt(_compacted(c))
            assert _renamed_sites(c._sites, _compaction_map(c)) == _listed_sites(compact), (kind, site)
        assert _walk_state(_compacted(c)) == _walk_state(random_moves(start, seed=seed, n=n))
    assert len(c._holes[1]) > 10
    assert kinds == set(_MOVE_BY_KIND)


def _compacted_indexes(c):
    """The vertex and boundary indexes of ``c``, its vertex and triangle ids
    renamed as ``_compacted`` renames them."""
    vmap = _compaction_map(c)
    tmap = {i: k for k, i in enumerate(i for i, t in enumerate(c.triangles) if t is not None)}
    return ({vmap[v]: [tmap[i] for i in ts] for v, ts in c._vertex_tris.items()},
            {vmap[v]: [(vmap[a], vmap[b]) for a, b in es] for v, es in c._boundary_at.items()})


def test_every_child_carries_its_vertex_and_boundary_indexes(monkeypatch):
    """The child each move patches, the walk's and the public one, comes with
    a vertex and a boundary index of its own, whether its parent was reached
    by a walk and carries both or was just constructed and has neither; with
    the ids compacted, they are the indexes of the constructor's rebuild."""
    children = []  # what each call of _patched returns
    patched = OpenClosedComplex._patched
    monkeypatch.setattr(OpenClosedComplex, "_patched",
                        lambda c, *args, **kw: children.append(patched(c, *args, **kw)) or children[-1])

    def check(move, parent, site):
        children.clear()
        moved = move(parent, site)
        (child,) = children
        assert child._vertex_tris is not None and child._boundary_at is not None, (move, site)
        rebuilt = _rebuilt(_compacted(child))
        assert _compacted_indexes(child) == (rebuilt.vertex_triangles(),
                                             rebuilt.boundary_edges_at()), (move, site)
        assert _walk_state(_compacted(moved)) == _walk_state(_compacted(child))
        return child

    walked, fresh = set(), set()
    starts = [*generator_suite().values(), zipper(), open_mult(), closed_surface(1, 1)]
    for seed, start in enumerate(starts):
        rng = random.Random(seed)  # random_moves' walk, step by step
        c = start
        for _ in range(40):
            kind, site = _nth_move(c, rng.randrange(_move_count(c)))
            check(_MOVE_BY_KIND[kind], c, site)
            c = check(_MOVES[kind], c, site)
            walked.add(kind)
        for kind, site in dict(applicable_moves(_rebuilt(_compacted(c)))).items():
            for move in (_MOVES[kind], _MOVE_BY_KIND[kind]):
                check(move, _rebuilt(_compacted(c)), site)
            fresh.add(kind)
    assert walked == fresh == set(_MOVE_BY_KIND)


@pytest.mark.parametrize("kind,site", [
    ("flip", 5), ("flip", (1, 2, 3)), ("flip", (False, 3)), ("flip", "03"), ("flip", (0.0, 3)),
    ("split", (0, 0, 1)), ("split", True), ("split", (0, 3)), ("split", 1.0),
    ("merge", True), ("merge", (4,)), ("shell_split", (True, 3)), ("shell_open", [1, True]),
    ("shell_merge", False), ("shell_close", None), ("split", (0, 1, 2)),
])
def test_malformed_sites_are_not_applicable(kind, site):
    c = strip(1, 1)  # flip (0, 3), split 0 and 1, shell_split (0, 2) and (1, 3) apply
    assert len(applicable_moves(c)) == 5
    with pytest.raises(NotApplicableError):
        _MOVE_BY_KIND[kind](c, site)
