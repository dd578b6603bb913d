import json
import os
import subprocess
import sys
import time

import pytest

import statesum as S
from statesum import io as sio
from statesum.cli import main
from statesum.errors import InvalidComplexError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def m23_file(tmp_path, capsys):
    path = str(tmp_path / "m23.json")
    code = main(["catalog", "algebra", "matsum", "2,3", "1,1", "rational", "-o", path])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture()
def z2_file(tmp_path, capsys):
    path = str(tmp_path / "z2.json")
    code = main(["catalog", "algebra", "group", "cyclic", "2", "rational", "-o", path])
    capsys.readouterr()
    assert code == 0
    return path


# -- round trips ----------------------------------------------------------------------


def test_algebra_file_roundtrip(m23_file):
    with open(m23_file) as fh:
        doc = sio.loads(fh.read())
    alg, F, blocks = sio.algebra_from_json(doc)
    assert alg.dim == 13 and blocks == {"sizes": [2, 3], "windows": [1, 1]}
    redumped = sio.algebra_to_json(alg, frobenius=doc["frobenius"], blocks=doc["blocks"])
    assert sio.dumps(redumped) == sio.dumps(doc)


def test_complex_file_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "c.json")
    assert main(["catalog", "complex", "zipper", "-o", path]) == 0
    capsys.readouterr()
    with open(path) as fh:
        doc = sio.loads(fh.read())
    c = sio.complex_from_json(doc)
    assert c.validate().ok
    assert sio.dumps(sio.complex_to_json(c)) == sio.dumps(doc)


def test_complex_brane_colours_roundtrip():
    c = S.strip(1, 1)
    arcs = c.coloured_arcs()
    c = c.replaced(edge_colours={e: f"brane{i}" for i, arc in enumerate(arcs) for e in arc})
    doc = sio.complex_to_json(c)
    assert doc["brane_colours"] == {"0": "brane0", "1": "brane1"}
    c2 = sio.complex_from_json(doc)
    assert c2.edge_colours == c.edge_colours


def test_output_is_byte_stable(m23_file, tmp_path, capsys):
    other = str(tmp_path / "again.json")
    assert main(["catalog", "algebra", "matsum", "2,3", "1,1", "rational", "-o", other]) == 0
    capsys.readouterr()
    assert open(m23_file).read() == open(other).read()


# -- commands ---------------------------------------------------------------------------


def test_algebra_check_reports(z2_file, capsys):
    code, out = run(capsys, "algebra", "check", z2_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2 and doc["centre_dim"] == 2 and doc["strongly_separable"]
    assert doc["window"] == ["2", "0"]


def test_algebra_check_not_strongly_separable(tmp_path, capsys):
    path = str(tmp_path / "m2f2.json")
    assert main(["catalog", "algebra", "matsum", "2", "1", "prime:2", "-o", path]) == 0
    capsys.readouterr()
    code, out = run(capsys, "algebra", "check", path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "NotStronglySeparableError"


def test_algebra_check_malformed_json(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{ not json")
    code, out = run(capsys, "algebra", "check", path)
    assert code == 1


def test_algebra_check_non_associative_file(tmp_path, capsys):
    # unit laws hold but (x x) x != x (x x); must exit 1 with the witness error
    doc = {
        "field": {"kind": "rational"}, "dim": 3,
        "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                [0, 2, 2, "1"], [2, 0, 2, "1"], [1, 1, 2, "1"], [2, 1, 2, "1"]],
        "unit": ["1", "0", "0"],
    }
    path = write(tmp_path, "assoc.json", sio.dumps(doc))
    code, out = run(capsys, "algebra", "check", path)
    assert code == 1
    assert json.loads(out)["error"] == "NotAssociativeError"


def test_frobenius_show(z2_file, capsys):
    code, out = run(capsys, "frobenius", "show", z2_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counit"] == ["1", "0"]
    assert doc["special"] is True


def test_knowledgeable_command(m23_file, capsys):
    code, out = run(capsys, "knowledgeable", m23_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_dim"] == 2
    assert all(r["ok"] for r in doc["axioms"])


def test_eval_full_strip_identity(m23_file, tmp_path, capsys):
    cpath = str(tmp_path / "strip.json")
    assert main(["catalog", "complex", "strip", "1", "1", "-o", cpath]) == 0
    capsys.readouterr()
    code, out = run(capsys, "eval", "--algebra", m23_file, "--complex", cpath,
                    "--mode", "full", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["domain"] == [{"kind": "full", "dim": 13}]
    n = 13
    for i in range(n):
        for j in range(n):
            assert doc["matrix"][i][j] == ("1" if i == j else "0")


def test_eval_full_annulus_identity_on_split(z2_file, tmp_path, capsys):
    cpath = str(tmp_path / "ann.json")
    assert main(["catalog", "complex", "annulus", "1", "1", "-o", cpath]) == 0
    capsys.readouterr()
    code, out = run(capsys, "eval", "--algebra", z2_file, "--complex", cpath,
                    "--mode", "full", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["domain"] == [{"kind": "split", "dim": 2}]
    assert doc["matrix"] == [["1", "0"], ["0", "1"]]


def test_eval_full_annulus_matrix_algebra_split_is_one_dim(tmp_path, capsys):
    apath = str(tmp_path / "m2.json")
    assert main(["catalog", "algebra", "matsum", "2", "1", "rational", "-o", apath]) == 0
    cpath = str(tmp_path / "ann.json")
    assert main(["catalog", "complex", "annulus", "1", "1", "-o", cpath]) == 0
    capsys.readouterr()
    code, out = run(capsys, "eval", "--algebra", apath, "--complex", cpath,
                    "--mode", "full", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == [["1"]]  # identity on the 1-dim split image


def test_eval_closed_torus_scalar(z2_file, tmp_path, capsys):
    cpath = str(tmp_path / "torus.json")
    assert main(["catalog", "complex", "closed_surface", "1", "0", "-o", cpath]) == 0
    capsys.readouterr()
    code, out = run(capsys, "eval", "--algebra", z2_file, "--complex", cpath, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["domain"] == [] and doc["codomain"] == []
    assert doc["matrix"] == [["2"]]


def test_surface_command_matches_oracles(m23_file, capsys):
    code, out = run(capsys, "surface", "--algebra", m23_file,
                    "--genus", "1", "--windows", "0", "--oracle", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["contracted"] == "2" == doc["closed_form"] == doc["genus_window_operator"]
    assert doc["match"] is True


def test_surface_genus2(z2_file, capsys):
    code, out = run(capsys, "surface", "--algebra", z2_file,
                    "--genus", "2", "--windows", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["contracted"] == "8"


def test_fuzz_command_all_equal(z2_file, tmp_path, capsys):
    cpath = str(tmp_path / "strip.json")
    assert main(["catalog", "complex", "strip", "1", "1", "-o", cpath]) == 0
    capsys.readouterr()
    code, out = run(capsys, "fuzz", "--algebra", z2_file, "--complex", cpath,
                    "--moves", "10", "--trials", "4", "--seed", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_equal"] is True and len(doc["trials"]) == 4


def test_fuzz_seed_determinism(z2_file, tmp_path, capsys):
    cpath = str(tmp_path / "open_mult.json")
    assert main(["catalog", "complex", "open_mult", "-o", cpath]) == 0
    capsys.readouterr()
    _, out1 = run(capsys, "fuzz", "--algebra", z2_file, "--complex", cpath,
                  "--moves", "8", "--trials", "3", "--seed", "5", "--json")
    _, out2 = run(capsys, "fuzz", "--algebra", z2_file, "--complex", cpath,
                  "--moves", "8", "--trials", "3", "--seed", "5", "--json")
    assert out1 == out2


def test_fuzz_corrupt_negative_control(z2_file, tmp_path, capsys, monkeypatch):
    # off by one in the smallest entry of the trilinear form: move invariance must fail
    trilinear = S.FrobeniusStructure.trilinear

    def corrupted(F):
        g3 = dict(trilinear(F))
        key = min(g3)
        g3[key] = F.field.add(g3[key], F.field.one())
        return g3

    cpath = str(tmp_path / "strip.json")
    assert main(["catalog", "complex", "strip", "1", "1", "-o", cpath]) == 0
    capsys.readouterr()
    monkeypatch.setattr(S.FrobeniusStructure, "trilinear", corrupted)
    code, out = run(capsys, "fuzz", "--algebra", z2_file, "--complex", cpath,
                    "--moves", "12", "--trials", "4", "--seed", "0", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_equal"] is False


def test_catalog_unknown_name(capsys):
    code, out = run(capsys, "catalog", "complex", "nonsense")
    assert code == 1
    code, out = run(capsys, "catalog", "algebra", "nonsense")
    assert code == 1


BAD_CATALOG_PARAMS = {
    ("matsum", "2", "x"): "InvalidInput",  # a non-integer window
    ("matsum", "2", "1", "4"): "InvalidInput",  # a composite modulus
    ("matsum", "2", "1", str(2**82 + 1)): "InvalidInput",  # too large to certify
    ("matsum",): "InvalidInput",
    ("matsum", "2"): "InvalidInput",
    ("matsum", "0", "1"): "InvalidInput",
    ("matsum", "2,3", "1"): "InvalidInput",
    ("group", "cyclic"): "InvalidInput",
    ("group", "foo", "3"): "UnknownCatalogError",
    ("group", "symmetric", "-1"): "InvalidInput",
    ("group", "cyclic", "0"): "InvalidInput",
    ("group", "cyclic", "2", "rational", "extra"): "InvalidInput",
}


@pytest.mark.parametrize("params", list(BAD_CATALOG_PARAMS))
def test_catalog_matsum_bad_parameters_are_invalid_input(capsys, params):
    code, out = run(capsys, "catalog", "algebra", *params)
    assert code == 1
    assert json.loads(out)["error"] == BAD_CATALOG_PARAMS[params]


@pytest.mark.parametrize("params,library", [
    (("matsum", "2,3", "1,2"), lambda: S.matrix_direct_sum(S.QQ, [2, 3], [1, 2])),
    (("group", "symmetric", "3"), lambda: S.group_algebra(S.QQ, S.GroupTable.symmetric(3))),
], ids=["matsum", "group"])
def test_catalog_files_load_to_the_library_algebras(tmp_path, capsys, params, library):
    path = str(tmp_path / "a.json")
    assert main(["catalog", "algebra", *params, "-o", path]) == 0
    capsys.readouterr()
    with open(path) as fh:
        alg, F, _ = sio.algebra_from_json(sio.loads(fh.read()))
    want_alg, want_F = library()
    assert list(alg.mul_entries()) == list(want_alg.mul_entries())
    assert alg.unit == want_alg.unit
    assert F.counit == want_F.counit


def _z2_doc(**changes):
    doc = {"field": {"kind": "rational"}, "dim": 2, "basis": ["r0", "r1"],
           "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
           "unit": ["1", "0"], "frobenius": {"counit": ["1", "0"]}}
    doc.update(changes)
    return doc


_TRIANGLE = {"vertices": 3, "triangles": [[0, 1, 2]], "coloured_edges": [],
             "black_in": [], "black_out": []}


@pytest.mark.parametrize("algebra,complex_", [
    (_z2_doc(mul=[[0, 0, 5, "1"]]), _TRIANGLE),
    (_z2_doc(unit=["1"]), _TRIANGLE),
    (_z2_doc(frobenius={"counit": ["1"]}), _TRIANGLE),
    (_z2_doc(frobenius={"window": ["2"]}), _TRIANGLE),
    (_z2_doc(basis=["r0"]), _TRIANGLE),
    (_z2_doc(dim=-1), _TRIANGLE),
    (_z2_doc(), dict(_TRIANGLE, triangles=[[0, 1]])),
    (_z2_doc(mul=[[0, 0, 0, "1/0"]]), _TRIANGLE),
    (_z2_doc(mul=[[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]], unit=[1, 0]),
     _TRIANGLE),
    (_z2_doc(dim=float("inf")), _TRIANGLE),
    (_z2_doc(), dict(_TRIANGLE, brane_colours=True)),
    (_z2_doc(), dict(sio.complex_to_json(S.strip(1, 1)), brane_colours={"0": [1]})),
    # every integer of a file must be a JSON integer: nothing is truncated or
    # read from a boolean, and the basis is a list of names
    (_z2_doc(dim=2.5), _TRIANGLE),
    (_z2_doc(field={"kind": "prime", "p": 7.9}), _TRIANGLE),
    (_z2_doc(mul=[[0, 0, 0, "1"], [0, 1.0, 1, "1"], [1.0, 0, 1, "1"], [1, 1, 0.0, "1"]]),
     _TRIANGLE),
    (_z2_doc(mul=[[0, 0, 0, "1"], [0, True, 1, "1"], [True, 0, 1, "1"], [1, 1, 0, "1"]]),
     _TRIANGLE),
    (_z2_doc(basis={"a": 1, "b": 2}), _TRIANGLE),
    (_z2_doc(basis=[0, 1]), _TRIANGLE),
    (_z2_doc(blocks={"sizes": [1.5, 1], "windows": [1, 1]}), _TRIANGLE),
    (_z2_doc(), dict(_TRIANGLE, vertices=3.0)),
    (_z2_doc(), dict(_TRIANGLE, triangles=[[0, 1, 2.0]])),
    (_z2_doc(), dict(_TRIANGLE, coloured_edges=[[0, True], [1, 2], [2, 0]])),
    # the declared dim is checked against the unit before anything of its size is built
    (_z2_doc(dim=1000000000, unit=["1"]), _TRIANGLE),
], ids=["index", "unit", "counit", "window", "basis", "negative_dim", "two_vertex_triangle",
        "zero_denominator", "number_coefficients", "infinite_dim", "brane_not_object",
        "brane_list_colour", "fractional_dim", "fractional_prime", "float_indices",
        "boolean_indices", "basis_object", "basis_numbers", "fractional_block_size",
        "float_vertex_count", "float_triangle_vertex", "boolean_edge_vertex", "huge_dim"])
def test_malformed_file_shapes_are_file_format_errors(tmp_path, capsys, algebra, complex_):
    apath = write(tmp_path, "a.json", sio.dumps(algebra))
    cpath = write(tmp_path, "c.json", sio.dumps(complex_))
    code, out = run(capsys, "eval", "--algebra", apath, "--complex", cpath, "--json")
    assert code == 1
    assert json.loads(out)["error"] == "FileFormatError"


def test_eval_invalid_complex_file(z2_file, tmp_path, capsys):
    doc = {"vertices": 5, "triangles": [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
           "coloured_edges": [], "black_in": [], "black_out": []}
    path = write(tmp_path, "bad_complex.json", sio.dumps(doc))
    code, out = run(capsys, "eval", "--algebra", z2_file, "--complex", path)
    assert code == 1


def test_eval_huge_declared_vertex_count(z2_file, tmp_path, capsys):
    # the unused vertices are counted, not listed one by one
    doc = sio.complex_to_json(S.builtin("open_mult"))
    doc["vertices"] = 10**9
    path = write(tmp_path, "huge_complex.json", sio.dumps(doc))
    code, out = run(capsys, "eval", "--algebra", z2_file, "--complex", path)
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "InvalidComplexError"
    assert err["message"].count("isolated_vertex") == 1
    assert "999999994 of 1000000000 vertices lie in no triangle, the smallest 6" in err["message"]


def test_degenerate_triangle_is_refused_at_construction(z2_file, tmp_path, capsys):
    # a triangle with a repeated vertex never reaches validate(): the
    # constructor refuses it, and eval reports that as a JSON error
    with pytest.raises(InvalidComplexError, match="degenerate triangle"):
        S.OpenClosedComplex(3, [(0, 0, 1)], [], [], [])
    doc = {"vertices": 3, "triangles": [[0, 0, 1]],
           "coloured_edges": [], "black_in": [], "black_out": []}
    path = write(tmp_path, "degenerate.json", sio.dumps(doc))
    code, out = run(capsys, "eval", "--algebra", z2_file, "--complex", path, "--json")
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "InvalidComplexError"
    assert "degenerate triangle (0, 0, 1)" in err["message"]


def test_missing_file(capsys):
    code, out = run(capsys, "algebra", "check", "/nonexistent/path.json")
    assert code == 1


# -- sparse output ----------------------------------------------------------------------


def _dense_eval_stdout(z, as_json):
    """What ``eval`` printed when every result was a dense matrix of strings."""
    rows = [[z.field.format(x) for x in row] for row in z.matrix.data]
    if as_json:
        doc = {"domain": [{"kind": f.kind, "dim": f.dim} for f in z.domain],
               "codomain": [{"kind": f.kind, "dim": f.dim} for f in z.codomain],
               "matrix": rows}
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    lines = [f"domain: {list(z.domain)}", f"codomain: {list(z.codomain)}"]
    return "".join(line + "\n" for line in lines + [" ".join(row) for row in rows])


_EVAL_CASES = [  # algebra catalog parameters, complex, mode
    (["matsum", "1,2", "1,1"], ("strip", 2, 2), "raw"),
    (["matsum", "1,2", "1,1"], ("strip", 2, 2), "reduced"),
    (["matsum", "1,2", "1,1"], ("annulus", 3, 3), "reduced"),
    (["matsum", "1,2", "1,1"], ("annulus", 3, 3), "full"),
    (["matsum", "1,2", "1,1"], ("zipper", 3, 2), "full"),
    (["matsum", "1,2", "1,1"], ("closed_surface", 1, 0), "full"),
    (["group", "cyclic", "3", "7"], ("strip", 2, 1), "raw"),
    (["group", "cyclic", "3", "7"], ("closed_surface", 2, 1), "raw"),
    (["matsum", "1,2", "1,1"], ("strip", 4, 4), "raw"),
]


@pytest.mark.parametrize("params,shape,mode", _EVAL_CASES,
                         ids=[f"{p[0]}-{s[0]}_{s[1]}_{s[2]}-{m}" for p, s, m in _EVAL_CASES])
def test_eval_output_is_the_dense_rendering(tmp_path, capsys, params, shape, mode):
    apath, cpath = str(tmp_path / "a.json"), str(tmp_path / "c.json")
    assert main(["catalog", "algebra", *params, "-o", apath]) == 0
    c = S.builtin(*shape)
    write(tmp_path, "c.json", sio.dumps(sio.complex_to_json(c)))
    capsys.readouterr()
    F = sio.algebra_from_json(sio.loads(open(apath).read()))[1]
    fn = {"raw": S.state_sum_raw, "reduced": S.state_sum_reduced, "full": S.state_sum}[mode]
    z = fn(F, c)
    for as_json in (True, False):
        code, out = run(capsys, "eval", "--algebra", apath, "--complex", cpath, "--mode", mode,
                        *(["--json"] if as_json else []))
        assert code == 0
        assert out == _dense_eval_stdout(z, as_json)
    if params[0] == "matsum" and shape[0] == "strip" and mode == "raw":
        assert any(not any(row) for row in z.matrix.data)  # all-zero rows are covered


def test_inspection_commands_print_the_dense_rendering(m23_file, capsys):
    alg, F, _ = sio.algebra_from_json(sio.loads(open(m23_file).read()))
    K = F.knowledgeable()
    f = alg.field

    def rows(m):
        return [[f.format(x) for x in row] for row in m.data]

    code, out = run(capsys, "frobenius", "show", m23_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pairing"] == rows(F.pairing)
    assert doc["pairing_inverse"] == rows(F.pairing_inverse)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    code, out = run(capsys, "frobenius", "show", m23_file)
    assert f"pairing: {rows(F.pairing)}" in out.splitlines()
    code, out = run(capsys, "knowledgeable", m23_file, "--json")
    doc = json.loads(out)
    assert doc["iota_star"] == rows(K.iota_star) and doc["mu_C"] == rows(K.C.mu_matrix())
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    code, out = run(capsys, "knowledgeable", m23_file)
    assert f"delta_C: {rows(K.C.delta_matrix())}" in out.splitlines()


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": [], "b": {}, "c": [[], [{}]], "d": None, "e": True, "f": False},
    {"z": 1, "a": -20, "m": "caf\u00e9 \"quoted\" \\ tab\t", "nested": {"y": [1, [2, [3]]]}},
    [["1", "0"], ["0", "1/2"]],
    "scalar",
], ids=["empty_dict", "empty_list", "containers", "scalars", "rows", "bare_string"])
def test_dumps_is_json_dumps_with_indent_one(doc):
    assert sio.dumps(doc) == json.dumps(doc, sort_keys=True, separators=(",", ": "),
                                        indent=1) + "\n"


@pytest.mark.parametrize("rows,cols,nonzeros", [
    (3, 4, {(0, 1): "2", (2, 3): "-1/3"}),
    (2, 2, {}),
    (1, 1, {(0, 0): "5"}),
    (0, 3, {}),
    (3, 0, {}),
], ids=["zero_row", "all_zero", "one_by_one", "no_rows", "no_cols"])
def test_matrix_text_is_written_as_its_dense_rows(rows, cols, nonzeros):
    f = S.QQ
    by_row = {}
    for (i, j), v in nonzeros.items():
        by_row.setdefault(i, {})[j] = f.parse(v)
    m = sio.MatrixText(f, rows, cols, by_row)
    dense = [[nonzeros.get((i, j), "0") for j in range(cols)] for i in range(rows)]
    assert sio.dumps({"matrix": m, "k": [m]}) == json.dumps(
        {"matrix": dense, "k": [dense]}, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    assert m.render(str, list) == dense
    assert m.render(str, " ".join) == [" ".join(row) for row in dense]


def test_eval_over_the_dense_budget_is_a_json_error(tmp_path, capsys):
    # raw strip(4, 4) over M2+M3 is sparse (6,817 nonzeros), but printing it
    # would take a 28561 x 28561 dense matrix: refused before anything is built
    apath, cpath = str(tmp_path / "m2m3.json"), str(tmp_path / "strip44.json")
    assert main(["catalog", "algebra", "matsum", "2,3", "1,2", "-o", apath]) == 0
    assert main(["catalog", "complex", "strip", "4", "4", "-o", cpath]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    code, out = run(capsys, "eval", "--algebra", apath, "--complex", cpath, "--mode", "raw",
                    "--json")
    assert time.perf_counter() - t0 < 10
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "DenseBudgetError"
    assert "28561x28561" in err["message"]


def test_eval_refuses_an_over_budget_output_before_contracting(tmp_path, capsys, monkeypatch):
    # the output shape comes from the complex's black boundary at the requested
    # level: full strip(6, 6) over M2+M3 is the 13 x 13 identity, while raw
    # strip(6, 6) is a 13^6 x 13^6 map and is refused without contracting
    apath, cpath = str(tmp_path / "m2m3.json"), str(tmp_path / "strip66.json")
    assert main(["catalog", "algebra", "matsum", "2,3", "1,2", "-o", apath]) == 0
    assert main(["catalog", "complex", "strip", "6", "6", "-o", cpath]) == 0
    capsys.readouterr()
    code, out = run(capsys, "eval", "--algebra", apath, "--complex", cpath, "--mode", "full",
                    "--json")
    assert code == 0
    assert json.loads(out)["matrix"] == [["1" if i == j else "0" for j in range(13)]
                                         for i in range(13)]

    def contract(*args):
        raise AssertionError("the network was contracted")

    monkeypatch.setattr("statesum.evaluation.greedy_contract", contract)
    code, out = run(capsys, "eval", "--algebra", apath, "--complex", cpath, "--mode", "raw",
                    "--json")
    assert code == 1
    assert json.loads(out)["error"] == "DenseBudgetError"


def test_cli_import_closure_stays_small():
    # a cold `statesum` process pays for every module the CLI imports; these
    # (dataclasses and what it pulls in, and typing) take about 11 ms of a
    # 66 ms interpreter start, so src/ uses none of them
    src = os.path.dirname(os.path.dirname(S.__file__))
    probe = ("import sys, statesum.cli; print(' '.join(m for m in ('dataclasses', 'inspect', "
             "'ast', 'dis', 'tokenize', 'typing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
