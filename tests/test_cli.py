import importlib.util
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import statesum as S
from statesum import io as sio
from statesum import cli
from statesum.cli import COMMANDS, main, parse_args
from statesum.errors import InvalidComplexError, InvalidInput

from conftest import comul


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


@pytest.fixture()
def z3_file(tmp_path, capsys):
    path = str(tmp_path / "z3.json")
    code = main(["catalog", "algebra", "group", "cyclic", "3", "-o", path])
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


def test_catalog_without_output_prints_the_file(tmp_path, capsys):
    path = str(tmp_path / "c.json")
    assert main(["catalog", "complex", "zipper", "-o", path]) == 0
    code, out = run(capsys, "catalog", "complex", "zipper")
    assert code == 0
    with open(path) as fh:
        assert out == fh.read()


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


def test_surface_oracle_on_a_group_algebra_has_no_closed_form(z3_file, capsys):
    # the closed form covers block sums of matrix algebras, and a group
    # algebra file carries no blocks; the genus-window operator still checks
    code, out = run(capsys, "surface", "--algebra", z3_file, "--genus", "1", "--oracle", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"] is None and doc["match"] is True
    assert doc["contracted"] == doc["genus_window_operator"] == "3"


def test_a_canonical_frobenius_file_loads_the_canonical_structure(z3_file, tmp_path):
    with open(z3_file) as fh:
        doc = sio.loads(fh.read())
    delta = sio.algebra_from_json(doc)[1]
    doc["frobenius"] = "canonical"
    alg, F, _ = cli._load_algebra(write(tmp_path, "canonical.json", json.dumps(doc)))
    want = S.canonical_frobenius(alg)
    assert F.counit == want.counit != delta.counit
    for name in ("pairing", "pairing_inverse"):
        assert getattr(F, name) == getattr(want, name), name
    assert comul(F) == comul(want)


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
    (_z2_doc(field={"kind": "real"}), _TRIANGLE),
    (_z2_doc(frobenius="delta"), _TRIANGLE),
    (_z2_doc(), dict(sio.complex_to_json(S.strip(1, 1)), brane_colours={"2": 0})),
], ids=["index", "unit", "counit", "window", "basis", "negative_dim", "two_vertex_triangle",
        "zero_denominator", "number_coefficients", "infinite_dim", "brane_not_object",
        "brane_list_colour", "fractional_dim", "fractional_prime", "float_indices",
        "boolean_indices", "basis_object", "basis_numbers", "fractional_block_size",
        "float_vertex_count", "float_triangle_vertex", "boolean_edge_vertex", "huge_dim",
        "unknown_field_kind", "unknown_frobenius_spec", "brane_colour_on_missing_arc"])
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
    pieces = []  # the same text, written piece by piece
    assert sio.dumps(doc, pieces.append) is None
    assert "".join(pieces) == sio.dumps(doc)


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
    pieces = []
    sio.dumps({"matrix": m, "k": [m]}, pieces.append)
    assert "".join(pieces) == sio.dumps({"matrix": m, "k": [m]})
    assert list(m.render(str, list)) == dense
    assert list(m.render(str, " ".join)) == [" ".join(row) for row in dense]


def test_no_written_piece_is_longer_than_a_row():
    # a 40 x 300 matrix four levels deep: each piece is at most one rendered
    # row plus the separator before it
    rows, cols = 40, 300
    m = sio.MatrixText(S.QQ, rows, cols, {3: {7: S.QQ.parse("-123/457")}, 39: {299: S.QQ.one()}})
    dense = [["0"] * cols for _ in range(rows)]
    dense[3][7], dense[39][299] = "-123/457", "1"
    doc = {"outer": [{"m": m}]}
    depth = 4  # doc, "outer", its dict, "m": the rows of m sit 4 levels deep
    row_text = max(len(json.dumps(row, indent=1).replace("\n", "\n" + " " * depth))
                   for row in dense)
    pieces = []
    sio.dumps(doc, pieces.append)
    assert "".join(pieces) == json.dumps({"outer": [{"m": dense}]}, sort_keys=True,
                                         separators=(",", ": "), indent=1) + "\n"
    assert max(map(len, pieces)) <= row_text + len(",\n" + " " * depth)
    assert len(pieces) > rows


class _CountingStdout:
    """A standard output that keeps only the number of characters written and
    the longest single write."""

    def __init__(self):
        self.chars = 0
        self.longest = 0

    def write(self, text):
        self.chars += len(text)
        self.longest = max(self.longest, len(text))
        return len(text)

    def flush(self):
        pass


def test_eval_output_memory_does_not_grow_with_its_size(tmp_path, capsys, monkeypatch):
    # raw strip(5, 5) over M1+M2 is a 3125 x 3125 matrix with 257 nonzeros:
    # 78,153,525 bytes of JSON, written one row (about 25 KB) at a time.  As
    # one string and its copies it peaked at 151.5 MB of traced memory.
    apath, cpath = str(tmp_path / "m1m2.json"), str(tmp_path / "strip55.json")
    assert main(["catalog", "algebra", "matsum", "1,2", "1,1", "-o", apath]) == 0
    assert main(["catalog", "complex", "strip", "5", "5", "-o", cpath]) == 0
    capsys.readouterr()
    sink = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["eval", "--algebra", apath, "--complex", cpath, "--mode", "raw", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars == 78_153_525
    assert peak < 8_000_000
    assert sink.longest < 64_000


class _ClosedStdout:
    """A standard output whose reader goes away after ``limit`` characters;
    its file descriptor is a file under the test's directory."""

    def __init__(self, limit, fd):
        self.limit, self.fd, self.text = limit, fd, ""

    def write(self, text):
        if len(self.text) + len(text) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        self.text += text
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.fixture()
def raw_strip44_argv(tmp_path, capsys):
    """``eval`` of raw strip(4, 4) over M1+M2, 3.1 MB of JSON."""
    apath, cpath = str(tmp_path / "m1m2.json"), str(tmp_path / "strip44.json")
    assert main(["catalog", "algebra", "matsum", "1,2", "1,1", "-o", apath]) == 0
    assert main(["catalog", "complex", "strip", "4", "4", "-o", cpath]) == 0
    capsys.readouterr()
    return ["eval", "--algebra", apath, "--complex", cpath, "--mode", "raw"]


@pytest.mark.parametrize("mode_args,limit", [(["--json"], 1000), ([], 1000), (["--json"], 0)],
                         ids=["json", "human", "nothing_read"])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(raw_strip44_argv, tmp_path, capsys,
                                                       monkeypatch, mode_args, limit):
    argv = raw_strip44_argv + mode_args
    assert main(argv) == 0
    full = capsys.readouterr().out
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        stdout = _ClosedStdout(limit, fd)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 1
    finally:
        os.close(fd)
    assert len(stdout.text) <= limit and full.startswith(stdout.text)
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_exits_1_with_nothing_on_stderr(raw_strip44_argv):
    # the process's own stdout: the reader stops after 64 bytes, as
    # `statesum eval ... | head -c 64` does
    src = os.path.dirname(os.path.dirname(S.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "statesum.cli", *raw_strip44_argv, "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    head = proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert head.startswith(b'{\n "codomain": [') and err == b""


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
    # 66 ms interpreter start, so src/ uses none of them.  argparse, with the
    # gettext and locale its parsers load, cost about 9 ms more; the command
    # line is read from the command table instead.
    src = os.path.dirname(os.path.dirname(S.__file__))
    probe = ("import os, sys, statesum.cli; "
             "statesum.cli.main(['catalog', 'complex', 'strip', '1', '1', '-o', os.devnull]); "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
             "'typing', 'argparse', 'gettext', 'locale') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


# -- the command line grammar -------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _reference_parser():
    """The argparse grammar that ``COMMANDS`` replaced: the reference that
    every command line it accepts must be read the same by ``parse_args``."""
    import argparse

    ap = argparse.ArgumentParser(prog="statesum")
    sub = ap.add_subparsers(dest="command", required=True)
    for group, word, fn in (("algebra", "check", cli.cmd_algebra_check),
                            ("frobenius", "show", cli.cmd_frobenius_show)):
        p = sub.add_parser(group).add_subparsers(dest="subcommand", required=True).add_parser(word)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
    pk = sub.add_parser("knowledgeable")
    pk.add_argument("file")
    pk.add_argument("--json", action="store_true")
    pk.set_defaults(fn=cli.cmd_knowledgeable)
    pe = sub.add_parser("eval")
    pe.add_argument("--algebra", required=True)
    pe.add_argument("--complex", required=True)
    pe.add_argument("--mode", choices=("raw", "reduced", "full"), default="full")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(fn=cli.cmd_eval)
    ps = sub.add_parser("surface")
    ps.add_argument("--algebra", required=True)
    ps.add_argument("--genus", type=int, required=True)
    ps.add_argument("--windows", type=int, default=0)
    ps.add_argument("--oracle", action="store_true")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(fn=cli.cmd_surface)
    pz = sub.add_parser("fuzz")
    pz.add_argument("--algebra", required=True)
    pz.add_argument("--complex", required=True)
    pz.add_argument("--moves", type=int, default=30)
    pz.add_argument("--trials", type=int, default=20)
    pz.add_argument("--seed", type=int, default=0)
    pz.add_argument("--json", action="store_true")
    pz.set_defaults(fn=cli.cmd_fuzz)
    pcat = sub.add_parser("catalog")
    pcat.add_argument("kind", choices=("algebra", "complex"))
    pcat.add_argument("name")
    pcat.add_argument("params", nargs="*")
    pcat.add_argument("-o", "--output")
    pcat.set_defaults(fn=cli.cmd_catalog)
    return ap


def _shell_command_lines(text):
    """The ``statesum`` arguments of each shell line of ``text`` that runs
    it, with a leading ``timeout N`` and any redirection or pipe cut off."""
    lines = []
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["timeout"]:
            words = words[2:]
        if words[:1] != ["statesum"]:
            continue
        argv = []
        for word in shlex.split(line[line.index("statesum"):])[1:]:
            if word[0] in ">|" or word.startswith("2>"):
                break
            argv.append(word)
        lines.append(argv)
    return lines


def _bench_command_lines(monkeypatch):
    """The argv of every benchmark operation and of every set-up ``catalog``."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run_py = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run_py)
    spec.loader.exec_module(run_py)
    ops = [list(op.argv) for w in run_py.WORKLOADS.values() for op in w.ops]
    files = {f for w in run_py.WORKLOADS.values() for op in w.ops for f in op.inputs}
    setup = [["catalog", *(run_py.ALGEBRAS.get(f) or ["complex", *f[:-5].split("_")]), "-o", f]
             for f in sorted(files)]
    return ops + setup


# spellings the documented lines do not use
_OTHER_LINES = [
    ["eval", "--algebra=a.json", "--complex=c.json", "--mode=raw", "--json"],
    ["eval", "--json", "--mode", "reduced", "--complex", "c.json", "--algebra", "a.json"],
    ["eval", "--algebra", "a.json", "--complex", "c.json", "--mode", "raw", "--mode", "full"],
    ["surface", "--genus", "-1", "--algebra", "a.json"],
    ["surface", "--genus=-1", "--windows=-2", "--algebra=a.json", "--oracle"],
    ["fuzz", "--seed", "3", "--algebra", "a.json", "--complex", "c.json", "--seed", "4",
     "--trials=2", "--moves", "0"],
    ["algebra", "check", "--json", "a.json"],
    ["frobenius", "show", "--json", "a.json"],
    ["knowledgeable", "--json", "a.json"],
    ["catalog", "-o", "out.json", "complex", "strip", "1", "1"],
    ["catalog", "--output=out.json", "algebra", "matsum", "2,3", "1,1"],
    ["catalog", "-o=out.json", "complex", "annulus"],
    ["catalog", "complex", "strip", "-1", "1"],
    ["catalog", "algebra", "-o", "out.json", "group", "cyclic", "3"],
]


def test_the_table_reads_every_command_line_as_argparse_did(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    documented = _shell_command_lines(block)
    ci = _shell_command_lines(workflow)
    assert len(documented) == 8 and len(ci) >= 30
    reference = _reference_parser()
    lines = documented + ci + _bench_command_lines(monkeypatch) + _OTHER_LINES
    compared = 0
    for argv in lines:
        try:
            expect = vars(reference.parse_args(argv))
        except SystemExit as exit:  # CI's help line, and its malformed line
            if exit.code == 0:
                assert parse_args(argv).fn is cli._print_usage
            else:
                with pytest.raises(InvalidInput):
                    parse_args(argv)
            continue
        # the sub-parsers' own records of the words, which no handler reads
        expect.pop("command")
        expect.pop("subcommand", None)
        assert vars(parse_args(argv)) == expect, argv
        compared += 1
    assert compared >= 60


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"], ["catalog", "-h"],
                                  ["surface", "--genus", "2", "-h"]])
def test_help_prints_the_table(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    words = tuple(w for w in argv if not w.startswith("-"))[:1]
    names = list(COMMANDS[words][3]) if words else [" ".join(w) for w in COMMANDS]
    assert names and all(name in out for name in names)
    if words == ("catalog",):
        assert "-o|--output" in out
