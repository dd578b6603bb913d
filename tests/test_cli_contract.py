"""Property test of the CLI contract: for any algebra or complex document,
``main()`` returns 0, 1 or 2 and never raises, and every nonzero exit prints
a JSON object with an ``error`` key.

The documents are small (dimension at most 3, at most 8 vertices) so that
the ones that happen to be valid still evaluate quickly.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from statesum import cli  # noqa: E402
from statesum import io as sio  # noqa: E402
from statesum.cli import main  # noqa: E402
from statesum.cobordisms import annulus, open_mult, open_unit, strip, zipper  # noqa: E402

CONTRACT = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# numbers stay small, so that no document asks for a huge dimension or vertex
# count; Infinity and NaN are JSON numbers to Python's json module
odd_numbers = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.5, True])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-4, 4) | odd_numbers
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

coefficients = st.sampled_from(
    ["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "0/0", "2/-4", " 3 ", "1e3", "x", "", "nan"]
) | json_values

fields = st.sampled_from([
    {"kind": "rational"}, {"kind": "prime", "p": 2}, {"kind": "prime", "p": 3},
    {"kind": "prime", "p": 7}, {"kind": "prime", "p": 4}, {"kind": "other"},
]) | st.fixed_dictionaries({"kind": st.just("prime"), "p": json_values}) | json_values

indices = st.integers(-1, 3) | odd_numbers
mul_entries = st.lists(indices | coefficients, min_size=3, max_size=5) | json_values
frobenius_specs = (
    st.just("canonical")
    | st.fixed_dictionaries({"counit": st.lists(coefficients, max_size=4) | json_values})
    | st.fixed_dictionaries({"window": st.lists(coefficients, max_size=4) | json_values})
    | json_values
)
blocks = st.fixed_dictionaries({
    "sizes": st.lists(indices | json_values, max_size=2) | json_values,
    "windows": st.lists(indices | json_values, max_size=2) | json_values,
}) | json_values

random_algebras = st.fixed_dictionaries(
    {"field": fields, "dim": indices | json_values,
     "mul": st.lists(mul_entries, max_size=8) | json_values,
     "unit": st.lists(coefficients, max_size=4) | json_values},
    optional={"basis": st.lists(st.text(max_size=3), max_size=4) | json_values,
              "frobenius": frobenius_specs, "blocks": blocks},
)
# valid small algebra files with one key, one structure constant entry or one
# coefficient replaced, so that parsing gets past the keys before it
_Z2 = {"field": {"kind": "rational"}, "dim": 2, "basis": ["r0", "r1"],
       "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
       "unit": ["1", "0"], "frobenius": {"counit": ["1", "0"]}}
_ALGEBRAS = [
    _Z2,
    {"field": {"kind": "prime", "p": 7}, "dim": 3,
     "mul": [[i, j, (i + j) % 3, "1"] for i in range(3) for j in range(3)],
     "unit": ["1", "0", "0"], "frobenius": {"window": ["1", "0", "0"]}},
    {"field": {"kind": "rational"}, "dim": 2, "mul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
     "unit": ["1", "1"], "frobenius": {"window": ["2", "3"]},
     "blocks": {"sizes": [1, 1], "windows": [2, 3]}},
]


def _replaced(doc, where, index, value):
    doc = json.loads(json.dumps(doc))
    if where == "mul":
        doc["mul"][index % len(doc["mul"])][3] = value
    elif where == "mul_entry":
        doc["mul"][index % len(doc["mul"])] = value
    elif where == "unit":
        doc["unit"][index % len(doc["unit"])] = value
    elif where == "frobenius":
        (vector,) = doc["frobenius"].values()
        vector[index % len(vector)] = value
    else:
        doc[where] = value
    return doc


replaced_coefficients = st.builds(
    _replaced, st.sampled_from(_ALGEBRAS), st.sampled_from(["mul", "unit", "frobenius"]),
    st.integers(0, 8), coefficients)
replaced_entries = st.builds(
    _replaced, st.sampled_from(_ALGEBRAS), st.just("mul_entry"), st.integers(0, 8), mul_entries)
replaced_keys = st.builds(
    _replaced, st.sampled_from(_ALGEBRAS),
    st.sampled_from(["field", "dim", "mul", "unit", "basis", "frobenius", "blocks"]),
    st.just(0), fields | frobenius_specs | blocks | json_values)
algebra_docs = random_algebras | replaced_coefficients | replaced_entries | replaced_keys | json_values

vertices = st.integers(-1, 8) | odd_numbers
edges = st.lists(vertices, min_size=2, max_size=2) | st.lists(vertices, max_size=3) | json_values
components = st.fixed_dictionaries({
    "kind": st.sampled_from(["interval", "circle"]) | json_values,
    "edges": st.lists(edges, max_size=4) | json_values,
}) | json_values
brane_maps = st.dictionaries(st.sampled_from(["0", "1", "7", "x"]), json_values, max_size=2)
random_complexes = st.fixed_dictionaries(
    {"vertices": vertices | json_values,
     "triangles": st.lists(st.lists(vertices, min_size=2, max_size=4) | json_values, max_size=8),
     "black_in": st.lists(components, max_size=2) | json_values,
     "black_out": st.lists(components, max_size=2) | json_values},
    optional={"coloured_edges": st.lists(edges, max_size=6) | json_values,
              "brane_colours": brane_maps | json_values},
)
# valid catalog complexes with one field replaced, so parsing gets past the
# first keys and validation and evaluation see near-valid input
_CATALOG = [sio.complex_to_json(c) for c in (strip(1, 1), strip(2, 1), open_mult(),
                                             annulus(3, 3), zipper(3, 1))]
mutated_complexes = st.builds(
    lambda doc, key, value: {**doc, key: value},
    st.sampled_from(_CATALOG),
    st.sampled_from(["vertices", "triangles", "coloured_edges", "black_in", "black_out",
                     "brane_colours"]),
    json_values | brane_maps | st.lists(st.lists(vertices, min_size=2, max_size=3), max_size=4),
)
complex_docs = random_complexes | mutated_complexes | st.sampled_from(_CATALOG) | json_values

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _check_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    if code != 0:
        assert "error" in json.loads(out.getvalue())


@CONTRACT
@given(doc=algebra_docs)
def test_algebra_check_keeps_the_contract(workdir, doc):
    _check_contract(["algebra", "check", _write(workdir / "a.json", doc), "--json"])


@CONTRACT
@given(doc=algebra_docs, mode=st.sampled_from(["raw", "reduced", "full"]))
def test_eval_keeps_the_contract_on_algebra_documents(workdir, doc, mode):
    apath = _write(workdir / "a.json", doc)
    cpath = _write(workdir / "c.json", _CATALOG[0])
    _check_contract(["eval", "--algebra", apath, "--complex", cpath, "--mode", mode, "--json"])


@CONTRACT
@given(doc=complex_docs, mode=st.sampled_from(["raw", "reduced", "full"]))
def test_eval_keeps_the_contract_on_complex_documents(workdir, doc, mode):
    apath = _write(workdir / "a.json", _Z2)
    cpath = _write(workdir / "c.json", doc)
    _check_contract(["eval", "--algebra", apath, "--complex", cpath, "--mode", mode, "--json"])


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-1"], ["--moves", "-1"]])
def test_fuzz_refuses_a_vacuous_run(workdir, flags):
    # zero trials, or a walk of negative length, would check nothing
    apath = _write(workdir / "a.json", _Z2)
    cpath = _write(workdir / "c.json", _CATALOG[0])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["fuzz", "--algebra", apath, "--complex", cpath, "--json", *flags])
    assert code == 1
    assert json.loads(out.getvalue())["error"] == "InvalidInput"


@pytest.mark.parametrize("argv", [
    ["fuzz", "--complex", "c.json", "--moves", "100000000"],
    ["fuzz", "--complex", "c.json", "--moves", "1000", "--trials", "11"],
    ["surface", "--genus", "1", "--windows", "100000"],
    ["surface", "--genus", "201"],
    ["catalog", "algebra", "group", "symmetric", "6"],
    ["catalog", "algebra", "group", "cyclic", "2000"],
    ["surface", "--genus", "-1"],
    ["surface", "--genus", "1", "--windows", "-1"],
    ["catalog", "complex", "strip", "10001", "1"],
    ["catalog", "complex", "zipper", "1", "10001"],
    ["catalog", "complex", "closed_surface", "201", "0"],
    ["catalog", "complex", "closed_surface", "0", "201"],
])
def test_declared_sizes_past_the_budgets_are_refused_at_once(workdir, argv):
    # a walk, a surface, a group table or a catalog complex this large would
    # run for seconds to hours, and a negative genus or window count names no
    # surface; fuzz and surface name an algebra file that does not exist, so
    # the refusal must come before anything loads
    if argv[0] != "catalog":
        argv = [*argv, "--algebra", str(workdir / "missing.json"), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 1
    assert json.loads(out.getvalue())["error"] == "InvalidInput"


@pytest.mark.parametrize("sizes,code", [(["100"], 1), (["25", "1"], 1), (["1"] * 626, 1),
                                        (["1"] * 625, 0)],
                         ids=["M_100", "M_25 + M_1", "626 M_1", "625 M_1"])
def test_a_matrix_sum_past_its_dimension_budget_is_refused_at_once(capsys, sizes, code):
    # checking M_40 ran past 60 s, and 3,000 blocks M_1 took 7 s; the budget
    # is 625, the dimension of M_25, and a dimension is a sum of squared sizes
    ones = ",".join(["1"] * len(sizes))
    assert main(["catalog", "algebra", "matsum", ",".join(sizes), ones]) == code
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    if code:
        assert doc["error"] == "InvalidInput"
        assert doc["message"].startswith(f"matsum takes dimensions <= {cli.MATSUM_DIM_BUDGET}")
    else:
        assert doc["dim"] == cli.MATSUM_DIM_BUDGET == 625


# files that are not JSON text to Python's json module: each printed a traceback
_BAD_FILES = {
    "not UTF-8": b"\xff\xfe{}",
    "nested 100,000 deep": b"[" * 100_000 + b"]" * 100_000,
    "a 5,000-digit integer": b'{"dim": ' + b"9" * 5_000 + b"}",
}


@pytest.mark.parametrize("command", ["algebra check", "eval --complex"])
@pytest.mark.parametrize("name", list(_BAD_FILES))
def test_a_file_that_is_not_json_text_is_a_json_error(workdir, capsys, name, command):
    bad = workdir / "bad.json"
    bad.write_bytes(_BAD_FILES[name])
    if command == "algebra check":
        argv = ["algebra", "check", str(bad), "--json"]
    else:
        argv = ["eval", "--algebra", _write(workdir / "a.json", _Z2), "--complex", str(bad), "--json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"] == "FileFormatError"


# `algebra check` passed this as strongly separable, and each command that
# evaluates divided by the size 0 * 0 of a shared leg
_ZERO_DIM = {"field": {"kind": "rational"}, "dim": 0, "mul": [], "unit": [],
             "frobenius": {"counit": []}}


@pytest.mark.parametrize("argv", [
    ["algebra", "check", "A"], ["frobenius", "show", "A"], ["knowledgeable", "A"],
    ["eval", "--algebra", "A", "--complex", "C", "--mode", "raw"],
    ["eval", "--algebra", "A", "--complex", "C", "--mode", "reduced"],
    ["eval", "--algebra", "A", "--complex", "C", "--mode", "full"],
    ["surface", "--algebra", "A", "--genus", "1"],
    ["fuzz", "--algebra", "A", "--complex", "C", "--trials", "1", "--moves", "1"],
], ids=["algebra check", "frobenius show", "knowledgeable", "eval raw", "eval reduced",
        "eval full", "surface", "fuzz"])
def test_an_algebra_of_dimension_zero_is_a_file_format_error(workdir, capsys, argv):
    files = {"A": _write(workdir / "zero.json", _ZERO_DIM),
             "C": _write(workdir / "c.json", sio.complex_to_json(strip(2, 2)))}
    assert main([files.get(word, word) for word in argv] + ["--json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"] == "FileFormatError"


def test_an_algebra_file_without_a_frobenius_structure_is_not_evaluated(workdir, capsys):
    bare = {key: value for key, value in _Z2.items() if key != "frobenius"}
    argv = ["eval", "--algebra", _write(workdir / "bare.json", bare),
            "--complex", _write(workdir / "c.json", _CATALOG[0]), "--json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"error": "InvalidInput",
                               "message": "algebra file declares no frobenius structure"}


# block data that the closed form cannot use, which divides by each size and
# inverts each window: a zero window (a ZeroDivisionError traceback), a size or
# window that is zero in F_p (a ValueError traceback), and a negative size, a
# short window list and sizes whose squares miss the dimension (each compared
# the contraction with a wrong closed form)
@pytest.mark.parametrize("catalog,blocks,genus", [
    (["matsum", "1,2", "1,1"], {"sizes": [1, 2], "windows": [0, 1]}, "0"),
    (["matsum", "1,2", "1,1"], {"sizes": [0, 2], "windows": [1, 1]}, "2"),
    (["matsum", "1,2", "1,1"], {"sizes": [-1, 2], "windows": [1, 1]}, "2"),
    (["matsum", "1,2", "1,1"], {"sizes": [1, 2], "windows": [1]}, "2"),
    (["matsum", "1,2", "1,1"], {"sizes": [1, 1], "windows": [1, 1]}, "2"),
    (["matsum", "1,2", "1,1", "7"], {"sizes": [1, 2], "windows": [7, 1]}, "0"),
    (["group", "cyclic", "5", "2"], {"sizes": [2, 1], "windows": [1, 1]}, "2"),
], ids=["zero window", "zero size", "negative size", "short windows", "squares miss dim",
        "window zero mod p", "size zero mod p"])
def test_block_data_without_a_closed_form_is_a_file_format_error(workdir, capsys, catalog,
                                                                  blocks, genus):
    path = workdir / "blocks.json"
    assert main(["catalog", "algebra", *catalog, "-o", str(path)]) == 0
    doc = {**json.loads(path.read_text(encoding="utf-8")), "blocks": blocks}
    assert main(["surface", "--algebra", _write(path, doc), "--genus", genus, "--json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"] == "FileFormatError"


# the first was the empty complex, evaluated to 1; the second read as a file
# without basis names
@pytest.mark.parametrize("algebra,complex_doc,error", [
    (_Z2, {"vertices": -3, "triangles": []}, "InvalidComplexError"),
    ({**_Z2, "basis": []}, _CATALOG[0], "FileFormatError"),
], ids=["negative vertex count", "empty basis"])
def test_a_negative_vertex_count_or_an_empty_basis_is_refused(workdir, capsys, algebra,
                                                              complex_doc, error):
    argv = ["eval", "--algebra", _write(workdir / "a.json", algebra),
            "--complex", _write(workdir / "c.json", complex_doc), "--json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"] == error


# brane_colours is absent or a map from arc indices spelt as str() spells them;
# each of these was read as arc 0 or as no colours at all
@pytest.mark.parametrize("colours", [{"0": "a", "00": "b"}, {" 0": "a"}, {"+0": "a"},
                                     {"0_0": "a"}, [], 0, False, "", None], ids=json.dumps)
def test_brane_colours_that_are_not_a_map_from_arc_indices_are_refused(workdir, capsys, colours):
    doc = {**sio.complex_to_json(open_unit()), "brane_colours": colours}  # one coloured arc
    argv = ["eval", "--algebra", _write(workdir / "a.json", _Z2),
            "--complex", _write(workdir / "c.json", doc), "--json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"] == "FileFormatError"


def test_eval_refuses_a_brane_coloured_complex(workdir, capsys):
    # over M_1 + M_1 a coloured strip(1, 1) printed the uncoloured file's
    # result, and fuzz walked it uncoloured to "all_equal": true; both refuse it
    apath = str(workdir / "m1m1.json")
    assert main(["catalog", "algebra", "matsum", "1,1", "1,1", "-o", apath]) == 0
    doc = sio.complex_to_json(strip(1, 1))
    plain = _write(workdir / "plain.json", doc)
    doc["brane_colours"] = {"0": "x", "1": "y"}
    branes = _write(workdir / "branes.json", doc)
    for command in ("eval", "fuzz"):
        assert main([command, "--algebra", apath, "--complex", plain, "--json"]) == 0
        capsys.readouterr()
        assert main([command, "--algebra", apath, "--complex", branes, "--json"]) == 1, command
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["error"] == "InvalidInput"


def test_an_exact_result_past_the_digit_cap_is_printed_in_full(workdir, capsys):
    # over M_1 with window a the genus-4 surface with two windows is a^8, here
    # 4,800 digits: more than CPython converts to text unless the cap is lifted
    window = "7" * 600
    apath = str(workdir / "big_window.json")
    cap = sys.get_int_max_str_digits()
    assert main(["catalog", "algebra", "matsum", "1", window, "-o", apath]) == 0
    assert main(["surface", "--algebra", apath, "--genus", "4", "--windows", "2", "--json"]) == 0
    assert sys.get_int_max_str_digits() == cap  # parsing keeps the cap
    out, err = capsys.readouterr()
    try:
        sys.set_int_max_str_digits(0)
        want = str(int(window) ** 8)
    finally:
        sys.set_int_max_str_digits(cap)
    doc = json.loads(out)
    assert err == "" and doc["match"]
    assert doc["contracted"] == doc["genus_window_operator"] == doc["closed_form"] == want


_SEVENS = "7" * 5_000  # past CPython's 4,300-digit cap on parsing an int
_UNDER_CAP = "7" * 4_000  # an integer, but far past every budget


_LONG = "x" * 5_000  # a word that a message should name, not echo


@pytest.mark.parametrize("argv,error,named", [
    (["catalog", "algebra", "matsum", "1", _SEVENS], "InvalidInput",
     "an entry of WINDOWS has 5000 digits"),
    (["catalog", "complex", "strip", "1", _SEVENS], "InvalidInput", "parameter 2 has 5000 digits"),
    (["surface", "--genus", _SEVENS], "InvalidInput", "--genus has 5000 digits"),
    (["surface", "--genus", _LONG], "InvalidInput", "--genus must be an integer"),
    (["catalog", "algebra", "matsum", "1", "1", _SEVENS], "InvalidInput",
     "FIELD has 5000 digits"),
    (["catalog", "algebra", "matsum", "1", "1", _UNDER_CAP], "InvalidInput",
     "FIELD must be a prime below"),
    (["catalog", "algebra", "group", "cyclic", "-" + _UNDER_CAP], "InvalidInput",
     "group needs N >= 1"),
    (["catalog", "complex", "strip", "1", _UNDER_CAP], "InvalidInput", "takes parameters <="),
    (["surface", "--genus", _UNDER_CAP], "InvalidInput", "surface takes --genus <= 200"),
    (["fuzz", "--complex", "c.json", "--moves", _UNDER_CAP], "InvalidInput",
     "fuzz takes --moves <= 1000"),
    (["eval", "--complex", "c.json", "--mode", _LONG], "InvalidInput", "--mode takes one of"),
    ([_LONG], "InvalidInput", "expected a command"),
    (["eval", "--" + _LONG], "InvalidInput", "has no option"),
    (["catalog", "algebra", "matsum", "1", "1", _LONG], "UnknownCatalogError",
     "unknown field spec"),
    (["catalog", "complex", _LONG, "1"], "UnknownCatalogError", "unknown builtin complex"),
    (["catalog", "algebra", _LONG, "1", "1"], "UnknownCatalogError", "unknown catalog algebra"),
    (["catalog", "algebra", "group", _LONG, "3"], "UnknownCatalogError", "unknown group kind"),
    (["catalog", _LONG, "a"], "UnknownCatalogError", "unknown catalog kind"),
    (["algebra", "check", "a", _LONG], "InvalidInput", "got the arguments"),
], ids=["matsum window", "strip parameter", "genus", "non-integer genus", "field modulus",
        "4,000-digit field modulus", "group order", "4,000-digit strip parameter",
        "4,000-digit genus", "4,000-digit moves", "mode", "command", "option", "field spec",
        "builtin complex", "catalog algebra", "group kind", "catalog kind", "arguments"])
def test_an_oversized_parameter_is_named_in_a_short_message(workdir, capsys, argv, error, named):
    # each message echoed the whole parameter, and an integer past the cap was
    # called not an integer
    if argv[0] in ("eval", "surface", "fuzz"):
        argv = [*argv, "--algebra", str(workdir / "missing.json"), "--json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["error"] == error
    assert named in doc["message"] and len(doc["message"]) < 200


def test_the_torus_of_q_s4_under_an_address_space_limit_is_a_json_error(workdir):
    # the torus over Q[S_4] builds a 6-leg intermediate of 7,962,624 nonzeros;
    # a child limited to 300 MB of address space runs out of memory on it
    # and must still print the JSON error, not a traceback
    pytest.importorskip("resource")
    s4 = str(workdir / "s4.json")
    assert main(["catalog", "algebra", "group", "symmetric", "4", "-o", s4]) == 0
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS,\n"
             "                   (300 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
             "from statesum.cli import main\n"
             f"sys.exit(main(['surface', '--algebra', {s4!r}, '--genus', '1', '--oracle', "
             "'--json']))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == ""
    assert json.loads(done.stdout) == {"error": "MemoryError", "message": "out of memory"}


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["algebra"],
    ["eval", "--algebra", "a.json"],
    ["surface", "--algebra", "a.json", "--genus", "x"],
    ["eval", "--algebra", "a.json", "--complex", "c.json", "--mode", "bogus"],
    ["eval", "--algebra", "a.json", "--complex", "c.json", "--bogus"],
    ["eval", "--algebra", "a.json", "--complex"],
    ["algebra", "check", "a.json", "b.json"],
    ["eval", "--alg", "a.json", "--complex", "c.json"],
    ["knowledgeable", "a.json", "--json=yes"],
], ids=lambda argv: " ".join(argv) or "nothing")
def test_a_malformed_command_line_is_a_json_error(capsys, argv):
    # each of these printed usage on stderr and exited 2, the code of a
    # failed mathematical precondition; prefixes such as --alg are refused
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"] == "InvalidInput"


@pytest.mark.parametrize("argv", [
    ["catalog", "complex", "annulus", "0", "1"],
    ["catalog", "complex", "zipper", "0", "0"],
    ["catalog", "complex", "strip", "1"],
    ["catalog", "complex", "open_mult", "1"],
], ids=" ".join)
def test_a_catalog_complex_with_bad_sizes_is_unknown(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["error"] == "UnknownCatalogError"


@pytest.mark.parametrize("argv,named", [
    (["catalog", "algebra", "matsum", "1", "1", "foo"], "unknown field spec 'foo'"),
    (["catalog", "widget", "x"], "unknown catalog kind 'widget'"),
], ids=["field spec", "catalog kind"])
def test_an_unknown_field_spec_or_catalog_kind_is_refused(capsys, argv, named):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["error"] == "UnknownCatalogError" and named in doc["message"]


# a command line that parses for each command; the handler never runs
_ARGV = {
    ("algebra", "check"): ["a.json"],
    ("frobenius", "show"): ["a.json"],
    ("knowledgeable",): ["a.json"],
    ("eval",): ["--algebra", "a.json", "--complex", "c.json"],
    ("surface",): ["--algebra", "a.json", "--genus", "1"],
    ("fuzz",): ["--algebra", "a.json", "--complex", "c.json"],
    ("catalog",): ["complex", "strip", "1", "1"],
}


@pytest.mark.parametrize("words", list(cli.COMMANDS), ids=" ".join)
def test_a_command_out_of_memory_is_a_json_error(capsys, monkeypatch, words):
    # the Q[S_4] torus under a 2 GB ulimit -v printed a MemoryError traceback
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, words, (exhausted, *cli.COMMANDS[words][1:]))
    assert main([*words, *_ARGV[words]]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"error": "MemoryError", "message": "out of memory"}
