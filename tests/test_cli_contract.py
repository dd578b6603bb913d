"""Property test of the CLI contract: for any algebra or complex document,
``main()`` returns 0, 1 or 2 and never raises, and every nonzero exit prints
a JSON object with an ``error`` key.

The documents are small (dimension at most 3, at most 8 vertices) so that
the ones that happen to be valid still evaluate quickly.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from statesum import io as sio  # noqa: E402
from statesum.cli import main  # noqa: E402
from statesum.cobordisms import annulus, open_mult, strip, zipper  # noqa: E402

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
])
def test_declared_sizes_past_the_budgets_are_refused_at_once(workdir, argv):
    # a walk, a surface or a group table this large would run for minutes to
    # hours, and a negative genus or window count names no surface; fuzz and
    # surface name an algebra file that does not exist, so the refusal must
    # come before anything loads
    if argv[0] != "catalog":
        argv = [*argv, "--algebra", str(workdir / "missing.json"), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 1
    assert json.loads(out.getvalue())["error"] == "InvalidInput"


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
