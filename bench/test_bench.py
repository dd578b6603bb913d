"""Checks of the benchmark's own oracles and tracer, including negative controls."""

import json

import pytest

import fuzz_child
import oracles
import statesum as S
from statesum.cli import main as cli_main
from statesum.linalg import Matrix
from statesum.morphism import Morphism
from speed import SpeedTracker
from tracer import Tracer


@pytest.fixture
def z2_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["catalog", "algebra", "group", "cyclic", "2", "-o", "z2.json"]) == 0
    assert cli_main(["catalog", "complex", "strip", "1", "2", "-o", "strip_1_2.json"]) == 0
    return tmp_path


def _eval_output(capsys, mode):
    capsys.readouterr()
    rc = cli_main(["eval", "--algebra", "z2.json", "--complex", "strip_1_2.json",
                   "--mode", mode, "--json"])
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("mode", ["full", "raw"])
def test_eval_oracle_accepts_output_and_rejects_tampering(z2_files, capsys, mode):
    rc, out = _eval_output(capsys, mode)
    (z2_files / "op.out").write_text(out)
    check = {"out": "op.out", "rc": rc, "expect": ["eval", "z2.json", mode, "strip", 1, 2]}
    assert oracles.check_outputs([check]) == [True]

    F = S.group_algebra(S.QQ, S.GroupTable.cyclic(2))[1]
    tampered = oracles.expected_eval_rows(F, mode, "strip", 1, 2)
    tampered[0][0] = "7/3"
    assert not oracles.eval_ok(json.loads(out), tampered)

    doc = json.loads(out)
    doc["matrix"][0][0] = "7/3"
    (z2_files / "op.out").write_text(json.dumps(doc))
    assert oracles.check_outputs([check, dict(check, rc=1)]) == [False, False]


def test_surface_oracle_needs_match_and_closed_form():
    doc = {"genus": 2, "windows": 1, "contracted": "5", "genus_window_operator": "5",
           "closed_form": "5", "match": True}
    assert oracles.surface_ok(doc, 2, 1)
    assert not oracles.surface_ok(dict(doc, match=False), 2, 1)
    assert not oracles.surface_ok(dict(doc, closed_form=None), 2, 1)
    assert not oracles.surface_ok(doc, 3, 1)


def test_fuzz_pass_counts_a_tampered_base_value_as_failed():
    F = S.group_algebra(S.QQ, S.GroupTable.cyclic(2))[1]
    c = S.strip(1, 1)
    base = S.state_sum_raw(F, c)
    m = base.matrix.copy()
    m.data[0][0] += 1
    tampered = Morphism(base.field, base.domain, base.codomain, m)
    seed = fuzz_child.move_seed(0, 0)
    ops = [("Z2", F, "strip", c)]
    good = fuzz_child.fuzz_pass(S, ops, {("Z2", "strip"): base}, seed, SpeedTracker())
    bad = fuzz_child.fuzz_pass(S, ops, {("Z2", "strip"): tampered}, seed, SpeedTracker())
    assert [r["ok"] for r in good] == [True]
    assert [r["ok"] for r in bad] == [False]


def _traced_run():
    F = S.matrix_direct_sum(S.QQ, [1, 2], [1, 1])[1]  # fresh caches every time
    tracer = Tracer()
    tracer.install()
    try:
        value = S.state_sum(F, S.strip(2, 2)).matrix
        scalar = S.evaluate_closed(F, S.closed_surface(1, 0))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    del summary["self_s"]
    return value, scalar, summary


def test_tracer_counts_repeat_and_leave_results_unchanged():
    contract_pair = S.tensors.contract_pair
    first = _traced_run()
    second = _traced_run()
    assert first[2] == second[2]
    assert first[2]["counts"]["mul_adds"] > 0
    assert first[2]["calls"]["frobenius.boundary"] > 0
    assert first[0] == Matrix.identity(S.QQ, 5)
    F = S.matrix_direct_sum(S.QQ, [1, 2], [1, 1])[1]
    assert first[1] == S.evaluate_closed(F, S.closed_surface(1, 0))
    assert S.tensors.contract_pair is contract_pair
    assert S.evaluation.greedy_contract is S.tensors.greedy_contract
