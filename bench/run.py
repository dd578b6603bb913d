"""Benchmark of statesum: cold CLI evaluations, closed surfaces, and the Pachner fuzz slice.

    python3 bench/run.py --workload boundary-cold --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it builds nothing and needs only the
standard library and ``src/statesum``.  Every workload is a closed loop with
one client: an operation starts when the previous one has ended, and at most
one child process runs at a time.  A run makes whole passes over the
workload's operations, at least two, and starts another only while it would
end within ``--seconds``, so every run of a workload times the same
operations.  Every output is checked against an oracle (see ``oracles.py``)
outside the timed region.

``--trace 0`` reports the end-to-end metrics.  Every time is reported at
reference speed (see ``speed.py``): fixed reference work runs between the
operations (a child process between CLI operations), and each time is scaled
by the reference's nominal over its measured time, which removes the drift
of a shared machine between runs.  The detail
line carries the same metrics as measured.  Each operation's time is the
median over the run's passes.

- ``setup_s``: median over five set-ups of a fresh process that imports
  ``statesum`` and generates the workload's inputs;
- ``wall_s``: one pass over the workload's operations, the sum of their times;
- ``peak_rss_mb``: largest peak RSS of a process that ran operations, read
  from ``os.wait4``.  This process stays small, because a child's peak RSS
  includes the parent's until the child execs.

The detail line adds ``failed_frac`` and the median and 90th percentile of
the operation times, ``op_p50_s`` and ``op_p90_s``, with the number of
operations beyond p90.  They are not bounded metrics: a CLI workload has
seven or eight operations, so its median and p90 are the times of single
operations and move with them, and only ``fuzz-moves`` (78 operations) comes
near ten operations beyond p90.

``--trace 1`` makes one untraced and one traced pass and reports per-layer
self times and exact counts from the spans ``tracer.py`` records, the
tracing overhead (traced over untraced pass time) and the pass time no layer
span covers.  Nothing waits on a queue or a lock (one single-threaded
operation is in flight at a time), so waiting time is reported as zero.

Standard output ends with a detail line (seeds, failed_frac, latency, the
metrics as measured, processor count, Python version, load average at start
and end) and then one JSON line with ``correct``, ``attempted``, ``failed``
and the metrics, each with its unit.

Left out, with the measured reason:

- ``eval --mode reduced``: it has no fixed oracle, because splitting the
  boundary projectors in closed form (ROADMAP item 2) changes its output
  coordinates.
- raw dim-5 ``strip(5,5)``: 9 s and 1.5 GB peak RSS per CLI process, nearly
  all of it the dense output matrix and its JSON (ROADMAP item 5).  Raw
  ``strip(4,4)`` stays in ``boundary-cold`` so that cost still shows.
- the 5-7 s full evaluations (dim-5 ``strip(5,5)`` and ``annulus(5,5)``,
  dim-13 ``strip(3,3)``, ``annulus(3,3)`` and ``zipper(3,1)``): each times
  the same dense splitting as the cheaper ones kept here, but a pass with
  them took 30 s, so a run could not repeat it and its total spread by 20%
  from run to run.  Dim-6 ``strip(4,4)`` and ``annulus(4,4)`` (about 1 s)
  keep a heavier splitting in every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import CHILD_NOMINAL_S, SpeedTracker, at_reference_speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 5
MIN_PASSES = 2

ALGEBRAS = {  # input file -> `statesum catalog` arguments
    "m1m2.json": ["algebra", "matsum", "1,2", "1,1"],             # M1+M2, dim 5, over Q
    "m1m1m2.json": ["algebra", "matsum", "1,1,2", "1,1,1"],       # M1+M1+M2, dim 6, over Q
    "m2m3.json": ["algebra", "matsum", "2,3", "1,2"],             # M2+M3, dim 13, over Q
    "m2m3_p.json": ["algebra", "matsum", "2,3", "1,2", "10007"],  # the same over F_10007
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple   # statesum arguments
    inputs: tuple  # input files under WORK
    expect: tuple  # oracle key: ("eval", algebra, mode, shape, k, l) or ("surface", g, w)


def eval_op(algebra, mode, shape, k, l):
    cx = f"{shape}_{k}_{l}.json"
    return Op(f"eval {mode} {algebra[:-5]} {shape}({k},{l})",
              ("eval", "--algebra", algebra, "--complex", cx, "--mode", mode, "--json"),
              (algebra, cx), ("eval", algebra, mode, shape, k, l))


def surface_op(algebra, genus, windows):
    return Op(f"surface {algebra[:-5]} g{genus} w{windows}",
              ("surface", "--algebra", algebra, "--genus", str(genus),
               "--windows", str(windows), "--oracle", "--json"),
              (algebra,), ("surface", genus, windows))


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple  # CLI operations; empty for the in-library fuzz workload


SURFACES = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0)]

WORKLOADS = {w.name: w for w in (
    # ROADMAP item 2: the full evaluations spend most of a cold process building
    # dense boundary splittings; the raw ones bypass them and should not move.
    Workload("boundary-cold", (
        eval_op("m1m2.json", "full", "strip", 4, 4),
        eval_op("m1m2.json", "full", "annulus", 4, 4),
        eval_op("m1m2.json", "full", "zipper", 3, 2),
        eval_op("m1m1m2.json", "full", "strip", 4, 4),
        eval_op("m1m1m2.json", "full", "annulus", 4, 4),
        eval_op("m2m3.json", "full", "strip", 2, 2),
        eval_op("m1m2.json", "raw", "strip", 4, 4),
        eval_op("m2m3.json", "raw", "strip", 2, 2),
    )),
    # ROADMAP item 3: no boundary legs, exact Fraction contraction dominates.
    Workload("surface-q", tuple(surface_op("m2m3.json", g, w) for g, w in SURFACES)),
    # Control for item 3: the same surfaces over F_p should not move; their
    # short operations expose CLI start-up, import and Frobenius derivation.
    Workload("surface-fp", tuple(surface_op("m2m3_p.json", g, w) for g, w in SURFACES)),
    # ROADMAP item 4 (and Tier-1 wall time): test 05's slice in one warm
    # process; every moved complex recurs under the two dimension-3 algebras.
    Workload("fuzz-moves", ()),
)}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("linalg.kron", "linalg.matmul", "frobenius.split", "frobenius.boundary",
          "tensors.contract", "tensors.plan", "complexes.moves", "complexes.validate",
          "evaluation.network", "evaluation.levels", "cobordisms.build", "algebra.build",
          "frobenius.derive", "frobenius.knowledgeable", "catalog.oracle", "io.load",
          "tensors.apply_matrix", "tensors.to_matrix", "io.dumps", "cli")


def child_env():
    # a fixed hash seed keeps set iteration, and so the traced counts,
    # repeatable; compiled modules are cached, as for an installed package
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, stdout_path):
    """Run one child process to completion; returns (seconds, exit code, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(WORK / "stderr.log", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=WORK, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def child_speed():
    """A tracker whose reference is a child process, like the operations it scales."""
    argv = [sys.executable, str(BENCH / "speed.py")]
    return SpeedTracker(lambda: run_child(argv, WORK / "reference.out")[0], CHILD_NOMINAL_S)


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def another_pass(done, elapsed, seconds):
    return done < MIN_PASSES or elapsed * (done + 1) / done <= seconds


# -- CLI workloads ------------------------------------------------------------------


def setup_runs(argv, speed):
    """Run a set-up process SETUP_REPEATS times; returns its records."""
    records = []
    for _ in range(SETUP_REPEATS):
        speed.before_op()
        seconds, rc, _ = run_child(argv, WORK / "setup.out")
        if rc != 0:
            raise RuntimeError(f"set-up {argv[1:2]} failed with exit code {rc}")
        records.append({"op": "setup", "s": seconds})
        speed.after_op(records[-1])
    return records


def check_outputs(checks):
    """Verdicts from the oracle process (see ``oracles.py``), off the clock."""
    (WORK / "checks.json").write_text(json.dumps(checks))
    argv = [sys.executable, str(BENCH / "oracles.py"), "checks.json"]
    _, rc, _ = run_child(argv, WORK / "checks.out")
    if rc != 0:
        raise RuntimeError(f"oracle process failed with exit code {rc}")
    return json.loads((WORK / "checks.out").read_text())


def cli_pass(ops, traced, speed, checks, tag):
    """Run each operation once, adding its output to ``checks``; returns
    (records, trace summaries)."""
    records, traces = [], []
    trace_path = WORK / "op.trace.json"
    for i, op in enumerate(ops):
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path), *op.argv]
        else:
            argv = [sys.executable, "-m", "statesum.cli", *op.argv]
        out = f"op{tag}_{i}.out"
        speed.before_op()
        seconds, rc, rss = run_child(argv, WORK / out)
        records.append({"op": op.label, "s": seconds, "rss_mb": rss})
        speed.after_op(records[-1])
        checks.append({"out": out, "rc": rc, "expect": op.expect})
        if traced:
            traces.append(json.loads(trace_path.read_text()))
            trace_path.unlink()
    return records, traces


def run_cli_workload(workload, seed, seconds, trace):
    files = sorted({f for op in workload.ops for f in op.inputs})
    specs = [[f, ALGEBRAS[f] if f in ALGEBRAS else ["complex", *f[:-5].split("_")]]
             for f in files]
    speed = child_speed()
    result = {"setup": setup_runs([sys.executable, str(BENCH / "make_inputs.py"), str(WORK),
                                   json.dumps(specs)], speed),
              "passes": [], "traces": []}
    ops = list(workload.ops)
    random.Random(seed).shuffle(ops)
    checks = []
    t0 = time.perf_counter()
    while True:
        tag = len(result["passes"])
        result["passes"].append(cli_pass(ops, False, speed, checks, tag)[0])
        if trace or not another_pass(len(result["passes"]), time.perf_counter() - t0, seconds):
            break
    if trace:
        result["traced_pass"], result["traces"] = cli_pass(ops, True, speed, checks, "t")
    speed.finish()
    records = [r for p in result["passes"] for r in p] + result.get("traced_pass", [])
    for record, ok in zip(records, check_outputs(checks)):
        record["ok"] = ok
    return result


# -- fuzz workload ------------------------------------------------------------------


def run_fuzz_workload(seed, moves_seed, seconds, trace):
    child = [sys.executable, str(BENCH / "fuzz_child.py")]
    speed = child_speed()
    setup = setup_runs(child + ["--setup-only"], speed)
    speed.finish()
    out = WORK / "fuzz.out"
    argv = child + ["--seed", str(seed), "--moves-seed", str(moves_seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
    _, rc, rss = run_child(argv, out)
    lines = out.read_text().splitlines()
    if rc != 0 or not lines:
        raise RuntimeError(f"fuzz child failed with exit code {rc}")
    rec = json.loads(lines[-1])
    for r in [r for p in rec["passes"] for r in p] + rec.get("traced_pass", []):
        r["rss_mb"] = rss  # one process ran them all
    result = {"setup": setup, "passes": rec["passes"], "move_seeds": rec["move_seeds"]}
    if trace:
        result["traced_pass"] = rec["traced_pass"]
        result["traces"] = [rec["trace"]]
        result["import_s"] = rec["import_s"]
    return result


# -- metrics ------------------------------------------------------------------------


def per_op(passes, at):
    """Median of each operation's times over the run's repeats, in first-run order."""
    times = {}
    for p in passes:
        for r in p:
            times.setdefault(r["op"], []).append(at(r))
    return [statistics.median(v) for v in times.values()]


def end_to_end(result, at=at_reference_speed):
    ops = per_op(result["passes"], at)
    return {
        "setup_s": statistics.median(map(at, result["setup"])),
        "wall_s": sum(ops),
        "peak_rss_mb": max(r["rss_mb"] for p in result["passes"] for r in p),
    }


def latency(result, at=at_reference_speed):
    """Median and p90 of the per-operation times, with the count beyond p90."""
    ops = per_op(result["passes"], at)
    p90 = statistics.quantiles(ops, n=10, method="inclusive")[8]
    return {"op_p50_s": statistics.median(ops), "op_p90_s": p90,
            "ops": len(ops), "ops_beyond_p90": sum(t > p90 for t in ops)}


def per_layer(result):
    self_s, calls, counts, shapes = {}, {}, {}, []
    nnz_peak = 0
    cli_import_s = 0.0  # inside the traced pass: each CLI process imports statesum.cli
    for t in result["traces"]:
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
        shapes += t["shapes"]
        nnz_peak = max(nnz_peak, t["nnz_peak"])
        cli_import_s += t.get("import_s", 0.0)
    traced = sum(r["s"] for r in result["traced_pass"])
    attributed = sum(self_s.get(layer, 0.0) for layer in LAYERS) + cli_import_s
    boundary_calls = calls.get("frobenius.boundary", 0)
    metrics = {("cli.self_s" if layer == "cli" else f"{layer}_self_s"): self_s.get(layer, 0.0)
               for layer in LAYERS}
    metrics.update({
        "linalg.dense_entries": counts.get("dense_entries", 0),
        "frobenius.boundary_calls": boundary_calls,
        "frobenius.boundary_hit_ratio":
            counts.get("boundary_hits", 0) / boundary_calls if boundary_calls else 0.0,
        "tensors.contract_calls": calls.get("tensors.contract", 0),
        "tensors.mul_adds": counts.get("mul_adds", 0),
        "tensors.nnz_peak": nnz_peak,
        "tensors.networks": len(shapes),
        "tensors.repeat_network_share":
            (len(shapes) - len(set(shapes))) / len(shapes) if shapes else 0.0,
        "complexes.validate_calls": calls.get("complexes.validate", 0),
        "evaluation.network_tensors": counts.get("network_tensors", 0),
        # the fuzz workload imports once, before its passes
        "cli.import_s": cli_import_s or result.get("import_s", 0.0),
        "trace.count_s": self_s.get("trace.count", 0.0),
        "trace.unattributed_s": traced - attributed - self_s.get("trace.count", 0.0),
        "trace.overhead_ratio": sum(map(at_reference_speed, result["traced_pass"]))
        / sum(map(at_reference_speed, result["passes"][0])),
        "queue.wait_s": 0.0,
    })
    return metrics


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="order of the operations")
    ap.add_argument("--moves-seed", type=int, default=0,
                    help="fuzz-moves only: 0 replays test 05's move sequences, "
                         "any other value gives held-out ones")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "statesum" / "__init__.py").is_file():
        print(f"error: {SRC / 'statesum'} not found; run from a statesum checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    load_start = loadavg()
    if workload.ops:
        result = run_cli_workload(workload, args.seed, args.seconds, args.trace)
    else:
        result = run_fuzz_workload(args.seed, args.moves_seed, args.seconds, args.trace)
    all_records = [r for p in result["passes"] for r in p] + result.get("traced_pass", [])
    attempted = len(all_records)
    failures = [r["op"] for r in all_records if not r["ok"]]
    failed = len(failures)
    metrics = per_layer(result) if args.trace else end_to_end(result)

    detail = {
        "workload": workload.name, "seed": args.seed, "moves_seed": args.moves_seed,
        "trace": args.trace,
        "passes": len(result["passes"]), "samples": attempted,
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "failures": failures[:20],
        "latency": None if args.trace else
        {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
         for k, v in latency(result).items()},
        "measured": None if args.trace else end_to_end(result, at=lambda r: r["s"]),
        "speed_scale": statistics.median(r["scale"] for r in all_records),
        "setup_runs_s": [r["s"] for r in result["setup"]],
        "ops": [(r["op"], round(r["s"], 4), round(r["rss_mb"], 1)) for r in result["passes"][0]]
        if workload.ops else [],
        "move_seeds": result.get("move_seeds"),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "loadavg_start": load_start, "loadavg_end": loadavg(),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
