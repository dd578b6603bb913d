"""The ``fuzz-moves`` workload, run in a process of its own.

    python3 bench/fuzz_child.py --seed N --moves-seed M --seconds S --trace 0|1
    python3 bench/fuzz_child.py --setup-only

This is the slice of acceptance test 05 (3 algebras x 13 complexes) through
the library, with each Frobenius structure kept warm across operations.  One
operation is ``random_moves(n=30)`` followed by ``state_sum_raw``; its value
is compared with the unmoved complex's value off the clock.  ``--seed`` sets
the order of the operations in each pass.  The passes alternate between
trials 0 and 1 for as long as ``run.another_pass`` allows; trial ``t`` uses
move seed ``1000 * (20 * moves_seed + t) + 17``, so moves seed 0 reproduces
test 05's trials and every other moves seed gives held-out move sequences.

With ``--trace 1`` the process makes one untraced and then one traced pass
of the same trial.  The last line of standard output is a JSON record.
"""

import argparse
import json
import random
import sys
import time

from run import another_pass
from speed import SpeedTracker

MOVES = 30
TRIALS = 2


def move_seed(moves_seed: int, trial: int) -> int:
    return 1000 * (20 * moves_seed + trial) + 17


def setup():
    """Import ``statesum`` and build the algebras and complexes of the slice."""
    t0 = time.perf_counter()
    import statesum as S

    import_s = time.perf_counter() - t0
    a7 = S.group_algebra(S.GF(7), S.GroupTable.cyclic(3))[0]
    algebras = {
        "Q[Z/2] delta": S.group_algebra(S.QQ, S.GroupTable.cyclic(2))[1],
        "Q[Z/3] delta": S.group_algebra(S.QQ, S.GroupTable.cyclic(3))[1],
        "F7[Z/3] canonical": S.frobenius_from_window(a7, a7.unit_element()),
    }
    complexes = dict(S.generator_suite())
    complexes["torus"] = S.closed_surface(1, 0)
    complexes["genus2_window"] = S.closed_surface(2, 1)
    return S, algebras, complexes, import_s


def fuzz_pass(S, ops, bases, seed, speed, tracer=None):
    """One operation per ``(algebra label, F, complex name, complex)`` in ``ops``;
    returns ``{"op", "s", "ok"}`` records."""
    from oracles import fuzz_ok

    records = []
    for alabel, F, cname, c in ops:
        speed.before_op()
        t0 = time.perf_counter()
        idx = tracer.open("bench.op") if tracer else None
        moved = S.random_moves(c, seed=seed, n=MOVES)
        value = S.state_sum_raw(F, moved)
        if tracer:
            tracer.close(idx)
        record = {"op": f"{alabel} / {cname} / move seed {seed}",
                  "s": time.perf_counter() - t0}
        speed.after_op(record)
        record["ok"] = fuzz_ok(value, bases[alabel, cname])
        records.append(record)
    return records


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--moves-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    S, algebras, complexes, import_s = setup()
    if args.setup_only:
        return 0
    ops = [(a, F, c, cx) for a, F in algebras.items() for c, cx in complexes.items()]
    bases = {(a, c): S.state_sum_raw(F, cx) for a, F, c, cx in ops}
    random.Random(args.seed).shuffle(ops)

    speed = SpeedTracker()
    record = {"import_s": import_s, "passes": [], "move_seeds": []}
    t0 = time.perf_counter()
    while True:
        seed = move_seed(args.moves_seed, len(record["passes"]) % TRIALS)
        record["passes"].append(fuzz_pass(S, ops, bases, seed, speed))
        record["move_seeds"].append(seed)
        if args.trace or not another_pass(len(record["passes"]), time.perf_counter() - t0,
                                          args.seconds):
            break
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            record["traced_pass"] = fuzz_pass(S, ops, bases, move_seed(args.moves_seed, 0),
                                              speed, tracer)
        finally:
            tracer.uninstall()
        record["trace"] = tracer.summary()
    speed.finish()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
