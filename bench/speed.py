"""Reference work that tracks the machine's momentary speed.

On a shared machine the same operation can take 1.5 times longer from one
minute to the next, in phases that last longer than a run, so medians within
a run cannot remove the drift between runs.  The benchmark therefore runs a
fixed reference between the operations (at most ``EVERY_S`` seconds of
operation time apart) and reports every time at reference speed,
``seconds * nominal / reference``, where ``reference`` is the mean of the
references taken just before and just after the operation.  The reference is
benchmark code, so a change to statesum moves the rescaled times exactly as
much as the measured ones.

Operations that run in this process are compared with ``reference_loop``,
the median of three runs of a pure-Python loop.  Operations that are child
processes are compared with a child process that runs this file, so that
process start-up, page faults and interpreter loading are in the reference
as they are in the operation.

    python3 bench/speed.py    # one reference child: runs the loop once
"""

import statistics
import time

LOOP_NOMINAL_S = 0.0075  # median of three loops on a 2-core x86 VM
CHILD_NOMINAL_S = 0.07  # one reference child process on the same machine
EVERY_S = 0.3


def _loop():
    acc = {}
    for i in range(30000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * i % 7


def reference_loop() -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedTracker:
    """Takes a reference between timed operations.

    ``probe()`` returns the reference's time and ``nominal_s`` its time at
    reference speed.  Each operation's reference is the mean of the ones
    taken just before and just after it, so a phase change during a long
    operation counts half.
    """

    def __init__(self, probe=reference_loop, nominal_s=LOOP_NOMINAL_S):
        self._probe = probe
        self._nominal_s = nominal_s
        self._last = None
        self._pending = []  # records timed since the last reference
        self._since = EVERY_S

    def _take(self):
        now = self._probe()
        for record in self._pending:
            record["scale"] = self._nominal_s / ((self._last + now) / 2)
        self._pending.clear()
        self._last = now
        self._since = 0.0

    def before_op(self):
        if self._since >= EVERY_S:
            self._take()

    def after_op(self, record):
        """``record["s"]`` is the operation's time; ``finish`` sets its ``scale``."""
        self._pending.append(record)
        self._since += record["s"]

    def finish(self):
        self._take()


def at_reference_speed(record) -> float:
    return record["s"] * record["scale"]


if __name__ == "__main__":
    _loop()
