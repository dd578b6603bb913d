"""Run one ``statesum`` command with the benchmark's tracer installed.

    python3 bench/traced_cli.py TRACE.json <statesum arguments>

The command's output goes to standard output as usual; the span summary,
with the time taken to import ``statesum.cli``, is written to TRACE.json.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main(argv) -> int:
    t0 = time.perf_counter()
    import statesum.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    idx = tracer.open("cli")
    try:
        rc = statesum.cli.main(argv[1:])
    finally:
        tracer.close(idx)
        summary = tracer.summary()
        summary["import_s"] = import_s
        Path(argv[0]).write_text(json.dumps(summary))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
