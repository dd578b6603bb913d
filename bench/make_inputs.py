"""Write the input files of a CLI workload through ``statesum catalog``.

    python3 bench/make_inputs.py DIR '[["name.json", ["algebra", "matsum", "1,2", "1,1"]], ...]'

Each entry is a file name under DIR and the ``statesum catalog`` arguments
that produce it.  The benchmark times this whole process as its set-up.
"""

import json
import sys
from pathlib import Path


def main(argv) -> int:
    out_dir = Path(argv[0])
    from statesum.cli import main as statesum_main

    for name, args in json.loads(argv[1]):
        rc = statesum_main(["catalog", *args, "-o", str(out_dir / name)])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
