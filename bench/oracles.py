"""Oracles the benchmark checks every operation against, off the clock.

- full ``strip``: the identity on ``A``;
- full ``annulus``: the identity on the closed space ``C``;
- full ``zipper``: the inclusion ``K.iota`` of ``C`` into ``A``;
- raw ``strip(k, l)``: the boundary projector ``F.p_matrix(k, l)``;
- ``surface``: the command's own three-way ``match`` (contraction, genus and
  window operator, block closed form) is true;
- fuzz: each moved complex evaluates to the same morphism as the unmoved one.

The CLI outputs are checked in a process of their own, so that neither the
oracles nor the parsed outputs grow the benchmark process, whose peak RSS
each child it starts inherits until it execs:

    python3 bench/oracles.py CHECKS.json

CHECKS.json lists ``{"out": file, "rc": exit code, "expect": oracle key}``;
file names are relative to the working directory.  The verdicts are printed
as one JSON list.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from statesum import io as sio
from statesum.linalg import Matrix


def expected_eval_rows(F, mode, shape, k, l):
    """The matrix ``statesum eval --json`` must print, as formatted rows."""
    field = F.field
    if mode == "raw" and shape == "strip":
        m = F.p_matrix(k, l)
    elif mode == "full" and shape == "strip":
        m = Matrix.identity(field, F.dim)
    elif mode == "full" and shape == "annulus":
        m = Matrix.identity(field, F.knowledgeable().C.dim)
    elif mode == "full" and shape == "zipper":
        m = F.knowledgeable().iota
    else:
        raise ValueError(f"no oracle for {mode} {shape}")
    return [[field.format(x) for x in row] for row in m.data]


def parse_output(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return None


def eval_ok(doc, expected_rows) -> bool:
    return isinstance(doc, dict) and doc.get("matrix") == expected_rows


def surface_ok(doc, genus, windows) -> bool:
    return (isinstance(doc, dict) and doc.get("match") is True
            and doc.get("genus") == genus and doc.get("windows") == windows
            and doc.get("closed_form") is not None)


def fuzz_ok(moved_value, base_value) -> bool:
    return moved_value.equal(base_value)


def check_outputs(checks):
    """One verdict per check; the oracle key is ``["eval", algebra file, mode,
    shape, k, l]`` or ``["surface", genus, windows]``."""
    structures, expected, verdicts = {}, {}, []
    for check in checks:
        kind, *key = check["expect"]
        doc = parse_output(Path(check["out"]).read_bytes()) if check["rc"] == 0 else None
        if kind == "surface":
            verdicts.append(surface_ok(doc, *key))
            continue
        algebra, mode, shape, k, l = key
        if algebra not in structures:
            structures[algebra] = sio.algebra_from_json(sio.loads(Path(algebra).read_text()))[1]
        if tuple(key) not in expected:
            expected[tuple(key)] = expected_eval_rows(structures[algebra], mode, shape, k, l)
        verdicts.append(eval_ok(doc, expected[tuple(key)]))
    return verdicts


if __name__ == "__main__":
    print(json.dumps(check_outputs(json.loads(Path(sys.argv[1]).read_text()))))
