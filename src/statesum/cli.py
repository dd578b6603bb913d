"""Command-line interface.

Commands: ``algebra check``, ``frobenius show``, ``knowledgeable``, ``eval``,
``surface``, ``fuzz``, ``catalog``.  All commands but ``catalog`` accept
``--json`` for machine-readable output (human-readable tables otherwise).

The grammar is one table, ``COMMANDS``: ``parse_args`` reads the command
line against it and ``-h``/``--help`` prints it.  Options take
``--opt value`` or ``--opt=value``, in any order among the positionals, and
a value is taken as it stands (``--genus -1`` is a genus); the last of a
repeated option wins, and no prefix of an option name is accepted.

Exit codes: 0 success; 1 a malformed command line, an input or validation
error (malformed files, non-algebras, invalid complexes), a command that ran
out of memory (a ``MemoryError`` document), a standard output closed by its
reader (``statesum ... | head``: nothing goes to stderr), or one that cannot
be written (``statesum ... > /dev/full``: the JSON error document goes to
stderr); 2 mathematical precondition violation (degenerate pairing, algebra
not strongly separable, ...), so shell-level tests can tell a bad file from
a bad algebra.

Every document is written to standard output piece by piece as it is
encoded (see ``io.dumps``), so memory does not grow with the output.

A ``statesum`` process (the installed script or ``python -m statesum.cli``)
runs ``console_main``: once ``main`` has returned, it flushes standard output
and error and ends through ``os._exit``, skipping interpreter finalization,
which would run after the answer is written (8-9 ms of a 64-71 ms cold
command).  Under a tracer or profiler (``cProfile``, ``coverage``,
``trace``), which write their reports at exit, the process exits normally,
and so it does when ``main`` raises, with its traceback.  ``main`` itself
only returns the exit code, so library callers of it are unaffected.
"""

from __future__ import annotations

import os
import re
import sys
from itertools import chain
from types import SimpleNamespace

from . import io as sio
from .catalog import (
    GroupTable,
    block_diagonal,
    genus_window_scalar,
    group_table_algebra,
    matrix_sum_algebra,
    surface_invariant_closed_form,
)
from .cobordisms import builtin, closed_surface
from .complexes import random_moves
from .errors import (
    FileFormatError,
    InvalidInput,
    MathPrecondition,
    StateSumError,
    UnknownCatalogError,
    _shown,
)
from .evaluation import evaluate_closed, signature, state_sum, state_sum_raw, state_sum_reduced
from .fields import MR_BOUND, Field
from .frobenius import check_knowledgeable
from .linalg import check_dense
from .morphism import Morphism, signature_dim


def _print(doc, as_json: bool, human_lines):
    if as_json:
        sio.dumps(doc, sys.stdout.write)
    else:
        for line in human_lines:
            print(line)


def _matrix_text(field, m) -> sio.MatrixText:
    return sio.MatrixText(field, m.rows, m.cols, m.nonzero_rows())


def _morphism_json(z: Morphism):
    return {
        "domain": [{"kind": f.kind, "dim": f.dim} for f in z.domain],
        "codomain": [{"kind": f.kind, "dim": f.dim} for f in z.codomain],
        "matrix": sio.MatrixText(z.field, z.rows, z.cols, z.nonzeros),
    }


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from None
    return sio.loads(text)


def _load_algebra(path, need_frobenius=True):
    alg, F, blocks = sio.algebra_from_json(_read_json(path))
    if need_frobenius and F is None:
        raise InvalidInput("algebra file declares no frobenius structure")
    return alg, F, blocks


def _load_complex(path):
    c = sio.complex_from_json(_read_json(path))
    c.require_valid()
    if c.edge_colours:  # evaluated uncoloured, they would be silently dropped
        raise InvalidInput("eval and fuzz evaluate uncoloured complexes; the complex file "
                           "gives brane_colours")
    return c


def _parse_field(spec: str) -> Field:
    if spec in ("rational", "q", "Q"):
        return Field()
    modulus = spec[len("prime:"):] if spec.startswith("prime:") else spec
    if modulus.isdigit():
        p = _int("FIELD", modulus)
        try:
            return Field(p)
        except ValueError:  # composite, or too large to certify prime
            raise InvalidInput(f"FIELD must be a prime below {MR_BOUND}, got {_shown(p)}") from None
    raise UnknownCatalogError(f"unknown field spec {_shown(spec)} (use 'rational' or a prime)")


def _int(name, text) -> int:
    """The command-line parameter ``name`` as an int.  ``InvalidInput`` if
    ``text`` is no integer, or has more digits than ``int`` reads
    (``sys.get_int_max_str_digits()``); either message stays short."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):
            raise InvalidInput(f"{name} has {sum(map(str.isdigit, text))} digits, more than "
                               f"the {sys.get_int_max_str_digits()} that int() reads") from None
        raise InvalidInput(f"{name} must be an integer, got {_shown(text)}") from None


# -- commands ------------------------------------------------------------------


def cmd_algebra_check(args) -> int:
    alg, F, blocks = _load_algebra(args.file, need_frobenius=False)
    field = alg.field
    info = {
        "dim": alg.dim,
        "centre_dim": len(alg.centre_basis()),
        "strongly_separable": alg.is_strongly_separable(),
    }
    if F is not None:
        info["window"] = [field.format(x) for x in F.window.coeffs]
        info["window_inverse"] = [field.format(x) for x in F.window_inverse.coeffs]
        info["special"] = F.is_special()
    _print(info, args.json, [f"{k}: {v}" for k, v in info.items()])
    return 0


def cmd_frobenius_show(args) -> int:
    alg, F, _ = _load_algebra(args.file)
    f = alg.field
    doc = {
        "counit": [f.format(x) for x in F.counit],
        "pairing": _matrix_text(f, F.pairing),
        "pairing_inverse": _matrix_text(f, F.pairing_inverse),
        "window": [f.format(x) for x in F.window.coeffs],
        "window_inverse": [f.format(x) for x in F.window_inverse.coeffs],
        "special": F.is_special(),
    }
    human = [
        f"counit: {doc['counit']}",
        f"pairing: {list(doc['pairing'].render(str, list))}",
        f"window: {doc['window']}",
        f"window inverse: {doc['window_inverse']}",
        f"special: {doc['special']}",
    ]
    _print(doc, args.json, human)
    return 0


def cmd_knowledgeable(args) -> int:
    alg, F, _ = _load_algebra(args.file)
    f = alg.field
    K = F.knowledgeable()
    report = check_knowledgeable(K)
    doc = {
        "closed_dim": K.C.dim,
        "closed_basis_in_ambient": _matrix_text(f, K.iota),
        "iota": _matrix_text(f, K.iota),
        "iota_star": _matrix_text(f, K.iota_star),
        "mu_C": _matrix_text(f, K.C.mu_matrix()),
        "delta_C": _matrix_text(f, K.C.delta_matrix()),
        "eps_C": [f.format(x) for x in K.C.counit],
        "axioms": [{"axiom": name, "ok": ok} for (name, ok, _) in report],
    }
    human = [f"closed space dimension: {K.C.dim}",
             f"iota columns (C basis in A coordinates): {list(doc['iota'].render(str, list))}",
             f"iota_star: {list(doc['iota_star'].render(str, list))}",
             f"mu_C: {list(doc['mu_C'].render(str, list))}",
             f"delta_C: {list(doc['delta_C'].render(str, list))}",
             f"eps_C: {doc['eps_C']}"]
    human += [f"axiom {r['axiom']}: {'pass' if r['ok'] else 'FAIL'}" for r in doc["axioms"]]
    _print(doc, args.json, human)
    return 0 if all(r["ok"] for r in doc["axioms"]) else 2


def cmd_eval(args) -> int:
    alg, F, _ = _load_algebra(args.algebra)
    c = _load_complex(args.complex)
    # an output too large to print is refused before it is contracted
    check_dense(signature_dim(signature(F, c.black_out, args.mode)),
                signature_dim(signature(F, c.black_in, args.mode)))
    fn = {"raw": state_sum_raw, "reduced": state_sum_reduced, "full": state_sum}[args.mode]
    z = fn(F, c)
    doc = _morphism_json(z)
    human = chain([f"domain: {list(z.domain)}", f"codomain: {list(z.codomain)}"],
                  doc["matrix"].render(str, " ".join))
    _print(doc, args.json, human)
    return 0


# Budgets on declared sizes, refused before anything loads: a walk takes time
# linear in its length, but the state sum of its end grows faster (after 1,000,
# 3,000 and 6,000 moves from open_mult, 0.2, 1.0 and 3.4 s over Q[Z/3]); digging
# many windows grows with the square of their number; checking a group table's
# associativity takes the cube of the group's order in multiply-adds on each
# side, about 8 s for S_5, and checking a matrix sum grows faster than its
# dimension, the sum of the squares of its block sizes (about 6 s for M_25,
# of dimension 625); a catalog complex is built in time and memory linear in
# its edge counts.  The README gives the times they were set from.
FUZZ_MOVES_BUDGET = 1_000  # moves per walk
FUZZ_TOTAL_MOVES_BUDGET = 10_000  # moves * trials
SURFACE_GENUS_BUDGET = 200
SURFACE_WINDOWS_BUDGET = 200
GROUP_ORDER_BUDGET = 120  # the order of S_5
MATSUM_DIM_BUDGET = 625  # the dimension of M_25
COMPLEX_EDGES_BUDGET = 10_000  # each edge count of a catalog strip, annulus, zipper or cozipper


def cmd_surface(args) -> int:
    got = f"got {_shown(args.genus)}, {_shown(args.windows)}"
    if args.genus < 0 or args.windows < 0:
        raise InvalidInput(f"surface needs --genus >= 0, --windows >= 0; {got}")
    if args.genus > SURFACE_GENUS_BUDGET or args.windows > SURFACE_WINDOWS_BUDGET:
        raise InvalidInput(f"surface takes --genus <= {SURFACE_GENUS_BUDGET} and --windows <= "
                           f"{SURFACE_WINDOWS_BUDGET}; {got}")
    alg, F, blocks = _load_algebra(args.algebra)
    f = alg.field
    surf = closed_surface(args.genus, args.windows)
    contracted = evaluate_closed(F, surf)
    operator = genus_window_scalar(F.knowledgeable(), args.genus, args.windows)
    doc = {
        "genus": args.genus,
        "windows": args.windows,
        "contracted": f.format(contracted),
        "genus_window_operator": f.format(operator),
    }
    match = contracted == operator
    if blocks is not None:
        closed = surface_invariant_closed_form(
            blocks["sizes"], blocks["windows"], args.genus, args.windows, f
        )
        doc["closed_form"] = f.format(closed)
        match = match and closed == contracted
    elif args.oracle:
        doc["closed_form"] = None  # no block data in the algebra file
    doc["match"] = match
    human = [f"{k}: {v}" for k, v in doc.items()]
    _print(doc, args.json, human)
    return 0 if match else 2


def cmd_fuzz(args) -> int:
    if args.trials < 1 or args.moves < 0:  # all_equal would hold with nothing checked
        raise InvalidInput(f"fuzz needs --trials >= 1, --moves >= 0; "
                           f"got {_shown(args.trials)}, {_shown(args.moves)}")
    if args.moves > FUZZ_MOVES_BUDGET or args.moves * args.trials > FUZZ_TOTAL_MOVES_BUDGET:
        raise InvalidInput(f"fuzz takes --moves <= {FUZZ_MOVES_BUDGET} and --moves * --trials <= "
                           f"{FUZZ_TOTAL_MOVES_BUDGET}; got {_shown(args.moves)} and "
                           f"{_shown(args.trials)}")
    alg, F, _ = _load_algebra(args.algebra)
    c = _load_complex(args.complex)
    base = state_sum_raw(F, c)
    verdicts = []
    for trial in range(args.trials):
        moved = random_moves(c, seed=args.seed + trial, n=args.moves)
        verdicts.append({"trial": trial, "equal": state_sum_raw(F, moved).equal(base),
                         "vertices": moved.vertex_count,
                         "triangles": len(moved.triangles)})
    ok_all = all(v["equal"] for v in verdicts)
    doc = {"trials": verdicts, "all_equal": ok_all}
    human = [f"trial {v['trial']}: {'equal' if v['equal'] else 'MISMATCH'} "
             f"(V={v['vertices']}, F={v['triangles']})" for v in verdicts]
    human.append(f"all equal: {ok_all}")
    _print(doc, args.json, human)
    return 0 if ok_all else 1


_CATALOG_ALGEBRAS = {"matsum": "SIZES WINDOWS [FIELD]", "group": "cyclic|symmetric N [FIELD]"}


def _catalog_algebra_doc(name: str, params):
    if name not in _CATALOG_ALGEBRAS:
        raise UnknownCatalogError(f"unknown catalog algebra {_shown(name)} (matsum, group)")
    if len(params) not in (2, 3):
        raise InvalidInput(f"usage: catalog algebra {name} {_CATALOG_ALGEBRAS[name]}")
    field = _parse_field(params[2] if len(params) > 2 else "rational")
    if name == "matsum":
        sizes = [_int("an entry of SIZES", x) for x in params[0].split(",")]
        windows = [_int("an entry of WINDOWS", x) for x in params[1].split(",")]
        if sum(m * m for m in sizes) > MATSUM_DIM_BUDGET:
            raise InvalidInput(f"matsum takes dimensions <= {MATSUM_DIM_BUDGET}, the sum of the "
                               f"squares of SIZES; these sizes give more")
        # the bare algebra, so files for non-strongly-separable cases
        # (checked with exit 2) can still be written
        alg, win = matrix_sum_algebra(field, sizes, windows)
        window = block_diagonal(field, sizes, win)
        return sio.algebra_to_json(
            alg,
            frobenius={"window": [field.format(x) for x in window]},
            blocks={"sizes": sizes, "windows": windows},
        )
    kind, n = params[0], _int("N", params[1])
    if kind not in ("cyclic", "symmetric"):
        raise UnknownCatalogError(f"unknown group kind {_shown(kind)} (cyclic, symmetric)")
    if n < 1:
        raise InvalidInput(f"group needs N >= 1, got {_shown(n)}")
    order = n
    if kind == "symmetric":  # n!, not multiplied out past the budget
        order = 1
        for k in range(2, n + 1):
            order *= k
            if order > GROUP_ORDER_BUDGET:
                break
    if order > GROUP_ORDER_BUDGET:
        raise InvalidInput(f"group takes orders <= {GROUP_ORDER_BUDGET}; {kind} {n} has more")
    group = GroupTable.cyclic(n) if kind == "cyclic" else GroupTable.symmetric(n)
    alg = group_table_algebra(field, group)
    # delta at the identity, which is the unit vector
    return sio.algebra_to_json(alg, frobenius={"counit": [field.format(x) for x in alg.unit]})


def cmd_catalog(args) -> int:
    kind = args.kind
    if kind == "algebra":
        doc = _catalog_algebra_doc(args.name, args.params)
    elif kind == "complex":
        params = [_int(f"parameter {i + 1}", x) for i, x in enumerate(args.params)]
        budget = ((SURFACE_GENUS_BUDGET, SURFACE_WINDOWS_BUDGET) if args.name == "closed_surface"
                  else (COMPLEX_EDGES_BUDGET,) * 2)
        if any(p > b for p, b in zip(params, budget)):
            raise InvalidInput(f"catalog complex {args.name} takes parameters <= {list(budget)}; "
                               f"got {_shown(params)}")
        doc = sio.complex_to_json(builtin(args.name, *params))
    else:
        raise UnknownCatalogError(f"unknown catalog kind {_shown(kind)}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            sio.dumps(doc, fh.write)
    else:
        sio.dumps(doc, sys.stdout.write)
    return 0


# -- dispatch ------------------------------------------------------------------


# The grammar of the command line, which ``parse_args`` reads and ``-h``
# prints.  The words of each command map to its handler, a line of help, the
# names of its positionals and its options.  A last positional name ending in
# ``...`` takes the rest of them, as a list.  An option maps to
# ``(type, default)``: the type is ``bool`` for a switch (default False),
# ``str``, ``int`` or a tuple of the values it may take, and the default
# ``REQUIRED`` makes the option required.  A handler reads each value under
# the name of its positional or option: ``--output`` as ``args.output``.
REQUIRED = object()
_JSON = {"--json": (bool, False)}
_FILES = {"--algebra": (str, REQUIRED), "--complex": (str, REQUIRED)}
COMMANDS = {
    ("algebra", "check"): (cmd_algebra_check, "validate and summarise an algebra file",
                           ("file",), _JSON),
    ("frobenius", "show"): (cmd_frobenius_show, "print the derived structure data",
                            ("file",), _JSON),
    ("knowledgeable",): (cmd_knowledgeable, "split the canonical idempotent and report the axioms",
                         ("file",), _JSON),
    ("eval",): (cmd_eval, "evaluate the state sum of a complex", (),
                {**_FILES, "--mode": (("raw", "reduced", "full"), "full"), **_JSON}),
    ("surface",): (cmd_surface, "closed-surface invariant and its oracles; --oracle reports "
                   "\"closed_form\": null when the algebra file has no block data (with block "
                   "data the closed form is always checked)", (),
                   {"--algebra": (str, REQUIRED), "--genus": (int, REQUIRED),
                    "--windows": (int, 0), "--oracle": (bool, False), **_JSON}),
    ("fuzz",): (cmd_fuzz, "random-move invariance check", (),
                {**_FILES, "--moves": (int, 30), "--trials": (int, 20), "--seed": (int, 0),
                 **_JSON}),
    ("catalog",): (cmd_catalog, "write builtin algebra/complex files",
                   ("kind", "name", "params..."), {"--output": (str, None)}),
}
_SHORT = {"-o": "--output"}
_HELP = ("-h", "--help")


def _usage(words) -> str:
    _, _, names, options = COMMANDS[words]
    parts = ["statesum", *words]
    parts += [f"[{n[:-3].upper()} ...]" if n.endswith("...") else n.upper() for n in names]
    for option, (kind, default) in options.items():
        flag = "|".join([*(s for s, o in _SHORT.items() if o == option), option])
        if kind is not bool:
            flag += " " + ("|".join(kind) if isinstance(kind, tuple) else option[2:].upper())
        parts.append(flag if default is REQUIRED else f"[{flag}]")
    return " ".join(parts)


def _print_usage(args) -> int:
    if args.words:
        _, about, _, options = COMMANDS[args.words]
        lines = [f"usage: {_usage(args.words)}", "", about]
        defaults = [f"{option} {default}" for option, (kind, default) in options.items()
                    if kind is not bool and default not in (REQUIRED, None)]
        if defaults:
            lines.append(f"defaults: {', '.join(defaults)}")
    else:
        lines = ["usage: statesum COMMAND ... [-h]", "",
                 "Exact state sums on triangulated open-closed cobordisms", "", "commands:"]
        for words, (_, about, _, _) in COMMANDS.items():
            lines += [f"  {_usage(words)}", f"      {about}"]
    print("\n".join(lines))
    return 0


def _is_option(token) -> bool:
    # "-" alone and negative numbers ("catalog complex strip -1 1") are positionals
    return len(token) > 1 and token[0] == "-" and not token[1].isdigit()


def _value(option, kind, text):
    if kind is int:
        return _int(option, text)
    if kind is not str and text not in kind:
        raise InvalidInput(f"{option} takes one of {', '.join(kind)}; got {_shown(text)}")
    return text


def parse_args(argv):
    """The command line ``argv`` as a namespace: ``fn``, the handler of its
    command, and a value for each positional and option that ``COMMANDS``
    declares for it.  ``-h`` or ``--help`` gives the handler that prints the
    usage.  A malformed command line raises ``InvalidInput``."""
    words = next((w for w in (tuple(argv[:2]), tuple(argv[:1])) if w in COMMANDS), None)
    if words is None:
        if any(token in _HELP for token in argv):
            return SimpleNamespace(fn=_print_usage, words=())
        raise InvalidInput(f"expected a command ({', '.join(' '.join(w) for w in COMMANDS)}), "
                           f"got {_shown(list(argv[:2]))}")
    fn, _, names, options = COMMANDS[words]
    values = {option[2:]: default for option, (_, default) in options.items()}
    positionals = []
    tokens = iter(argv[len(words):])
    for token in tokens:
        if not _is_option(token):
            positionals.append(token)
            continue
        option, eq, text = token.partition("=")
        option = _SHORT.get(option, option)
        if option in _HELP:
            return SimpleNamespace(fn=_print_usage, words=words)
        if option not in options:
            raise InvalidInput(f"{' '.join(words)} has no option {_shown(option)}; "
                               f"usage: {_usage(words)}")
        kind = options[option][0]
        if kind is bool:
            if eq:
                raise InvalidInput(f"{option} takes no value")
            values[option[2:]] = True
            continue
        if not eq:  # the next token, as it stands: "--genus -1" is a genus
            text = next(tokens, None)
            if text is None:
                raise InvalidInput(f"{option} needs a value")
        values[option[2:]] = _value(option, kind, text)
    rest = names[-1][:-3] if names and names[-1].endswith("...") else None
    fixed = names[:-1] if rest else names
    if len(positionals) < len(fixed) or (rest is None and len(positionals) > len(fixed)):
        raise InvalidInput(f"{' '.join(words)} got the arguments {_shown(positionals)}; "
                           f"usage: {_usage(words)}")
    values.update(zip(fixed, positionals))
    if rest:
        values[rest] = positionals[len(fixed):]
    missing = [option for option in options if values[option[2:]] is REQUIRED]
    if missing:
        raise InvalidInput(f"{' '.join(words)} needs {', '.join(missing)}; usage: {_usage(words)}")
    return SimpleNamespace(fn=fn, **values)


def _run(argv) -> int:
    try:
        args = parse_args(argv)
        return args.fn(args)
    except BrokenPipeError:
        raise  # stdout is gone: no error document can be written to it
    except MathPrecondition as exc:
        sio.dumps({"error": type(exc).__name__, "message": str(exc)}, sys.stdout.write)
        return 2
    except (StateSumError, OSError) as exc:
        sio.dumps({"error": type(exc).__name__, "message": str(exc)}, sys.stdout.write)
        return 1
    except MemoryError as exc:  # the work is unwound by now, so the document fits
        sio.dumps({"error": "MemoryError", "message": str(exc) or "out of memory"},
                  sys.stdout.write)
        return 1


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # so a stdout that cannot be written shows here, not at exit
        return code
    except OSError as exc:
        # Standard output is gone: its reader has closed it (``statesum ... |
        # head``, a BrokenPipeError) or it cannot be written (``> /dev/full``),
        # so _run's error document could not reach it either.  As the SIGPIPE
        # note of the Python docs does: what is still buffered, and the flush
        # at exit, go to devnull instead of a second error.  A closed pipe is
        # the reader's choice; any other error is reported on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            sio.dumps({"error": type(exc).__name__, "message": str(exc)}, sys.stderr.write)
        return 1


def console_main() -> int:
    """The ``statesum`` process: ``main`` on ``sys.argv``, then the end of the
    process with its exit code, through ``os._exit`` once standard output
    and error are flushed (see the module docstring).  The code is returned,
    for the caller to pass to ``sys.exit``, only under a tracer or profiler:
    ``sys.settrace``, ``sys.setprofile`` or a ``sys.monitoring`` tool (from
    Python 3.12 on, ``cProfile`` is one)."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    monitoring = getattr(sys, "monitoring", None)
    tools = () if monitoring is None else map(monitoring.get_tool, range(6))
    if sys.gettrace() is None and sys.getprofile() is None and not any(tools):
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(console_main())
