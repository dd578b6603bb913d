"""Line-coverage gate: every function-body line of ``src/statesum/`` must run.

A pytest plugin built on the standard library's ``sys.settrace``.  Load it
with ``-p`` so that tracing starts before anything imports ``statesum``:

    PYTHONPATH=src python -m pytest -q -p tools.linecov

A function-body line is a line that the code object of a function, method,
lambda or comprehension in the package maps an instruction to (its
``co_lines()``); module and class bodies run at import and are not counted.
A function's first line counts as run when the function is called.  Lines
that run only in a child process count as not run.  When the session ends,
the plugin lists each unrun line and fails the run unless the line is in
``ALLOWED``; an ``ALLOWED`` entry that no longer names an unrun line fails
it too, so the list cannot go stale.  Run it on the whole suite: a subset
leaves lines unrun.

A code object stops being traced once all its lines have run, so the
traced suite costs about four times the untraced one.
"""
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "statesum")

# "file.py:line" -> why the line stays although no test runs it.
ALLOWED = {}

_CO_NEWLOCALS = 0x2  # set on functions, lambdas and comprehensions only

_todo = {}  # code object -> its lines not yet run


def _lines(code):
    return {line for _, _, line in code.co_lines() if line is not None}


def _functions(code):
    """The function code objects nested in ``code``, at any depth."""
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if const.co_flags & _CO_NEWLOCALS:
                yield const
            yield from _functions(const)


def _local(frame, event, arg):
    todo = _todo[frame.f_code]
    todo.discard(frame.f_lineno)
    return _local if todo else None


def _global(frame, event, arg):
    code = frame.f_code
    todo = _todo.get(code)
    if todo is None:
        if not code.co_filename.startswith(PACKAGE) or not code.co_flags & _CO_NEWLOCALS:
            return None
        todo = _todo[code] = _lines(code) - {code.co_firstlineno}
    return _local if todo else None


def unrun_lines():
    """``{"file.py:line": source}`` for each function-body line of the
    package that has not run in this process since the plugin was loaded."""
    ran = {}
    for code, todo in _todo.items():
        ran.setdefault(code.co_filename, set()).update(_lines(code) - todo)
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as f:
            source = f.read()
        text = source.splitlines()
        module = compile(source, path, "exec")
        for line in sorted(set().union(*map(_lines, _functions(module))) - ran.get(path, set())):
            out[f"{name}:{line}"] = text[line - 1].strip()
    return out


sys.settrace(_global)


def pytest_sessionfinish(session):
    sys.settrace(None)
    unrun = unrun_lines()
    failing = {k: v for k, v in unrun.items() if k not in ALLOWED}
    stale = sorted(k for k in ALLOWED if k not in unrun)
    write = session.config.get_terminal_writer().line
    write("")
    write(f"linecov: {len(unrun)} unrun function-body lines in src/statesum, {len(ALLOWED)} allowed")
    for key, text in unrun.items():
        write(f"  {key}: {text}" + (f"  [allowed: {ALLOWED[key]}]" if key in ALLOWED else ""))
    for key in stale:
        write(f"  {key}: in ALLOWED but not an unrun line")
    if failing or stale:
        session.exitstatus = 1
