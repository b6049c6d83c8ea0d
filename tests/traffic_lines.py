"""List the statements of src/ that neither the CLI digest nor the benchmark reaches.

Run as `python3 tests/traffic_lines.py` from the repository root. A line
tracer starts before blindprep is imported. Then every invocation of
`tests/cli_digest.py` runs in-process through `cli.main`, and one cycle of
each workload in `bench/workloads.py` runs, each op checked by the
benchmark's own oracle. The script prints each statement of src/ that no
traced line reached, as path:line and its first line of source, and then,
on the last line, their count. `raise` statements and docstrings are left
out: refusals are reached by the tier-1 tests, not by traffic. It exits 1
when a benchmark op fails its check. No bytecode is written, so the
benchmark's directory is left as it is.

So "code with no caller outside tests" is a measurement: a statement listed
here is reached by no user-facing run, only by the tests, if at all.

The file name does not match pytest's test patterns, so it is not collected.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.dont_write_bytecode = True
sys.path[:0] = [str(SRC), str(ROOT / "bench"), str(ROOT / "tests")]

reached: dict = {}  # file name -> the line numbers a traced frame reached
pending: dict = {}  # code object in src/ -> its lines; None once all are reached


def _trace(frame, event, arg):
    """The global tracer: trace the lines of each new frame of code in src/
    until every line of its code is reached."""
    code = frame.f_code
    want = pending.get(code, ())
    if want is None or not code.co_filename.startswith(str(SRC)):
        return None
    lines = reached.setdefault(code.co_filename, set())
    if not want:
        want = pending[code] = {line for _, _, line in code.co_lines() if line is not None}
    if want <= lines:
        pending[code] = None
        return None
    add = lines.add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


sys.settrace(_trace)

import cli_digest  # noqa: E402  (imports blindprep under the tracer)
import workloads  # noqa: E402


def _executable(code) -> set:
    """Every line that code, or any code nested in it, has bytecode for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _header(stmt: ast.stmt) -> range:
    """The lines of stmt that run when it is reached: all of a simple
    statement, and a compound one's decorators and header up to its body."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    return range(first, max(body[0].lineno, first + 1) if body else stmt.end_lineno + 1)


def _is_docstring(stmt: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
        and getattr(parent, "body", [None])[0] is stmt
    )


def unreached(path: Path) -> list:
    """(line, source line) of each statement of path that no traced line reached."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    executable = _executable(compile(text, str(path), "exec"))
    hit = reached.get(str(path), set())
    source = text.splitlines()
    out = []
    for parent in ast.walk(tree):
        for stmt in ast.iter_child_nodes(parent):
            if not isinstance(stmt, ast.stmt) or isinstance(stmt, ast.Raise):
                continue
            if _is_docstring(stmt, parent):
                continue
            lines = set(_header(stmt)) & executable  # a bare annotation runs nothing
            if lines and not lines & hit:
                out.append((stmt.lineno, source[stmt.lineno - 1].strip()))
    return sorted(out)


def main() -> int:
    cli_digest.digest()
    failed = 0
    for workload in workloads.WORKLOADS.values():
        w = workload(1)
        ops = w.ops()
        for _ in range(w.cycle):
            op = next(ops)
            failed += not w.check(op, w.run(op))
    sys.settrace(None)
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        for line, text in unreached(path):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            count += 1
    if failed:
        print(f"{failed} benchmark ops failed their check")
    print(f"{count} statements unreached")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
