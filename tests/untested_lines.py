"""Print each statement in ``src/`` that no test executes.

Run from the repository root:

    python tests/untested_lines.py               # the whole tier-1 suite
    python tests/untested_lines.py tests/test_cli.py -k sweep   # any pytest arguments

It runs pytest in this process under a stdlib line tracer (``sys.settrace``;
``coverage`` is not a dependency) and then prints ``path:line: source`` for
every statement of ``src/gradvoc`` that no traced test ran, followed by a
count.  The whole suite takes about 1.6 times its untraced time.

Only this process and its threads are traced: a test that runs gradvoc in a
subprocess (``tests/test_process.py``) counts for nothing here, so a line
that only such a test reaches is listed as unrun.  A statement counts as run
when any line of it (of its header, for a compound statement) ran.  This
file is not collected by pytest: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gradvoc"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def statement_spans(path: Path) -> list[tuple[int, int]]:
    """The (first, last) lines of each statement of ``path`` whose running
    raises a line event: a simple statement's whole extent, a compound
    one's header and decorators.  Docstrings are left out."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # a compound statement: its header
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            spans.append((first, max(node.lineno, body[0].lineno - 1)))
        else:
            spans.append((node.lineno, node.end_lineno))
    return sorted(spans)


def trace_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer: its exit code, and the
    lines run in each file of ``SRC``."""
    hit: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"
    tracer_of: dict = {}  # code object -> the line tracer of its file, or None

    def line_tracer(lines: set[int]):
        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracer_of:
            name = code.co_filename
            tracer_of[code] = (line_tracer(hit.setdefault(name, set()))
                               if name.startswith(prefix) else None)
        return tracer_of[code]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def main(argv: list[str]) -> int:
    if any(name == "gradvoc" or name.startswith("gradvoc.") for name in sys.modules):
        raise SystemExit("gradvoc is already imported: its module-level lines would be missed")
    sys.path.insert(0, str(ROOT / "src"))
    code, hit = trace_run(argv or TIER1)
    unrun = 0
    for path in sorted(SRC.glob("*.py")):
        ran = hit.get(str(path), set())
        source = path.read_text().splitlines()
        for first, last in statement_spans(path):
            if ran.isdisjoint(range(first, last + 1)):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{unrun} statements of {SRC.relative_to(ROOT)} unrun (pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
