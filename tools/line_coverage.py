"""List the statements under ``src/dube`` that a pytest run never executes.

It runs pytest in this process under a ``sys.settrace`` line tracer that
records only the lines run in ``src/dube``. Then it prints each statement
none of whose lines ran, as ``file:line  source``, and their count. A
compound statement (``if``, ``def``, ``try``, ...) counts as run when any
line inside it ran. Left out are statements that compile to no code
(docstrings and other bare constants) and a module's ``if __name__ ==
"__main__":`` block, which runs only when the module runs as a script,
and no in-process test can do that. The exit status is 1 when any
statement never ran, else 0, so the tool can gate a change.

Run from the repository root::

    python3 tools/line_coverage.py [PYTEST_ARGS...]

Without arguments it runs the tier-1 suite (``-q
--continue-on-collection-errors`` over ``tests/``). Tracing makes the
run about twice as slow.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "dube"
TIER_1 = ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]


def executed_lines(files, run) -> dict:
    """Call ``run()`` under a line tracer; return, for each of the resolved
    paths ``files``, the set of its line numbers that ran."""
    ran = {path: set() for path in files}
    by_name = {}  # a code object's file name -> its set in ran, or None

    def line(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        lines = by_name.get(name, False)
        if lines is False:
            lines = by_name[name] = ran.get(Path(name).resolve())
        return None if lines is None else line

    previous = sys.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return ran


def statements(source: str) -> list:
    """(first line, last line) of each statement in ``source`` that compiles
    to code and lies outside a top-level ``if __name__ == "__main__":``
    block, a decorated definition starting at its first decorator."""
    tree = ast.parse(source)
    script = {id(node) for top in tree.body if isinstance(top, ast.If)
              and ast.unparse(top.test) == "__name__ == '__main__'" for node in ast.walk(top)}
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in script and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            spans.append((first, node.end_lineno))
    return sorted(spans)


def never_ran(root: Path, run) -> list:
    """(path, line, source) of each statement in the ``.py`` files under
    ``root`` that no line of ran while ``run()`` was called."""
    files = sorted(path.resolve() for path in Path(root).rglob("*.py"))
    ran = executed_lines(files, run)
    missed = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for first, last in statements(text):
            if ran[path].isdisjoint(range(first, last + 1)):
                missed.append((path, first, lines[first - 1].strip()))
    return missed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(SOURCE.parent))  # trace this checkout's dube
    import pytest
    missed = never_ran(SOURCE, lambda: pytest.main(args or TIER_1))
    for path, line, source in missed:
        print(f"{path.relative_to(ROOT)}:{line}  {source}")
    print(f"{len(missed)} statement(s) never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
