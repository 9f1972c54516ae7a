"""The statement tracer in tools/line_coverage.py, which lists the
statements of ``src/dube`` that a test run never executes."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_coverage", ROOT / "tools" / "line_coverage.py")
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)

MODULE = '''"""Module docstring."""

import math


def used(x):
    """Docstring."""
    if x > 0:
        return x
    return -math.fabs(x)


def unused(x):
    y = (x +
         1)
    return y


class Thing:
    "another docstring"

    @staticmethod
    def method():
        try:
            return used(
                -1)
        finally:
            pass


if __name__ == "__main__":
    print(used(
        3))
'''


def run_module(path):
    spec = importlib.util.spec_from_file_location("traced_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.used(2)
    module.Thing.method()


def test_only_the_uncalled_function_is_reported(tmp_path):
    path = tmp_path / "traced_fixture.py"
    path.write_text(MODULE)
    missed = line_coverage.never_ran(tmp_path, lambda: run_module(path))
    assert missed == [(path.resolve(), 14, "y = (x +"), (path.resolve(), 16, "return y")]


def test_bare_constants_are_not_statements():
    assert line_coverage.statements('"""doc"""\nx = 1\n...\n"text"\n') == [(2, 2)]


def test_a_decorated_definition_starts_at_its_decorator():
    assert line_coverage.statements("@a\n@b\ndef f():\n    return 1\n") == [(1, 4), (4, 4)]


def test_a_main_guard_is_not_a_statement():
    source = 'x = 1\nif __name__ == "__main__":\n    f(x)\nif __name__ == "other":\n    g()\n'
    assert line_coverage.statements(source) == [(1, 1), (4, 5), (5, 5)]


@pytest.mark.parametrize("missed,status", [([], 0), ([("cli.py", 3, "x = 1")], 1)])
def test_exit_status_is_one_when_a_statement_never_ran(monkeypatch, capsys, missed, status):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the checkout's src first
    monkeypatch.setattr(line_coverage, "never_ran", lambda root, run: [
        (line_coverage.SOURCE / path, line, text) for path, line, text in missed])
    assert line_coverage.main(["-q"]) == status
    assert capsys.readouterr().out.endswith(f"{len(missed)} statement(s) never ran\n")
