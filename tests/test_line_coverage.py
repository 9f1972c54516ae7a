"""The statement tracer in tools/line_coverage.py, which lists the
statements of ``src/dube`` that a test run never executes."""

import importlib.util
from pathlib import Path

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
