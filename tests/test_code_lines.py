"""The code-line counter in tools/code_lines.py, which every change to
``src/`` uses to report its code-line delta."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring
over two lines."""

# a comment-only line
import os  # code, then a comment


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring
        over three lines.
        """
        # an indented comment

        "a string expression that is not a docstring"
        return os.sep


async def call():
    """Async function docstring."""
'''


def test_fixture_counts_only_code():
    # import, class, def, the string expression, return, async def
    assert code_lines.code_lines(FIXTURE) == 6


@pytest.mark.parametrize("source, expected", [
    ("\n   \n\t\n", 0),
    ("# one\n    # two\n", 0),
    ('"""Module\n\ndocstring."""\n', 0),
    ('class A:\n    """Class\n    docstring."""\n', 1),
    ('def f():\n    """Function\n    docstring."""\n    return 1\n', 2),
    ('def f():\n    x = 1\n    "not a docstring"\n', 3),
    ('x = 1\n"""not a docstring\nover two lines"""\n', 3),
    ("x = 1  # trailing comment\n", 1),
], ids=["blank", "comments", "module-docstring", "class-docstring", "function-docstring",
        "string-expression", "multi-line-string-expression", "code-then-comment"])
def test_each_kind_of_line(source, expected):
    assert code_lines.code_lines(source) == expected


def test_main_total_is_the_sum_of_its_rows(capsys):
    assert code_lines.main([str(ROOT / "src" / "dube")]) == 0
    rows = [re.fullmatch(r"\s*(\d+)  (\S+)", line).groups()
            for line in capsys.readouterr().out.splitlines()]
    *modules, (total, name) = rows
    assert name == "total"
    assert [module for _, module in modules] == sorted(p.name for p in (ROOT / "src" / "dube").glob("*.py"))
    assert int(total) == sum(int(count) for count, _ in modules) > 0
