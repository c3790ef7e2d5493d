"""The code-line counter in tools/: blank, comment and docstring lines are not code."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
on two lines."""

import math  # a comment after code


class Box:
    """Class docstring."""

    # a comment line
    size = 2


def area(r):
    """Function docstring,

    with a blank line inside."""
    text = """a string that is no docstring,

    on three lines"""
    return (math.pi
            * r * r), text
'''


def test_counts_only_lines_with_code(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text(MODULE)
    # import, class, size, def, the three lines of text, return and its continuation
    assert code_lines.code_lines(path) == 9
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["9", "total"]
