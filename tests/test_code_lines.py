"""The rules of ``tools/code_lines.py``, the code-line counter."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def counter():
    spec = importlib.util.spec_from_file_location("code_lines", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # A comment.
    import math


    class Shape:
        """Class docstring."""

        def area(self):
            """Function docstring,

            over three lines."""
            text = """a string that is not a docstring

            counts on every line"""
            return math.pi  # a trailing comment
    ''')


def test_counts_code_and_non_docstring_strings(counter):
    # import, class, def, the three lines of the string, return.
    assert counter.code_lines(_SOURCE) == 7


@pytest.mark.parametrize("source,count", [
    ('"""Only a docstring."""\n', 0),
    ("# only a comment\n\n   \n", 0),
    ('def f():\n    """Docstring."""\n', 1),
    ('x = 1\n"""Not a docstring."""\n', 2),
])
def test_docstrings_comments_and_blank_lines_do_not_count(counter, source, count):
    assert counter.code_lines(source) == count


def test_main_prints_the_total_over_a_directory(counter, tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert counter.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "9\n"
