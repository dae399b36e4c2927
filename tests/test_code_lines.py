"""tools/code_lines.py counts the package's code lines: no blank,
comment or docstring lines."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_counts_only_code_lines():
    source = textwrap.dedent('''\
        """A module docstring
        over two lines."""

        import os  # a comment after code counts

        # a comment alone does not


        class A:
            """A class docstring."""

            def f(self):
                """A function docstring,
                over two lines."""
                x = """a string that is no docstring
                spans code lines"""
                return (x,
                        os.sep)
    ''')
    # import, class, def, the two lines of x, the two of the return
    assert load_tool().code_lines(source) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("# note\ny = 2\nz = 3\n")
    assert load_tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert [line.split() for line in lines if line] == [
        ["a.py", "1"], ["b.py", "2"], ["total", "3"],
    ]
