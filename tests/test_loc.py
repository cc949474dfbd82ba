"""Tests for tools/loc.py, the code-line counter."""

import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("tools_loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# Code lines are marked "# code"; every other line is a docstring, a
# comment or blank.
SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import os  # code


    # A comment on its own line.
    class Thing:  # code
        """Class docstring."""

        def method(self):  # code
            """Method docstring,

            with a blank line inside."""
            text = """a string that is  # code
    not a docstring"""  # code
            return (text,  # code
                    os.sep)  # code
''')


class TestCodeLines:
    def test_skips_docstrings_comments_and_blank_lines(self):
        assert loc.code_lines(SOURCE) == SOURCE.count("# code")

    def test_docstring_lines(self):
        assert sorted(loc.docstring_lines(loc.ast.parse(SOURCE))) == [1, 2, 9, 12, 13, 14]

    def test_empty_source(self):
        assert loc.code_lines("") == 0
        assert loc.code_lines('"""Only a docstring."""\n') == 0

    def test_prints_each_file_and_the_total(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(SOURCE)
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
        (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
        single = tmp_path / "c.py"
        single.write_text("z = 3  # comment\n")
        assert loc.main([str(tmp_path / "pkg"), str(single)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split() for line in lines] == [
            ["7", str(tmp_path / "pkg" / "a.py")],
            ["2", str(tmp_path / "pkg" / "b.py")],
            ["1", str(single)],
            ["10", "total"],
        ]
