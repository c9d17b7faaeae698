"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each line is marked with whether it counts.
_FIXTURE = [
    ('"""Module docstring,', False),
    ('over two lines."""', False),
    ("", False),
    ("import os  # a trailing comment", True),
    ("# a comment line", False),
    ("", False),
    ("", False),
    ("class K:", True),
    ('    """Class docstring."""', False),
    ("", False),
    ("    def f(self):", True),
    ("        '''Method docstring.", False),
    ("", False),
    ("        Still the docstring.'''", False),
    ('        text = """a string', True),
    ("", True),
    ('continued over lines"""', True),
    ('        "not a docstring"', True),
    ("        return (text,", True),
    ("", False),
    ("                os.sep)", True),
]


def test_counts_code_lines_only():
    source = "\n".join(line for line, _ in _FIXTURE) + "\n"
    assert code_lines.code_lines(source) == sum(counts for _, counts in _FIXTURE)


def test_counts_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n\ny = 2\n')
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n")
    assert code_lines.count(tmp_path) == [("a.py", 2, 4), ("pkg/b.py", 0, 1)]
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2      4 a.py", "     0      1 pkg/b.py", "     2      5 total"]
