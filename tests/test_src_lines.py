"""The line counter (tools/src_lines.py) on a fixture module."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_counter():
    spec = importlib.util.spec_from_file_location(
        "src_lines", REPO_ROOT / "tools" / "src_lines.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("src_lines", module)
    spec.loader.exec_module(module)
    return module


#: 19 raw lines, 8 of them code: the import, class, def and return
#: lines, and the four lines of the ``TEMPLATE`` string.
FIXTURE = '''\
"""Module docstring,
over two lines."""

import os


class Thing:
    """Class docstring."""

    # a comment line
    def method(self):
        """Method docstring."""
        return os.sep  # a trailing comment


TEMPLATE = """
not a docstring: these
three lines are code
"""
'''


def test_counts_raw_and_code_lines_of_a_fixture_module():
    counter = _load_counter()
    assert counter.count_source(FIXTURE) == (19, 8)


def test_one_line_def_with_docstring_keeps_its_code_line():
    counter = _load_counter()
    assert counter.count_source('def f():\n    """Doc."""; return 1\n') == (2, 2)
    assert counter.count_source('def f(): """Doc."""\n') == (1, 1)


def test_tree_totals_sum_the_modules(tmp_path, monkeypatch, capsys):
    counter = _load_counter()
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "a.py").write_text(FIXTURE)
    (src / "b.py").write_text("x = 1\n\n# note\n")
    (src / "notes.txt").write_text("ignored\n")
    (tmp_path / "outside.py").write_text("y = 2\n")
    monkeypatch.setattr(counter, "REPO_ROOT", tmp_path)
    assert counter.count_tree() == (2, 22, 9)
    assert counter.main([]) == 0
    assert capsys.readouterr().out.split() == [
        "files", "2", "raw", "22", "code", "9",
    ]
