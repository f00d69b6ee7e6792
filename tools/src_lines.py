#!/usr/bin/env python3
"""Count the Python lines under ``src/``: raw, and code only.

Usage::

    python tools/src_lines.py              # the working tree
    python tools/src_lines.py HEAD~1       # any git revision

*Raw* lines are every line of every ``.py`` file. *Code* lines are the
lines that carry at least one token other than a comment, a blank or a
docstring (a string literal that is the first statement of a module,
class or function). Run it on the parent and the change to reproduce
a change's ``src/`` delta both ways. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Iterable, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Token types that never make a line count as code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) source positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            doc = body[0].value
            spans.append(
                ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
            )
    return spans


def count_source(text: str) -> tuple[int, int]:
    """``(raw, code)`` line counts of one module's source text."""
    raw = len(text.splitlines())
    spans = _docstring_spans(ast.parse(text))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and any(
            start <= token.start and token.end <= end for start, end in spans
        ):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return raw, len(code)


def _tree_sources(root: Path) -> Iterable[str]:
    for path in sorted(root.rglob("*.py")):
        yield path.read_text(encoding="utf-8")


def _revision_sources(rev: str) -> Iterable[str]:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args],
            check=True,
            capture_output=True,
            text=True,
        ).stdout

    for name in git("ls-tree", "-r", "--name-only", rev, "--", "src").splitlines():
        if name.endswith(".py"):
            yield git("show", f"{rev}:{name}")


def count_tree(rev: Optional[str] = None) -> tuple[int, int, int]:
    """``(files, raw, code)`` over ``src/`` at ``rev`` (``None`` = the
    working tree)."""
    if rev is None:
        sources = _tree_sources(REPO_ROOT / "src")
    else:
        sources = _revision_sources(rev)
    files = raw = code = 0
    for text in sources:
        r, c = count_source(text)
        files += 1
        raw += r
        code += c
    return files, raw, code


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision (default: working tree)")
    args = parser.parse_args(argv)
    files, raw, code = count_tree(args.rev)
    print(f"files {files}")
    print(f"raw   {raw}")
    print(f"code  {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
