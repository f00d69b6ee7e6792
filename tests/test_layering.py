"""``repro.core`` never imports the protocols at run time.

The engine core (``src/repro/core/``) holds the engines, the kernel
scaffolding and the bank scheduler. Each protocol's ``Process`` and its
bank kernel live together in ``repro.algorithms``, which imports the
core; the builder names the kernel in the spec's lane recipe, so the
core needs no protocol import to find it. An import of
``repro.algorithms`` from the core is allowed only inside an
``if TYPE_CHECKING:`` block, for annotations.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
FORBIDDEN = "repro.algorithms"


def _is_type_checking(test: ast.expr) -> bool:
    """``TYPE_CHECKING`` or ``typing.TYPE_CHECKING``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _imported_modules(node: ast.AST, package: str) -> list[str]:
    """The absolute module names one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        parent = ".".join(parts[: len(parts) - node.level + 1])
        base = f"{parent}.{base}" if base else parent
    # ``from repro import algorithms`` names the package through an alias.
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _runtime_imports(source: str, package: str = "repro.core") -> list[tuple[int, str]]:
    """``(line, module)`` for every import outside ``if TYPE_CHECKING:``.

    Imports inside functions count: a lazy import still runs.
    """
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((node.lineno, name) for name in _imported_modules(node, package))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def _protocol_imports(source: str) -> list[tuple[int, str]]:
    return [
        (line, name)
        for line, name in _runtime_imports(source)
        if name == FORBIDDEN or name.startswith(FORBIDDEN + ".")
    ]


@pytest.mark.parametrize("path", sorted(CORE.glob("*.py")), ids=lambda p: p.name)
def test_core_module_imports_no_protocol(path):
    hits = _protocol_imports(path.read_text(encoding="utf-8"))
    assert hits == [], f"{path.name} imports the protocols at run time: {hits}"


def test_core_modules_found():
    assert {"bankpath.py", "engine.py", "fastpath.py"} <= {
        path.name for path in CORE.glob("*.py")
    }


@pytest.mark.parametrize(
    "source",
    [
        "import repro.algorithms.base\n",
        "from repro import algorithms\n",
        "from ..algorithms.base import AlgorithmSpec\n",
        "def f():\n    from repro.algorithms.base import AlgorithmSpec\n",
    ],
)
def test_checker_flags_runtime_imports(source):
    assert _protocol_imports(source)


@pytest.mark.parametrize(
    "source",
    [
        "if TYPE_CHECKING:\n    from repro.algorithms.base import AlgorithmSpec\n",
        "import typing\nif typing.TYPE_CHECKING:\n    import repro.algorithms\n",
    ],
)
def test_checker_allows_type_checking_imports(source):
    assert _protocol_imports(source) == []
