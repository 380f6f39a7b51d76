"""Every name a demo imports from ``mcduality`` still exists.

The demos are scripts that no other test runs, so a deleted or renamed
public name would break them silently.  Each one's imports are read from
the source without running it.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``from mcduality... import name`` and
    ``(module, None)`` for each ``import mcduality...`` in ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "mcduality"):
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "mcduality"]
    return out


def test_demos_found():
    assert DEMOS and all(_imports(path) for path in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    for module, name in _imports(path):
        home = importlib.import_module(module)
        if name is not None:
            assert hasattr(home, name), f"{path.name}: {module}.{name}"
