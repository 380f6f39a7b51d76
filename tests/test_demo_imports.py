"""Every demo imports names that exist and runs to the end.

The demos are scripts that nothing else runs, so a deleted or renamed
public name, or a changed signature, would break them silently.  Each one's
imports are read from the source, and each one is run in a fresh
interpreter from an empty working directory (the demos only print).
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
