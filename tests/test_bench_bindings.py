"""The benchmark's trace bindings name functions the package still has.

``perfbench/tracing.py`` fetches every name in its ``TARGETS`` table from
the ``mcduality`` module of its layer (``Class.method`` from the class's
own ``__dict__``), so a deleted or renamed one breaks every traced
benchmark run.  The table is read from the source without importing the
benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


TARGETS = _targets()


@pytest.mark.parametrize("layer, names", sorted(TARGETS.items()),
                         ids=sorted(TARGETS))
def test_trace_targets_resolve(layer, names):
    home = importlib.import_module(f"mcduality.{layer}")
    for name in names:
        owner, _, attr = name.rpartition(".")
        if owner:
            assert attr in vars(getattr(home, owner)), f"{layer}.{name}"
        else:
            assert callable(getattr(home, attr, None)), f"{layer}.{name}"
