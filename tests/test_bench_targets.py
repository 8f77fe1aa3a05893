"""The benchmark's traced and tapped functions still exist in the package.

``bench/run.py`` names them as ``(module, qualname)`` string pairs in
``SPAN_TARGETS`` and in ``install_loss_taps``; a deleted or renamed one
would only fail at ``--trace 1``. The file is parsed, not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _string_pairs(tuples):
    """(module, qualname) from tuples whose first two items are string literals."""
    out = []
    for node in tuples:
        assert isinstance(node, ast.Tuple), ast.dump(node)
        module, qualname = node.elts[:2]
        out.append((ast.literal_eval(module), ast.literal_eval(qualname)))
    return out


def bench_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    spans, taps = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "SPAN_TARGETS" for t in node.targets):
            spans = _string_pairs(node.value.elts)
        if isinstance(node, ast.FunctionDef) and node.name == "install_loss_taps":
            loops = [n for n in ast.walk(node) if isinstance(n, ast.For)]
            taps = _string_pairs(loops[0].iter.elts)
    return spans, taps


def test_bench_lists_its_targets():
    spans, taps = bench_targets()
    assert len(spans) >= 30 and len(taps) == 4


@pytest.mark.parametrize("module, qualname", sorted(set(sum(bench_targets(), []))))
def test_bench_target_resolves(module, qualname):
    obj = importlib.import_module(f"slmforge.{module}")
    for part in qualname.split("."):
        assert hasattr(obj, part), f"slmforge.{module}.{qualname} is gone"
        obj = getattr(obj, part)
    assert callable(obj)
