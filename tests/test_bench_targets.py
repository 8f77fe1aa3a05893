"""The benchmark's traced and tapped functions and its command surface still
exist in the package.

``bench/run.py`` names functions as ``(module, qualname)`` string pairs in
``SPAN_TARGETS`` and in ``install_loss_taps``; a deleted or renamed one
would only fail at ``--trace 1``. Its command lists pass flags to the
subcommands, and ``TrainSpec.configs`` in ``bench/inputs.py`` writes the
``--config`` files they read; a dropped flag or config key would fail every
benchmark run. Both files are parsed, not run.
"""

import argparse
import ast
import importlib
from pathlib import Path

import pytest

from slmforge.cli import CONFIG_KEYS, build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"
RUN_PY = BENCH / "run.py"
INPUTS_PY = BENCH / "inputs.py"


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


SUBPARSERS = next(action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)).choices


def _literals(node):
    """The string-literal items of a list node, in order."""
    return [item.value for item in node.elts
            if isinstance(item, ast.Constant) and isinstance(item.value, str)]


def bench_commands():
    """String items of every command list in ``bench/run.py``: a list literal
    that starts with a subcommand, or a name bound to one plus a list."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    bound = {node.targets[0].id: node.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
             and isinstance(node.targets[0], ast.Name)}
    commands = []
    for node in ast.walk(tree):
        if isinstance(node, ast.List):
            items = _literals(node)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
              and getattr(node.left, "id", None) in bound and isinstance(node.right, ast.List)):
            items = _literals(bound[node.left.id]) + _literals(node.right)
        else:
            continue
        if items and items[0] in SUBPARSERS:
            commands.append(items)
    return commands


def bench_configs():
    """{file name: keys} of the config files ``TrainSpec.configs`` writes."""
    tree = ast.parse(INPUTS_PY.read_text(encoding="utf-8"))
    spec = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "TrainSpec")
    method = next(node for node in spec.body
                  if isinstance(node, ast.FunctionDef) and node.name == "configs")
    returned = next(node for node in ast.walk(method) if isinstance(node, ast.Return)).value
    return {ast.literal_eval(name): [ast.literal_eval(key) for key in cfg.keys]
            for name, cfg in zip(returned.keys, returned.values)}


def test_bench_lists_its_commands_and_configs():
    assert {items[0] for items in bench_commands()} == {
        "curate", "pretrain", "finetune-asr", "transcribe", "build-sft", "train-aligner",
        "infer", "eval", "report"}
    assert sorted(bench_configs()) == ["aligner.json", "finetune.json", "pretrain.json"]


@pytest.mark.parametrize("command", sorted({items[0] for items in bench_commands()}))
def test_bench_flags_are_accepted_by_their_subcommand(command):
    accepted = SUBPARSERS[command]._option_string_actions
    for items in bench_commands():
        if items[0] == command:
            dropped = {item for item in items if item.startswith("--")} - set(accepted)
            assert not dropped, f"{command} no longer takes {sorted(dropped)}"


@pytest.mark.parametrize("name", sorted(bench_configs()))
def test_bench_config_keys_are_accepted_by_their_subcommand(name):
    keys = bench_configs()[name]
    readers = {items[0] for items in bench_commands()
               for flag, value in zip(items, items[1:]) if (flag, value) == ("--config", name)}
    assert len(readers) == 1, f"{name} is read by {readers}"
    command = readers.pop()
    assert set(keys) <= set(CONFIG_KEYS[command]), \
        f"{command} no longer accepts {sorted(set(keys) - set(CONFIG_KEYS[command]))}"
