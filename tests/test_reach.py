"""Static check that no definition in ``src/slmforge`` exists only for tests.

Every top-level function and class, and every method whose name is not a
dunder, must have its name referenced somewhere in ``src/`` outside its own
definition, or in ``demos/`` or ``bench/``. References are read from the
AST: names, attribute accesses and imported names. A definition that only
the tests reach belongs in ``tests/``; the one other way to pass is an
entry in ``KEPT`` with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# "module.name" or "module.Class.method" -> why it stays without a reference
KEPT = {
    "cli._Parser.error": "argparse calls it by name to report a usage error (exit 1)",
}


def _references(tree):
    """Counter of every name ``tree`` reads, as a name, an attribute or an
    imported name."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
    return refs


def _definitions(tree, module):
    """(qualified name, bare name, node) of each top-level function and
    class and each non-dunder method in ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _trees(*dirs):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def test_every_src_definition_is_reached_from_src_demos_or_bench():
    src = _trees("src")
    assert src, "no source files found"
    refs = Counter()
    for tree in [*src.values(), *_trees("demos", "bench").values()]:
        refs += _references(tree)
    defined = set()
    unreached = []
    for path, tree in src.items():
        for qualname, name, node in _definitions(tree, path.stem):
            defined.add(qualname)
            if refs[name] - _references(node)[name] <= 0 and qualname not in KEPT:
                unreached.append(qualname)
    assert not unreached, f"definitions reached only from tests (or not at all): {unreached}"
    assert set(KEPT) <= defined, "a KEPT entry names no definition"


def test_only_nn_fit_runs_backward_or_steps_an_optimizer():
    """``.backward(`` and ``.step(`` are called in ``src/slmforge`` only
    inside ``nn.fit``, the one training loop: a trainer yields its batches
    to ``fit`` and runs no loop of its own."""
    inside, outside = [], []
    for path, tree in _trees("src").items():
        fits = [node for node in tree.body
                if path.stem == "nn" and isinstance(node, ast.FunctionDef) and node.name == "fit"]
        in_fit = {id(node) for fit in fits for node in ast.walk(fit)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("backward", "step")):
                where = f"{path.stem}.py:{node.lineno} .{node.func.attr}("
                (inside if id(node) in in_fit else outside).append(where)
    assert not outside, f"called outside nn.fit: {outside}"
    assert len(inside) == 2, f"nn.fit should call .backward( and .step( once each: {inside}"


# settable values in src/slmforge by the count below; lower it when a change
# removes some, so that none comes back unnoticed
SETTABLE_VALUES = 548


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_settable_values_do_not_exceed_the_recorded_count():
    """Dataclass fields, function and lambda parameters other than self and
    cls, ``--`` flags and ``cli.CONFIG_KEYS`` entries: the AST count that
    the ``settable_values_ast_count`` of the ``BENCH_*.json`` records holds."""
    from slmforge.cli import CONFIG_KEYS

    fields = params = flags = 0
    for tree in _trees("src").values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(item, ast.AnnAssign) for item in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                         a.vararg, a.kwarg] if x]
                params += sum(name not in ("self", "cls") for name in names)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                flags += sum(isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
                             for arg in node.args)
    keys = sum(map(len, CONFIG_KEYS.values()))
    count = fields + params + flags + keys
    assert count <= SETTABLE_VALUES, (
        f"{fields} + {params} + {flags} + {keys} = {count} settable values, "
        f"more than {SETTABLE_VALUES}")
