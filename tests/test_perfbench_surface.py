"""The benchmark in perfbench/ drives the package through its public names.

Importing its workloads and building its tracer looks up every function the
tracer wraps (the constructor installs nothing), so a rename or deletion that
would break `perfbench/run.py` fails here first. The static tests read the
sources instead, so they also see the names, arguments and attributes that
only a workload's set-up, measured loop or check would reach."""

import ast
import dataclasses
import importlib
import inspect
import json
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_imports_and_builds_its_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    tracer.Tracer()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}


# -- static: every name and keyword perfbench/*.py spells, read with `ast` --------------

# the module each alias in perfbench/ stands for
ALIASES = {
    "aug": "augment", "ckpt": "checkpoint", "cfg": "config", "dat": "data", "mdl": "model",
    "nm": "numerics", "opt": "optim", "trn": "training",
}


def _perfbench_trees():
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _perfbench_nodes():
    for name, tree in _perfbench_trees():
        for node in ast.walk(tree):
            yield f"{name}:{getattr(node, 'lineno', '?')}", node


def _imported_names(tree):
    """{name: (module, name)} for each `from vitrecipe.module import name`."""
    return {
        a.asname or a.name: (node.module.split(".", 1)[1], a.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vitrecipe.")
        for a in node.names
    }


def _package_target(node, imported=None):
    """(module, name) for `alias.name`, `vitrecipe.module.name` or a name in
    `imported`; else None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if not chain and imported:
        return imported.get(node.id)
    chain = [node.id] + chain[::-1]
    if len(chain) == 2 and chain[0] in ALIASES:
        return ALIASES[chain[0]], chain[1]
    if len(chain) == 3 and chain[0] == "vitrecipe":
        return chain[1], chain[2]
    return None


def _lookup(module, name):
    """The package object, or None when the module or the name is missing."""
    try:
        return getattr(importlib.import_module(f"vitrecipe.{module}"), name, None)
    except ModuleNotFoundError:
        return None


def test_every_package_name_in_perfbench_exists():
    missing, aliases = [], set()
    for where, node in _perfbench_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "vitrecipe":
            for a in node.names:
                if ALIASES.get(a.asname) != a.name or _lookup(a.name, "__name__") is None:
                    missing.append(f"{where}: from vitrecipe import {a.name} as {a.asname}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vitrecipe."):
            module = node.module.split(".", 1)[1]
            missing += [f"{where}: {node.module}.{a.name}" for a in node.names
                        if _lookup(module, a.name) is None]
        elif isinstance(node, ast.Attribute) and (target := _package_target(node)):
            module, name = target
            aliases.add(node.value.id if isinstance(node.value, ast.Name) else "vitrecipe")
            if _lookup(module, name) is None:
                missing.append(f"{where}: vitrecipe.{module}.{name}")
    assert not missing, missing
    assert aliases >= {"aug", "ckpt", "cfg", "dat", "mdl", "opt", "trn", "nm", "vitrecipe"}


def _returned_class(call, imported):
    """The package class a call into the package returns: the class itself
    when one is called, else its return annotation; None when it is no
    package class or the call is not into the package."""
    if isinstance(call.func, ast.Name) and call.func.id == "replace" and call.args:
        call = call.args[0]
        if not isinstance(call, ast.Call):
            return None
    target = _package_target(call.func, imported)
    called = _lookup(*target) if target else None
    if called is None:
        return None
    made = called if inspect.isclass(called) else typing.get_type_hints(called).get("return")
    return made if inspect.isclass(made) and made.__module__.startswith("vitrecipe.") else None


def _call_signature(call, imported):
    """(what is called, its signature, whether a partial binding is enough)
    for a call into the package, or for `replace(<call into the package>,
    ...)`, whose keywords bind to the dataclass's fields; None for any other
    call."""
    if isinstance(call.func, ast.Name) and call.func.id == "replace":
        made = _returned_class(call, imported)
        assert made, f"replace() of an argument whose type the test cannot tell: {ast.dump(call)}"
        inner = _package_target(call.args[0].func, imported)[1]
        return f"replace({inner}(...))", inspect.signature(made), True
    target = _package_target(call.func, imported)
    called = _lookup(*target) if target else None
    if called is None:
        return None
    return target[1], inspect.signature(called), False


def test_every_package_call_in_perfbench_binds_to_its_signature():
    """Every positional argument and keyword perfbench passes has a
    parameter (a field, for `replace`), and no required parameter is left
    out."""
    unbound, checked = [], set()
    for name, tree in _perfbench_trees():
        imported = _imported_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not (found := _call_signature(node, imported)):
                continue
            called, signature, partial = found
            checked.add(called)
            args = [] if partial else node.args
            assert not any(isinstance(a, ast.Starred) for a in args), ast.dump(node)
            assert all(k.arg is not None for k in node.keywords), ast.dump(node)
            bind = signature.bind_partial if partial else signature.bind
            try:
                bind(*[None] * len(args), **{k.arg: None for k in node.keywords})
            except TypeError as exc:
                unbound.append(f"{name}:{node.lineno}: {called}: {exc}")
    assert not unbound, unbound
    assert checked >= {
        "replace(preset(...))", "replace(preset_config(...))", "ViTConfig", "preset_config",
        "SynthSpec", "train", "evaluate", "augment_train_sample", "Rng", "Tensor", "derive_seed",
    }


def _receiver(node):
    """`name` or `self.name` as a string; None for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return f"self.{node.attr}"
    return None


def _receiver_classes(tree, imported):
    """{`name` or `self.name`: package class} for each one perfbench assigns
    the result of a call into the package, or another such receiver, to.
    A receiver assigned two different classes in one file fails the test."""
    assigns = [(t, node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
               for t in node.targets if _receiver(t)]
    classes = {}
    for _ in range(2):  # the second pass follows copies (`result = self.result`)
        for target, value in assigns:
            made = (_returned_class(value, imported) if isinstance(value, ast.Call)
                    else classes.get(_receiver(value)))
            if made is not None:
                known = classes.setdefault(_receiver(target), made)
                assert known is made, f"{_receiver(target)} is both {known} and {made}"
    return classes


def _has_attribute(cls, name):
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
    return name in fields or hasattr(cls, name)


def test_every_attribute_perfbench_reads_off_a_package_object_exists():
    """`x.attr` where x holds what a call into the package returned, or is
    that call itself: `attr` is a field, method or slot of the returned
    class."""
    missing, checked = [], set()
    for name, tree in _perfbench_trees():
        imported = _imported_names(tree)
        classes = _receiver_classes(tree, imported)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            cls = (_returned_class(value, imported) if isinstance(value, ast.Call)
                   else classes.get(_receiver(value)))
            if cls is None:
                continue
            checked.add(f"{cls.__name__}.{node.attr}")
            if not _has_attribute(cls, node.attr):
                missing.append(f"{name}:{node.lineno}: {cls.__name__}.{node.attr}")
    assert not missing, missing
    assert checked >= {
        "TrainResult.steps", "TrainResult.metrics_path", "TrainResult.checkpoint_path",
        "DatasetManifest.image_path", "DatasetManifest.label", "DatasetManifest.num_classes",
        "RecipeConfig.train_resolution", "RecipeConfig.mixup_alpha",
        "RecipeConfig.cutmix_alpha", "RecipeConfig.three_augment", "ImageU8.pixels",
        "Tensor.data",
    }
