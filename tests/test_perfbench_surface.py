"""The benchmark in perfbench/ drives the package through its public names.

Importing its workloads and building its tracer looks up every function the
tracer wraps (the constructor installs nothing), so a rename or deletion that
would break `perfbench/run.py` fails here first. The static tests read the
sources instead, so they also see the names and keywords that only a
workload's set-up or measured loop would reach."""

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


def _perfbench_nodes():
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield f"{path.name}:{getattr(node, 'lineno', '?')}", node


def _package_target(node):
    """(module, name) for `alias.name` or `vitrecipe.module.name`; else None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
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


def _accepted_keywords(call):
    """(what is called, the keywords it accepts) for a call into the package,
    or for `replace(<call into the package>, ...)`; None for any other call."""
    if isinstance(call.func, ast.Name) and call.func.id == "replace":
        inner = _package_target(call.args[0].func) if isinstance(call.args[0], ast.Call) else None
        assert inner, f"replace() of an argument whose type the test cannot tell: {ast.dump(call)}"
        made = typing.get_type_hints(_lookup(*inner))["return"]
        return f"replace({inner[1]}(...))", {f.name for f in dataclasses.fields(made)}
    target = _package_target(call.func)
    called = _lookup(*target) if target else None
    if called is None:
        return None
    params = inspect.signature(called).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return target[1], {p.name for p in params}


def test_every_keyword_perfbench_passes_is_a_parameter_or_field():
    unknown, checked = [], set()
    for where, node in _perfbench_nodes():
        if not isinstance(node, ast.Call):
            continue
        accepted = _accepted_keywords(node)
        if accepted is None:
            continue
        called, names = accepted
        checked.add(called)
        unknown += [f"{where}: {called} got {k.arg}=" for k in node.keywords
                    if k.arg is not None and k.arg not in names]
    assert not unknown, unknown
    assert checked >= {
        "replace(preset(...))", "replace(preset_config(...))", "ViTConfig", "preset_config",
        "SynthSpec",
    }
