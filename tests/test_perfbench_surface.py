"""The benchmark in perfbench/ drives the package through its public names.

Importing its workloads and building its tracer looks up every function the
tracer wraps (the constructor installs nothing), so a rename or deletion that
would break `perfbench/run.py` fails here first."""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_imports_and_builds_its_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    tracer.Tracer()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}
