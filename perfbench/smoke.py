"""Quick-size smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload untraced and traced, with a shrunken toy dataset and a
one-second budget, and checks each result line against the metric lists in
BENCHMARK.json. Then checks that run.py exits non-zero, printing no result,
in a directory holding only BENCHMARK.json and perfbench/. Exits non-zero
on the first failure. Takes about a minute on 2 cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    workloads.ToyTrain.per_class = 16  # 2 steps per epoch instead of 11
    with tempfile.TemporaryDirectory() as tmp:
        run.STATE_DIR = Path(tmp)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1",
                                     "--trace", str(trace)])
                result = json.loads(out.getvalue().splitlines()[-1])
                label = f"{workload} --trace {trace}"
                expect(code == 0 and result["correct"], f"{label} failed:\n{out.getvalue()}")
                expect(result["failed"] == 0 and result["attempted"] >= 1, f"{label}: counts")
                expect(set(result["metrics"]) == declared[trace], f"{label}: metric names")
                if trace == 0:
                    expect(all(m["value"] > 0 for m in result["metrics"].values()),
                           f"{label}: an end-to-end metric is not positive")
                print(f"smoke: {label} ok, {result['attempted']} units")

        bare = Path(tmp) / "bare"
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "toy-train", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               "run.py without the package must fail without a result")
        print("smoke: run.py without the package fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
