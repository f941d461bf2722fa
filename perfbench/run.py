"""Benchmark of the vitrecipe package, driven from outside through its public
functions.

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one caller):
  toy-train      training.train on the acceptance toy, per-epoch eval on
  eval-vit-t-96  training.evaluate of a random-init ViT-T at 96 px
  augment-224    the in1k train-time augmentation path at 224 px, no model

With --trace 0 the run prints the end-to-end metrics: images_per_s and
unit_ms_p50 (per step, batch or sample), setup_s and peak_rss_mib. The
times of the timed phase are scaled to a reference machine speed, measured
by a fixed calibration workload run between units of work (see
workloads.calibrate); the unscaled figures and the calibration readings are
printed above the result line.
With --trace 1 it wraps the package's public functions (see tracer.py),
alternates traced and untraced units, and prints per-layer metrics per step
(toy-train), per batch (eval-vit-t-96) or per sample (augment-224), plus the
tracing overhead. Spans are written to perfbench/_work/spans-<workload>.tsv.

The package is imported from src/ of the checkout this file sits in. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when an output check
failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = BENCH_DIR / "_work"  # scratch space and records kept between runs
SETUP_REPEATS = 3  # setup_s takes the median of these set-ups; the first runs cold
# One BLAS thread: on 2 cores it ran as fast as two in interleaved runs, and
# much steadier on augment-224, whose small matrix-vector products otherwise
# wake a second thread that competes with the interpreter's own thread.
BLAS_THREADS = "1"


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (ROOT / "src" / "vitrecipe").glob("*.py")
    )


def end_to_end(workload, setup_s: float, reference_s: float) -> dict:
    """The gated metrics. The timed phase is scaled to the reference
    calibration speed, and its raw figures go to the report under the
    workload's own names; setup_s is wall time."""

    def seconds(pairs, scaled):
        return [s * (reference_s / workload.unit_cal(u) if scaled else 1.0) for s, u in pairs]

    def rate(pairs, scaled):
        return workload.images / sum(seconds(pairs, scaled))

    def p50_ms(pairs, scaled):
        return 1e3 * statistics.median(seconds(pairs, scaled))

    if not workload.blocks:  # nothing ran; the failure is already recorded
        return {}
    rate_name, p50_name = workload.names
    workload.report[rate_name] = (rate(workload.blocks, False), "1/s")
    workload.report[p50_name] = (p50_ms(workload.latencies, False), "ms")
    return {
        "images_per_s": (rate(workload.blocks, True), "1/s"),
        "unit_ms_p50": (p50_ms(workload.latencies, True), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (workload.peak_rss, "MiB"),
    }


def per_layer(tracer, workload) -> dict:
    """Per-layer metrics; a failed tracer check fails the workload."""
    if not (workload.traced and workload.untraced):
        workload.fail(workload.attempted, "the traced run needs a traced and an untraced unit")
        return {}
    items = len(workload.traced) * workload.items_per_unit
    metrics, failures = tracer.summary(workload.traced, workload.untraced, items, workload.phases)
    for message in failures:
        workload.fail(workload.attempted, message)
    if tracer.forwards:
        workload.info.append(
            f"matmul MACs {sum(f[1] for f in tracer.forwards)} over {len(tracer.forwards)} "
            f"forwards, count_flops x batch {sum(f[2] for f in tracer.forwards)}"
        )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("toy-train", "eval-vit-t-96", "augment-224"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vitrecipe" / "__init__.py").is_file():
        print(f"error: no vitrecipe package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    import numpy
    import scipy
    import vitrecipe
    from tracer import Tracer
    from workloads import REFERENCE_S, WORKLOADS

    if Path(vitrecipe.__file__).resolve().parent != ROOT / "src" / "vitrecipe":
        print(f"error: imported vitrecipe from {vitrecipe.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    STATE_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, work, STATE_DIR)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()  # set-up spans: checkpoint round trip, warm pass
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        workload.measure(tracer)
        workload.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(workload, import_s + statistics.median(setup_s), REFERENCE_S)
    else:
        metrics = per_layer(tracer, workload)
        tracer.write(STATE_DIR / f"spans-{args.workload}.tsv")

    error_rate = workload.failed / workload.attempted if workload.attempted else 1.0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} "
          f"blas_threads {BLAS_THREADS} numpy {numpy.__version__} scipy {scipy.__version__} "
          f"src_lines {src_lines()}")
    print(f"setup runs (s, imports {import_s:.3f} excluded): "
          + " ".join(f"{s:.3f}" for s in setup_s))
    if len(workload.calibrations) >= 2:
        q1, q2, q3 = statistics.quantiles(workload.calibrations, n=4)
        print(f"calibration: median {1e3 * q2:.3f} ms, IQR/median {(q3 - q1) / q2:.3f}, "
              f"{len(workload.calibrations)} readings")
    for line in workload.info:
        print(line)
    for line in workload.errors:
        print(f"CHECK FAILED: {line}")
    print(f"error_rate {error_rate} ({workload.failed} of {workload.attempted} units)")
    for name, (value, unit) in sorted(workload.report.items()):
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    correct = not workload.errors and workload.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(workload.attempted, 1),
        "failed": workload.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
