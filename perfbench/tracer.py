"""Spans recorded from outside the package, by wrapping its public functions.

`Tracer.install()` swaps every wrapped function for a timing closure in
each loaded `vitrecipe.*` module that holds a reference to it, so calls the
package makes internally (``nm.matmul`` inside ``model.forward``) are seen
too. `uninstall()` puts the originals back. The benchmark toggles the two
per unit of work, so one traced run holds traced and untraced units side by
side and the gap between their medians is the tracing overhead.

Spans stay in memory as ``[name, start, end, parent, unit]`` lists and are
written out once, by `write`, when the run ends.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np
import vitrecipe

NUMERICS_OPS = (
    "add mul neg scale matmul reshape transpose narrow concat expand_batch "
    "tensor_sum layernorm softmax log_softmax gelu log_sigmoid drop_path_scale"
).split()
AUGMENT_OPS = (
    "random_resized_crop", "grayscale", "solarize", "gaussian_blur", "color_jitter", "hflip",
)

# (module, function) -> span name, for every function wrapped generically
_PLAIN = {
    ("optim", "bce_loss"): "optim.loss",
    ("optim", "ce_smoothed_loss"): "optim.loss",
    ("optim", "grad_clip_global_norm"): "optim.grad_clip",
    ("optim", "lamb_step"): "optim.lamb_step",
    ("training", "evaluate"): "training.evaluate",
    ("training", "augment_train_sample"): "training.augment_train_sample",
    ("augment", "eval_preprocess"): "augment.eval_preprocess",
    ("augment", "mix_dispatch"): "augment.mix",
    ("augment", "mixup"): "augment.mix",
    ("augment", "cutmix"): "augment.mix",
    ("data", "load_image"): "data.load_image",
    ("data", "normalize"): "data.normalize",
    ("checkpoint", "load_checkpoint"): "checkpoint.load",
}
_PLAIN.update({("augment", op): f"augment.{op}" for op in AUGMENT_OPS})

now = time.perf_counter


def _closure_arrays(fn):
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # cell not yet bound
            continue
        if isinstance(value, np.ndarray):
            yield value


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_stats(out):
    """(nodes, bytes) held by the tape behind `out`: every non-leaf tensor's
    values plus the arrays its backward closure keeps alive. Parameters and
    inputs are leaves and do not count."""
    seen, stack, arrays, nodes = set(), [out], {}, 0
    while stack:
        t = stack.pop()
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        nodes += 1
        for arr in (t.data, *_closure_arrays(getattr(t.node.grad_fn, "inner", t.node.grad_fn))):
            root = _root(arr)
            arrays[id(root)] = root.nbytes
        stack.extend(inp for inp in t.node.inputs if inp.requires_grad)
    return nodes, sum(arrays.values())


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.unit = None  # index of the unit being traced; None during set-up
        self.forwards = []  # (unit, macs, expected_macs, tape_nodes, tape_bytes)
        self.backwards = []  # (unit, tape_nodes)
        self.ckpt_bytes = 0
        self.step_start = None  # set at each training step's start; ends data wait
        self._macs = None
        self._patches = []
        nm, mdl, ckpt = vitrecipe.numerics, vitrecipe.model, vitrecipe.checkpoint
        wrappers = {getattr(nm, op): self._op(getattr(nm, op), op) for op in NUMERICS_OPS}
        wrappers[nm.backward] = self._backward(nm.backward)
        wrappers[mdl.forward] = self._forward(mdl.forward)
        wrappers[ckpt.save_checkpoint] = self._save(ckpt.save_checkpoint)
        for (mod, fn_name), span in _PLAIN.items():
            fn = getattr(getattr(vitrecipe, mod), fn_name)
            wrappers[fn] = self._plain(fn, span)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "vitrecipe"]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patches.append((mod, key, value, wrappers[value]))

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    # -- spans -------------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, now(), 0.0, parent, self.unit])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = now()
        self.stack.pop()

    def _plain(self, fn, name):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _op(self, fn, op):
        fwd, bwd = f"numerics.{op}", f"numerics.{op}.bwd"

        def wrapper(*args, **kwargs):
            idx = self.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if op == "matmul" and self._macs is not None:
                a, b = args[0].shape, args[1].shape
                self._macs += int(np.prod(a[:-1], dtype=np.int64)) * a[-1] * b[-1]
            if out.node is not None:
                out.node.grad_fn = self._grad(out.node.grad_fn, bwd)
            return out

        return wrapper

    def _grad(self, grad_fn, name):
        def timed(g):
            idx = self.open(name)
            try:
                return grad_fn(g)
            finally:
                self.close(idx)

        timed.inner = grad_fn
        return timed

    def _backward(self, fn):
        def wrapper(loss):
            self.backwards.append((self.unit, tape_stats(loss)[0]))
            idx = self.open("numerics.backward")
            try:
                return fn(loss)
            finally:
                self.close(idx)

        return wrapper

    def _forward(self, fn):
        def wrapper(config, params, images, mode="eval", rng=None):
            idx = self.open(f"model.forward_{mode}")
            if mode == "train" and self.step_start is not None:
                wait = ["training.data_wait", self.step_start, self.spans[idx][1], None, self.unit]
                self.spans.append(wait)
                self.step_start = None
            self._macs = 0
            try:
                out = fn(config, params, images, mode=mode, rng=rng)
            finally:
                self.close(idx)
                macs, self._macs = self._macs, None
            expected = vitrecipe.model.count_flops(config, config.image_size) * images.shape[0]
            self.forwards.append((self.unit, macs, expected, *tape_stats(out)))
            return out

        return wrapper

    def _save(self, fn):
        def wrapper(path, *args, **kwargs):
            idx = self.open("checkpoint.save")
            try:
                fn(path, *args, **kwargs)
            finally:
                self.close(idx)
            self.ckpt_bytes = os.path.getsize(path)

        return wrapper

    # -- results ---------------------------------------------------------------------

    def summary(self, traced: dict, untraced: list, items: int, phases: set):
        """Per-layer metrics over the traced units, and the failed checks.

        `traced` maps each traced unit to its wall seconds, `untraced` lists
        the wall seconds of the units run with the wrappers removed, and
        `items` is what the per-unit figures are divided by (steps, batches
        or samples in the traced units). `phases` are the span names whose
        outermost occurrences must cover 90% of the traced wall time.
        """
        total, calls, ckpt_total, ckpt_calls = {}, {}, {}, {}
        child_time = [0.0] * len(self.spans)
        in_phase = [False] * len(self.spans)
        covered = 0.0
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            dur = end - start
            if parent is not None:
                child_time[parent] += dur
                in_phase[i] = in_phase[parent] or self.spans[parent][0] in phases
            if name.startswith("checkpoint."):  # per call, set-up included
                ckpt_total[name] = ckpt_total.get(name, 0.0) + dur
                ckpt_calls[name] = ckpt_calls.get(name, 0) + 1
            if unit not in traced:
                continue
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name in phases and not in_phase[i]:
                covered += dur
        backward_self = sum(
            end - start - child_time[i]
            for i, (name, start, end, _, unit) in enumerate(self.spans)
            if name == "numerics.backward" and unit in traced
        )

        m = {}

        def per_item_ms(name):
            return 1e3 * total.get(name, 0.0) / items

        for op in NUMERICS_OPS:
            m[f"numerics.{op}.fwd_ms"] = (per_item_ms(f"numerics.{op}"), "ms")
            m[f"numerics.{op}.bwd_ms"] = (per_item_ms(f"numerics.{op}.bwd"), "ms")
            m[f"numerics.{op}.calls"] = (calls.get(f"numerics.{op}", 0) / items, "count")
        m["numerics.backward_ms"] = (per_item_ms("numerics.backward"), "ms")
        m["numerics.backward_self_ms"] = (1e3 * backward_self / items, "ms")
        nodes = [n for unit, n in self.backwards if unit in traced]
        m["numerics.tape_nodes"] = (sum(nodes) / items, "count")
        fwds = [f for f in self.forwards if f[0] in traced]
        tape = [f[4] for f in fwds]
        m["numerics.tape_mib"] = (sum(tape) / len(tape) / 2**20 if tape else 0.0, "MiB")
        macs = sum(f[1] for f in fwds)
        matmul_s = total.get("numerics.matmul", 0.0)
        m["numerics.matmul_gmacs"] = (macs / items / 1e9, "GMAC")
        m["numerics.matmul_gmacs_per_s"] = (macs / matmul_s / 1e9 if matmul_s else 0.0, "GMAC/s")
        for name in ("model.forward_train", "model.forward_eval", "training.data_wait",
                     "training.evaluate"):
            m[f"{name}_ms"] = (per_item_ms(name), "ms")
        for op in AUGMENT_OPS:
            m[f"augment.{op}_ms"] = (per_item_ms(f"augment.{op}"), "ms")
            m[f"augment.{op}.calls"] = (calls.get(f"augment.{op}", 0) / items, "count")
        m["augment.mix_ms"] = (per_item_ms("augment.mix"), "ms")
        m["augment.eval_preprocess_ms"] = (per_item_ms("augment.eval_preprocess"), "ms")
        m["data.load_image_ms"] = (per_item_ms("data.load_image"), "ms")
        m["data.load_image_calls"] = (calls.get("data.load_image", 0) / items, "count")
        m["data.normalize_ms"] = (per_item_ms("data.normalize"), "ms")
        for name in ("optim.loss", "optim.grad_clip", "optim.lamb_step"):
            m[f"{name}_ms"] = (per_item_ms(name), "ms")
        for name in ("checkpoint.save", "checkpoint.load"):
            n = ckpt_calls.get(name, 0)
            m[f"{name}_ms"] = (1e3 * ckpt_total.get(name, 0.0) / n if n else 0.0, "ms")
        m["checkpoint.mib"] = (self.ckpt_bytes / 2**20, "MiB")

        wall = sum(traced.values())
        traced_ms = 1e3 * statistics.median(list(traced.values()))
        untraced_ms = 1e3 * statistics.median(untraced)
        m["trace.coverage_pct"] = (100.0 * covered / wall, "%")
        m["trace.traced_unit_ms"] = (traced_ms, "ms")
        m["trace.untraced_unit_ms"] = (untraced_ms, "ms")
        m["trace.overhead_pct"] = (100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")

        failures = []
        if covered < 0.9 * wall:
            failures.append(
                f"spans cover {100 * covered / wall:.1f}% of the traced wall time, below 90%"
            )
        bad = [f for f in self.forwards if f[1] != f[2]]
        if bad:
            failures.append(
                f"{len(bad)} of {len(self.forwards)} forwards: matmuls did {bad[0][1]} MACs, "
                f"count_flops x batch is {bad[0][2]}"
            )
        return m, failures

    # -- output --------------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as TSV: name, start and end in microseconds from the first
        span, the parent span's row index, and the unit index."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_us\tend_us\tparent\tunit\n")
            for name, start, end, parent, unit in self.spans:
                f.write(
                    f"{name}\t{(start - base) * 1e6:.1f}\t{(end - base) * 1e6:.1f}\t"
                    f"{'' if parent is None else parent}\t{'' if unit is None else unit}\n"
                )
