"""Spans around the public functions the attnpaths modules call, and the arithmetic on them.

A span records a name, start, end and the index of the span that was open when
it started (its parent).  Spans are kept in memory and written out once, when
the traced command ends.  A layer's self time is its span durations minus the
durations of their direct children, so the self times of all spans add up to
the time covered by the top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

# (module where callers look the function up, attribute, span name).  The CLI
# imports most stages by name, and library functions call each other through
# their own module globals, so each lookup site the CLI's commands reach is
# wrapped.  `paths` is only reached through analysis.head_scores and is timed
# inside it.
WRAPPED = [
    ("attnpaths.cli", "gen_hmc_dataset", "data.gen_hmc_dataset"),
    ("attnpaths.cli", "build_hmc_attention", "data.build_hmc_attention"),
    ("attnpaths.cli", "compute_features", "kernel.compute_features"),
    ("attnpaths.cli", "total_kernel", "kernel.total_kernel"),
    ("attnpaths.cli", "kernel_task_alignment", "kernel.kernel_task_alignment"),
    ("attnpaths.cli", "solve_saddle", "solver.solve_saddle"),
    ("attnpaths.cli", "evaluate_predictor", "predictor.evaluate_predictor"),
    ("attnpaths.cli", "head_scores", "analysis.head_scores"),
    ("attnpaths.cli", "hmc_sample", "sampler.hmc_sample"),
    ("attnpaths.cli", "empirical_order_parameter", "sampler.empirical_order_parameter"),
    ("attnpaths.cli", "empirical_predictor", "sampler.empirical_predictor"),
    ("attnpaths.kernel", "attention_stack_batch", "model.attention_stack_batch"),
    ("attnpaths.kernel", "total_kernel", "kernel.total_kernel"),
    ("attnpaths.solver", "total_kernel", "kernel.total_kernel"),
    ("attnpaths.predictor", "kernel_blocks", "kernel.kernel_blocks"),
    ("attnpaths.predictor", "predictor_mean", "predictor.predictor_mean"),
    ("attnpaths.predictor", "predictor_variance", "predictor.predictor_variance"),
    ("attnpaths.sampler", "attention_stack_batch", "model.attention_stack_batch"),
    ("attnpaths.sampler", "log_posterior", "sampler.log_posterior"),
]

# Called once per HMC proposal; its arithmetic is the loop's own overhead, so
# it is counted but not given a span of its own.
COUNTED = [("attnpaths.sampler", "leapfrog", "sampler.leapfrog")]

def total_kernel_flops(n_paths: int, width: int, n_examples: int) -> float:
    """Floating-point operations of total_kernel, computed from its shapes.

    The lift U @ Phi costs 2 A^2 W M and the contraction Phi^T (U Phi) costs
    2 A W M^2, for A paths, width W and M examples.
    """
    return 2.0 * n_paths * width * n_examples * (n_paths + n_examples)


def kernel_blocks_entries(n_train: int, n_eval: int, n_examples: int) -> tuple[int, int]:
    """(entries kernel_blocks returns, entries it computes).

    It builds the full n_examples^2 kernel and returns the P x P train block,
    the E x P cross block and the E eval diagonal entries.
    """
    return n_train * n_train + n_eval * n_train + n_eval, n_examples * n_examples


def _attrs(name: str, call: dict, result) -> dict:
    """Work counts for one call, read from its bound arguments and its result."""
    if name == "kernel.total_kernel":
        return {"flops": total_kernel_flops(*call["features"].values.shape)}
    if name == "kernel.kernel_blocks":
        features = call["features"]
        useful, computed = kernel_blocks_entries(features.n_train, len(call["eval_idx"]),
                                                 features.n_examples)
        return {"useful": useful, "computed": computed}
    if name in ("kernel.compute_features", "model.attention_stack_batch"):
        return {"examples": int(call["tokens"].shape[0])}
    if name == "solver.solve_saddle":
        trace = result[1]
        return {"iters": int(trace.n_iter), "converged": bool(trace.converged)}
    return {}


WITH_WORK_COUNTS = ("kernel.total_kernel", "kernel.kernel_blocks", "kernel.compute_features",
                    "model.attention_stack_batch", "solver.solve_saddle")


class Tracer:
    """Records spans and call counts around wrapped functions, in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": stack[-1] if stack else None, "attrs": {}}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in WITH_WORK_COUNTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if signature is not None:
                span["attrs"] = _attrs(name, signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def wrap_file(self, name: str, fn):
        """A fileio reader or writer; bytes are the size of the file it touched.

        Writers call other writers (write_u1_csv calls write_csv), so only the
        outermost fileio span carries bytes."""
        @functools.wraps(fn)
        def traced(path, *args, **kwargs):
            stack = self._stack()
            outer = not any(self.spans[i]["name"].startswith("fileio.") for i in stack)
            span = self.open(name)
            try:
                result = fn(path, *args, **kwargs)
            finally:
                self.close(span)
            if outer:
                span["attrs"] = {"bytes": os.path.getsize(path)}
            return result
        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Replace every traced function in the attnpaths module namespaces."""
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        for module_name, attr, name in COUNTED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.count(name, getattr(module, attr)))
        fileio = importlib.import_module("attnpaths.fileio")
        for attr in sorted(vars(fileio)):
            if attr.startswith("read_"):
                setattr(fileio, attr, self.wrap_file("fileio.read", getattr(fileio, attr)))
            elif attr.startswith("write_"):
                setattr(fileio, attr, self.wrap_file("fileio.write", getattr(fileio, attr)))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def top_level_time(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def has_ancestor(spans: list[dict], index: int, name: str) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False
