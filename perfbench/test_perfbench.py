"""Tests of the benchmark's own arithmetic and of the names it emits."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import run
from layers import BUSY_METRICS, SPAN_NAMES, layer_metrics
from tracing import Tracer, has_ancestor, self_times, top_level_time, total_kernel_flops

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("solver.solve_saddle", 0.0, 10.0, None),
        _span("kernel.total_kernel", 1.0, 4.0, 0),
        _span("model.attention_stack_batch", 2.0, 3.5, 1),
        _span("kernel.total_kernel", 5.0, 6.0, 0),
        _span("fileio.write", 11.0, 12.5, None),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0, 1.5])
    assert sum(self_times(spans)) == pytest.approx(top_level_time(spans)) == 11.5
    assert has_ancestor(spans, 2, "solver.solve_saddle")
    assert not has_ancestor(spans, 4, "solver.solve_saddle")


def test_layer_metrics_add_up_to_traced_wall():
    tracer = Tracer()
    inner = tracer.wrap("predictor.predictor_mean", lambda: sum(range(1000)))
    outer = tracer.wrap("predictor.evaluate_predictor", lambda: inner() + inner())
    outer()
    outer()
    metrics = layer_metrics([tracer.dump()], traced_wall=1.0)
    own = sum(metrics[f"{name}.s"] for name in SPAN_NAMES)
    assert own + metrics["cli.self_s"] == pytest.approx(1.0, abs=1e-12)
    assert metrics["predictor.predictor_mean.s"] > 0.0
    assert metrics["solver.evals"] == 0 and metrics["solver.eval_ms"] == 0.0


def test_solver_evals_count_total_kernel_under_the_solve():
    tracer = Tracer()
    kernel = tracer.wrap("kernel.total_kernel", lambda u1, features: None)

    class FakeTrace:
        n_iter = 2
        converged = True

    features = type("F", (), {"values": np.zeros((4, 3, 5))})()

    def solve():
        for _ in range(3):
            kernel(np.eye(4), features)
        return None, FakeTrace()

    tracer.wrap("solver.solve_saddle", solve)()
    kernel(np.eye(4), features=features)
    metrics = layer_metrics([tracer.dump()], traced_wall=1.0)
    assert metrics["kernel.total_kernel.calls"] == 4
    assert metrics["solver.evals"] == 3
    assert metrics["solver.iters"] == 2
    assert metrics["solver.warmup_evals"] == 1
    assert metrics["solver.converged"] == 1
    assert metrics["kernel.total_kernel.gflop"] == pytest.approx(4 * total_kernel_flops(4, 3, 5) / 1e9)
    assert total_kernel_flops(4, 3, 5) == 2 * 4 * 3 * 5 * (4 + 5)


@pytest.mark.parametrize("n_train,n_eval", [(5, 3), (100, 3000), (7, 0)])
def test_kernel_blocks_useful_frac(n_train, n_eval):
    from attnpaths.kernel import PathFeatureMatrix, kernel_blocks

    rng = np.random.default_rng(0)
    n_ex = n_train + n_eval
    features = PathFeatureMatrix(values=rng.standard_normal((4, 2, n_ex)), n_train=n_train,
                                 n_heads=2, depth=2)
    tracer = Tracer()
    tracer.wrap("kernel.kernel_blocks", kernel_blocks)(np.eye(4), features,
                                                       np.arange(n_train, n_ex))
    metrics = layer_metrics([tracer.dump()], traced_wall=1.0)
    p, e = n_train, n_eval
    assert metrics["kernel.kernel_blocks.useful_frac"] == pytest.approx(
        (p * p + e * p + e) / (p + e) ** 2)


def test_driver_stays_free_of_numpy():
    """A child's peak RSS includes its parent's peak, so run.py must stay small."""
    probe = "import sys; import run; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], cwd=run.HERE, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _tiny(command):
    config = {"task": {"n_train": 12, "n_test": 8, "chain_length": 6, "feature_width": 8}}
    if command == "sample":
        config["sampler"] = {"n_chains": 1, "n_warmup": 4, "n_samples": 4, "thin": 2,
                             "n_leapfrog": 2}
    return run.Workload(command, config, accuracy_floor=0.0, theory_corr_floor=-1.0)


@pytest.fixture(scope="module")
def benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", ["pipeline", "sample"])
def test_emitted_metrics_are_declared(command, benchmark_json):
    """Small end-to-end and traced runs emit exactly the declared metrics."""
    declared = {
        0: {m["name"] for m in benchmark_json["end_to_end"]},
        1: {m["name"] for m in benchmark_json["per_layer"]},
    }
    for trace in (0, 1):
        result = run.run_workload(f"test-{command}", seed=1, seconds=0, trace=trace,
                                  workload=_tiny(command))
        assert result["correct"], result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        emitted = set(result["metrics"])
        assert all(NAME.fullmatch(name) for name in emitted)
        assert emitted == declared[trace]
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert all(math.isfinite(v) for v in values.values())
        if trace:
            own = sum(values[f"{name}.s"] for name in SPAN_NAMES)
            assert own + values["cli.self_s"] == pytest.approx(values["trace.wall_s"], abs=1e-9)
            assert all(f"blas1.{name}" in values for name in BUSY_METRICS)
