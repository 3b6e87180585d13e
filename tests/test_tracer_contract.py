"""The benchmark's view of the package still holds.

perfbench/tracing.py wraps functions at (module, attribute) lookup sites and
reads some of their arguments by name; perfbench/run.py passes its workload
configs to the CLI, and perfbench/library.py reads keys of a run's resolved
config.  A renamed lookup site, argument or config key would otherwise show
up only as an error inside a benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from attnpaths import fileio
from attnpaths.cli import DEFAULT_CONFIG, _merge_config
from attnpaths.kernel import compute_features, kernel_blocks, total_kernel
from attnpaths.model import Readout

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module of its own, its perfbench imports resolved."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


def _config_reads(source: str) -> set:
    """Key paths of every config[...] subscript chain with string keys in source."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        keys = []
        while isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            keys.insert(0, node.slice.value)
            node = node.value
        if keys and isinstance(node, ast.Name) and node.id == "config":
            reads.add(tuple(keys))
    return reads


def test_every_config_key_the_benchmark_reads_is_a_cli_key():
    # library.py's quality check reads these keys of a run's resolved config;
    # a key the CLI drops would fail that check, and so the benchmark run
    reads = _config_reads((PERFBENCH / "library.py").read_text())
    assert {("model", "readout"), ("model", "t_star"), ("sampler", "temperature")} <= reads
    for path in reads:
        section = DEFAULT_CONFIG
        for key in path:
            assert isinstance(section, dict) and key in section, path
            section = section[key]


def test_every_benchmark_workload_config_is_accepted():
    workloads = _load("run").WORKLOADS
    assert {"pinned-solve", "gp-wide", "posterior-sample"} <= set(workloads)
    for workload in workloads.values():
        _merge_config(workload.config)


@pytest.mark.parametrize("module,attr,name", tracing.WRAPPED + tracing.COUNTED,
                         ids=lambda v: str(v))
def test_every_traced_lookup_site_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_tracer_reads_its_arguments_from_file_backed_features(tmp_path):
    # pipeline's route: features written into their file, then read back as rows
    rng = np.random.default_rng(0)
    n_ex, n_train, width = 70, 6, 5
    tokens = rng.standard_normal((n_ex, width, 4))
    logits = 1.3 * rng.standard_normal((2, 2, width, width))
    rows = fileio.create_features(tmp_path / "f.apkf", 2, 2, width, n_ex, n_train)
    tracer = tracing.Tracer()
    tracer.wrap("kernel.compute_features", compute_features)(
        tokens, logits, Readout.token(1), n_train, out=rows)
    features, _ = fileio.read_features(tmp_path / "f.apkf")
    # what the tracer asks of a row-backed matrix
    assert features.n_train == n_train and features.n_examples == n_ex
    assert len(features.values.shape) == 3
    tracer.wrap("kernel.kernel_blocks", kernel_blocks)(
        np.eye(4), features, eval_idx=np.arange(n_train, n_ex))
    tracer.wrap("kernel.total_kernel", total_kernel)(np.eye(4), features=features.train())
    attrs = {span["name"]: span["attrs"] for span in tracer.spans}
    assert attrs["kernel.compute_features"] == {"examples": n_ex}
    n_eval = n_ex - n_train
    assert attrs["kernel.kernel_blocks"]["useful"] == n_train * n_train + n_eval * n_train + n_eval
    assert attrs["kernel.total_kernel"]["flops"] == tracing.total_kernel_flops(4, width, n_train)
