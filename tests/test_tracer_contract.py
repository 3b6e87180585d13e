"""The benchmark tracer's view of the package still holds.

perfbench/tracing.py wraps functions at (module, attribute) lookup sites and
reads some of their arguments by name.  A renamed lookup site or argument
would otherwise show up only as an error inside a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from attnpaths import fileio
from attnpaths.kernel import compute_features, kernel_blocks, total_kernel
from attnpaths.model import Readout

TRACING_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


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
