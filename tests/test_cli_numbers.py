"""The commands' numbers as checked claims.

gen-data, pipeline, sample and sweep run in-process on a tiny config, once per
(H, L) shape, and every number they write is recomputed here through the
library and compared: exactly, since a command and the library make the same
IEEE operations on the same inputs.  The CLI tests elsewhere check formats,
refusals and reruns; these check that each command wires the library to the
right inputs (labels, examples, alpha, path labels, the selection block).
"""

import csv
import filecmp
import json

import numpy as np
import pytest

from attnpaths import fileio
from attnpaths.analysis import head_scores
from attnpaths.cli import main
from attnpaths.data import HmcTaskConfig, build_hmc_attention, gen_hmc_dataset
from attnpaths.kernel import compute_features, kernel_task_alignment, total_kernel
from attnpaths.model import Readout
from attnpaths.paths import path_heads, path_label
from attnpaths.predictor import evaluate_predictor, temperature_sweep
from attnpaths.sampler import (
    HmcConfig,
    empirical_order_parameter,
    empirical_predictor,
    hmc_sample,
)
from attnpaths.solver import SolverConfig, solve_saddle

SEED = 2
N_HIDDEN = 4
TASK = {"chain_length": 5, "feature_width": 12, "n_train": 12, "n_test": 8}
# a sampler that moves (not prior_only) and diverges on some steps, so the
# divergence fraction's denominator shows
SAMPLER = {"n_chains": 2, "n_warmup": 10, "n_samples": 10, "thin": 5, "n_leapfrog": 4,
           "step_size": 0.05}
GRID = [0.05, 0.5]
COMMANDS = ("gen-data", "pipeline", "sample", "sweep")


def _config(n_heads, depth):
    return {"seed": SEED, "task": TASK,
            "model": {"n_heads": n_heads, "depth": depth, "n_hidden": N_HIDDEN},
            "solver": {"max_iter": 2000}, "sampler": SAMPLER, "temperature_grid": GRID}


def _run(tmp_path_factory, config, name):
    out = tmp_path_factory.mktemp(name)
    cfg = out / "config.json"
    cfg.write_text(json.dumps(config))
    for command in COMMANDS:
        assert main([command, "--config", str(cfg), "--out", str(out / "run")]) == 0, command
    return out / "run"


def _rows(path):
    """(header, rows) of a CSV artifact, after its digest line."""
    with open(path) as fh:
        header, *rows = list(csv.reader(fh))[1:]
    return header, rows


def _column(path, name, kind=float):
    header, rows = _rows(path)
    return np.array([kind(row[header.index(name)]) for row in rows])


@pytest.fixture(scope="module", params=[(3, 2), (2, 3)], ids=["H3-L2", "H2-L3"])
def run(request, tmp_path_factory):
    n_heads, depth = request.param
    config = _config(n_heads, depth)
    out = _run(tmp_path_factory, config, f"h{n_heads}l{depth}")

    task = HmcTaskConfig(**TASK)
    dataset = gen_hmc_dataset(task, SEED)
    logits = build_hmc_attention(task, n_heads, depth, SEED)
    readout = Readout.token(1)
    y = dataset.train_labels.astype(float)
    features = compute_features(dataset.tokens, logits, readout, dataset.n_train)
    solver = SolverConfig(alpha=task.n_train / N_HIDDEN, temperature=0.01, max_iter=2000,
                          seed=SEED)
    params, _ = solve_saddle(features, y, solver)
    return dict(out=out, config=config, n_heads=n_heads, depth=depth, dataset=dataset,
                logits=logits, readout=readout, y=y, features=features, solver=solver,
                params=params)


def test_gen_data_writes_the_library_task_and_heads(run):
    dataset, _ = fileio.read_dataset(run["out"] / "dataset.apkd")
    logits, _ = fileio.read_attention_specs(run["out"] / "attention.apkw")
    assert np.asarray(dataset.tokens).tobytes() == run["dataset"].tokens.tobytes()
    assert np.array_equal(dataset.labels, run["dataset"].labels)
    assert logits.tobytes() == run["logits"].tobytes()


def test_pipeline_numbers_are_the_library_numbers(run):
    out, params, features = run["out"], run["params"], run["features"]
    dataset, y, solver = run["dataset"], run["y"], run["solver"]
    n_heads, depth = run["n_heads"], run["depth"]

    written, _ = fileio.read_order_parameters(out / "u1.apku")
    assert (written.n_heads, written.depth) == (n_heads, depth)
    assert [m.tobytes() for m in written.matrices] == [m.tobytes() for m in params.matrices]

    report = evaluate_predictor(params.u1, features, y, dataset.test_indices,
                                dataset.test_labels, solver.temperature)
    csv_path = out / "predictor.csv"
    assert np.array_equal(_column(csv_path, "example", int), dataset.test_indices)
    assert np.array_equal(_column(csv_path, "mean"), report.means)
    assert np.array_equal(_column(csv_path, "label", int), dataset.test_labels)
    summary = json.loads((out / "predictor_summary.json").read_text())
    assert summary["accuracy"] == report.accuracy
    assert summary["alpha"] == solver.alpha == TASK["n_train"] / N_HIDDEN

    _, overlaps = kernel_task_alignment(total_kernel(params.u1, features.train()), y)
    assert np.array_equal(_column(out / "alignment.csv", "overlap"), overlaps)

    scores = head_scores(params.u1, n_heads, depth)
    cells = [(layer + 1, head + 1) for layer, head in np.ndindex(depth, n_heads)]
    got = list(zip(_column(out / "head_scores.csv", "layer", int),
                   _column(out / "head_scores.csv", "head", int)))
    assert got == cells
    assert np.array_equal(_column(out / "head_scores.csv", "score"), scores.ravel())


def _path_labels(path):
    header, rows = _rows(path)
    return header[1:], [row[0] for row in rows]


def test_path_labels_name_each_layer_head(run):
    want = [path_label(p) for p in path_heads(run["n_heads"], run["depth"]).T]
    assert len(want) == run["n_heads"] ** run["depth"]
    for name in ("u1.csv", "u_est.csv"):
        assert _path_labels(run["out"] / name) == (want, want), name


def test_sample_numbers_are_the_library_numbers(run):
    out, dataset, logits, readout = run["out"], run["dataset"], run["logits"], run["readout"]
    config = HmcConfig(n_hidden=N_HIDDEN, seed=SEED, **SAMPLER)
    samples = hmc_sample(dataset.tokens[: dataset.n_train], run["y"], logits, readout, config)

    _, rows = _rows(out / "u_est.csv")
    u_est = np.array([[float(v) for v in row[1:]] for row in rows])
    assert np.array_equal(u_est, empirical_order_parameter(samples))

    test = compute_features(dataset.tokens[dataset.n_train :], logits, readout, 0)
    means, variances = empirical_predictor(samples, test)
    csv_path = out / "predictor_empirical.csv"
    assert np.array_equal(_column(csv_path, "example", int), dataset.test_indices)
    assert np.array_equal(_column(csv_path, "mean"), means)
    assert np.array_equal(_column(csv_path, "variance"), variances)

    summary = json.loads((out / "sample_summary.json").read_text())
    steps = config.n_chains * (config.n_warmup + config.n_samples)
    assert summary["acceptance"] == samples.acceptance.tolist()
    assert summary["divergences"] == samples.divergences.tolist()
    assert summary["step_sizes"] == samples.step_sizes.tolist()
    assert 0 < sum(summary["divergences"]) < steps
    assert summary["divergence_fraction"] == sum(summary["divergences"]) / steps
    assert summary["n_kept"] == samples.n_kept


def test_sweep_numbers_are_the_library_numbers(run):
    out, dataset = run["out"], run["dataset"]
    result = temperature_sweep(run["features"], run["y"], dataset.test_indices,
                               dataset.test_labels, run["solver"], grid=tuple(GRID))
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert (summary["best_temperature"], summary["best_accuracy"]) == (
        result.best_temperature, result.best_accuracy)
    assert _column(out / "sweep.csv", "temperature").tolist() == GRID
    assert _column(out / "sweep.csv", "accuracy").tolist() == [
        row["accuracy"] for row in result.rows]


def test_a_rerun_writes_identical_files_and_verifies(run, tmp_path_factory):
    again = _run(tmp_path_factory, run["config"], "again")
    assert main(["verify", "--out", str(again)]) == 0
    names = sorted(p.name for p in run["out"].iterdir())
    assert len(names) == 16
    assert sorted(p.name for p in again.iterdir()) == names
    match, mismatch, errors = filecmp.cmpfiles(run["out"], again, names, shallow=False)
    assert (mismatch, errors) == ([], [])
