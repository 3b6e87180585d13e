import argparse
import csv
import filecmp
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import attnpaths
from attnpaths import fileio
from attnpaths.cli import DEFAULT_CONFIG, _merge_config, build_parser, main

# A configuration small enough for end-to-end runs in a test process.
TINY_TASK = {
    "chain_length": 5,
    "feature_width": 12,
    "n_train": 12,
    "n_test": 8,
}


def _write_config(tmp_path, **overrides):
    config = {"task": dict(TINY_TASK)}
    for key, val in overrides.items():
        if isinstance(val, dict):
            config.setdefault(key, {}).update(val)
        else:
            config[key] = val
    p = tmp_path / "config.json"
    p.write_text(json.dumps(config))
    return p


def _gen(tmp_path, out="run", **overrides):
    cfg = _write_config(tmp_path, **overrides)
    out_dir = tmp_path / out
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    return cfg, out_dir


def test_merge_config_rejects_unknown_keys():
    merged = _merge_config({"seed": 5, "model": {"n_heads": 3}})
    assert merged["seed"] == 5
    assert merged["model"]["n_heads"] == 3
    assert merged["model"]["depth"] == DEFAULT_CONFIG["model"]["depth"]
    with pytest.raises(ValueError):
        _merge_config({"sede": 1})
    with pytest.raises(ValueError):
        _merge_config({"model": {"n_head": 2}})
    with pytest.raises(ValueError):
        _merge_config({"model": 7})


def test_merge_config_checks_value_types():
    accepted = [{"task": {"beta": 10}}, {"solver": {"alpha": 5}}, {"solver": {"alpha": 2.5}},
                {"solver": {"alpha": None}}, {"attention": {"path": None}},
                {"attention": {"path": "a.apkw"}}, {"temperature_grid": [1, 0.5]},
                {"sampler": {"prior_only": True}}, {"seed": 3}]
    for user in accepted:
        _merge_config(user)
    rejected = [
        ({"task": {"n_train": "100"}}, "task.n_train"),
        ({"task": {"n_train": 100.0}}, "task.n_train"),
        ({"model": {"n_hidden": True}}, "model.n_hidden"),
        ({"task": {"beta": True}}, "task.beta"),
        ({"task": {"beta": None}}, "task.beta"),
        ({"solver": {"gp_limit": 1}}, "solver.gp_limit"),
        ({"solver": {"alpha": "5"}}, "solver.alpha"),
        ({"solver": {"alpha": False}}, "solver.alpha"),
        ({"attention": {"path": 3}}, "attention.path"),
        ({"model": {"readout": ["token"]}}, "model.readout"),
        ({"temperature_grid": 0.1}, "temperature_grid"),
        ({"temperature_grid": [0.1, "1"]}, r"temperature_grid\[\]"),
        ({"seed": "1"}, "seed"),
        ({"seed": {"value": 1}}, "seed"),
    ]
    for user, key in rejected:
        with pytest.raises(ValueError, match=f"config key {key} must be of type"):
            _merge_config(user)


@pytest.mark.parametrize("command,section", [
    ("gen-data", {"task": {"n_train": "100"}}),
    ("sample", {"sampler": {"n_chains": "2"}}),
    ("pipeline", {"solver": {"max_iter": "5"}}),
])
def test_wrong_typed_config_value_exits_2_before_writing(tmp_path, capsys, command, section):
    _, out = _gen(tmp_path)
    before = sorted(p.name for p in out.iterdir())
    record = (out / "config.resolved.json").read_bytes()
    cfg = _write_config(tmp_path, **section)
    assert main([command, "--config", str(cfg), "--out", str(out), "--force"]) == 2
    key = ".".join([*section, *next(iter(section.values()))])
    assert f"config key {key} must be of type int" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == before
    assert (out / "config.resolved.json").read_bytes() == record


def test_unknown_readout_kind_is_a_config_error(tmp_path, capsys):
    # every kind but "token", "average" too, exits 2 before anything is
    # written, even under --force
    _, out = _gen(tmp_path)
    run_files = {p.name: p.read_bytes() for p in out.iterdir()}
    for kind in ("averge", "average"):
        cfg = _write_config(tmp_path, model={"readout": kind})
        for command, run in (("gen-data", tmp_path / "other"), ("pipeline", out),
                             ("sweep", out), ("sample", out)):
            assert main([command, "--config", str(cfg), "--out", str(run), "--force"]) == 2
            assert f"readout kind must be 'token', got {kind!r}" in capsys.readouterr().err
            assert not (tmp_path / "other").exists()
            assert {p.name: p.read_bytes() for p in out.iterdir()} == run_files


def test_gen_data_writes_nothing_when_attention_is_rejected(tmp_path, capsys):
    _, other = _gen(tmp_path, out="other", task={"feature_width": 10})
    _, two_heads = _gen(tmp_path, out="two_heads")
    cases = [
        ({"attention": {"path": str(other / "attention.apkw")}},
         "token width 18 does not match the width 16"),
        ({"model": {"n_heads": 3}, "attention": {"path": str(two_heads / "attention.apkw")}},
         "attention file has 2 layers x 2 heads, config wants 2 x 3"),
        ({"model": {"readout": "averge"}}, "readout kind must be 'token', got 'averge'"),
        ({"model": {"readout": "average"}}, "readout kind must be 'token', got 'average'"),
        ({"model": {"t_star": 40}}, "t_star=40 out of range for 6 tokens"),
    ]
    for i, (overrides, message) in enumerate(cases):
        cfg = _write_config(tmp_path, **overrides)
        out = tmp_path / f"run{i}"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "dataset.apkd").exists()
        assert not out.exists()


def _set_label(out, example, value):
    """Overwrite one label of a run's dataset.apkd; the int8 labels end the file."""
    path = out / "dataset.apkd"
    blob = bytearray(path.read_bytes())
    blob[len(blob) - TINY_TASK["n_train"] - TINY_TASK["n_test"] + example] = value
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("command,section,message", [
    ("pipeline", {"model": {"readout": "averge"}}, "readout kind must be"),
    ("pipeline", {"model": {"t_star": 99}}, "t_star=99 out of range"),
    ("pipeline", {"model": {"n_heads": 3}}, "config wants 2 x 3"),
    ("pipeline", {"solver": {"temperature": 0.0}}, "temperature must be > 0"),
    ("sweep", {"temperature_grid": []}, "temperature grid is empty"),
    ("sweep", {"temperature_grid": [0.1, -1.0]}, "temperature must be > 0"),
    ("sample", {"sampler": {"n_chains": 0}}, "invalid sampler sizes"),
    ("sample", {"model": {"depth": 3}}, "config wants 3 x 2"),
    ("sample", {"sampler": {"n_samples": 4, "thin": 5}}, "thin exceeds n_samples"),
    # a callable corrupts the dataset instead: here the first test label
    pytest.param("pipeline", lambda out: _set_label(out, TINY_TASK["n_train"], 5),
                 "labels must be -1 or +1, got 5 at example 12", id="pipeline-test-label-5"),
])
def test_rejected_command_keeps_the_run_record(tmp_path, capsys, command, section, message):
    _, out = _gen(tmp_path)
    assert main(["verify", "--out", str(out)]) == 0
    original = (out / "dataset.apkd").read_bytes()
    corrupt = callable(section)
    if corrupt:
        section(out)
        section = {}
    dataset = (out / "dataset.apkd").read_bytes()
    before = sorted(p.name for p in out.iterdir())
    record = (out / "config.resolved.json").read_bytes()
    cfg = _write_config(tmp_path, **section)
    assert main([command, "--config", str(cfg), "--out", str(out), "--force"]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == before
    assert (out / "config.resolved.json").read_bytes() == record
    assert (out / "dataset.apkd").read_bytes() == dataset
    if corrupt:
        (out / "dataset.apkd").write_bytes(original)
    assert main(["verify", "--out", str(out)]) == 0


def test_negative_seed_and_threads_below_one_are_rejected_before_anything_is_written(
        tmp_path, capsys):
    cfg, out = _gen(tmp_path)
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    negative = _write_config(tmp_path, seed=-1)
    seed_error = "seed must be a non-negative integer, got -1"
    runs = [(command, ["--config", str(cfg), "--seed", "-1"], seed_error)
            for command in ("gen-data", "pipeline", "sweep", "sample")]
    runs += [("pipeline", ["--config", str(negative)], seed_error)]
    runs += [("pipeline", ["--config", str(cfg), "--threads", threads],
              f"--threads must be at least 1, got {threads}") for threads in ("0", "-3")]
    for command, flags, message in runs:
        assert main([command, *flags, "--out", str(out), "--force"]) == 2
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files
        assert main(["verify", "--out", str(out)]) == 0
    # gen-data reading attention logits from a file
    cfg = _write_config(tmp_path, attention={"path": str(out / "attention.apkw")})
    fresh = tmp_path / "fresh"
    assert main(["gen-data", "--config", str(cfg), "--seed", "-1", "--out", str(fresh)]) == 2
    assert not fresh.exists()


def test_verify_rejects_labels_other_than_plus_minus_one(tmp_path, capsys):
    cfg, out = _gen(tmp_path)
    _set_label(out, 0, 5)  # the first training label
    assert main(["verify", "--out", str(out)]) == 2
    assert "labels must be -1 or +1, got 5 at example 0" in capsys.readouterr().err
    before = sorted(p.name for p in out.iterdir())
    assert main(["pipeline", "--config", str(cfg), "--out", str(out), "--force"]) == 2
    assert sorted(p.name for p in out.iterdir()) == before


def test_gen_data_writes_artifacts(tmp_path):
    cfg, out = _gen(tmp_path)
    assert (out / "dataset.apkd").exists()
    assert (out / "attention.apkw").exists()
    record = json.loads((out / "config.resolved.json").read_text())
    assert record["config"]["task"]["chain_length"] == 5
    assert record["config_digest"] == fileio.config_digest(record["config"])
    ds, digest = fileio.read_dataset(out / "dataset.apkd")
    assert digest == record["config_digest"]
    assert ds.n_examples == 20 and ds.n_train == 12
    logits, _ = fileio.read_attention_specs(out / "attention.apkw")
    assert logits.shape == (2, 2, 18, 18)


def test_gen_data_deterministic(tmp_path):
    _, out_a = _gen(tmp_path, out="a")
    _, out_b = _gen(tmp_path, out="b")
    assert (out_a / "dataset.apkd").read_bytes() == (out_b / "dataset.apkd").read_bytes()
    assert (out_a / "attention.apkw").read_bytes() == (out_b / "attention.apkw").read_bytes()


def test_gen_data_seed_override(tmp_path):
    cfg, out = _gen(tmp_path)
    out2 = tmp_path / "other"
    rc = main(["gen-data", "--config", str(cfg), "--seed", "9", "--out", str(out2)])
    assert rc == 0
    assert (out / "dataset.apkd").read_bytes() != (out2 / "dataset.apkd").read_bytes()
    record = json.loads((out2 / "config.resolved.json").read_text())
    assert record["config"]["seed"] == 9


def test_overwrite_refused_without_force(tmp_path, capsys):
    cfg, out = _gen(tmp_path)
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out)])
    assert rc == 4
    assert "refusing to overwrite" in capsys.readouterr().err
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out), "--force"])
    assert rc == 0


def test_command_of_another_config_is_refused_without_force(tmp_path, capsys):
    cfg, out = _gen(tmp_path, solver={"gp_limit": True},
                    sampler={"n_chains": 2, "n_warmup": 4, "n_samples": 4, "thin": 2,
                             "n_leapfrog": 4})
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads((out / "config.resolved.json").read_text())
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["sample", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert record["config_digest"][:12] in err
    merged = dict(record["config"], seed=1)
    assert fileio.config_digest(merged)[:12] in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files
    assert main(["verify", "--out", str(out)]) == 0
    assert main(["sample", "--config", str(cfg), "--seed", "1", "--out", str(out),
                 "--force"]) == 0
    assert json.loads((out / "config.resolved.json").read_text())["config"]["seed"] == 1


def test_bad_config_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err

    nonjson = tmp_path / "nonjson.json"
    nonjson.write_text("{broken")
    assert main(["gen-data", "--config", str(nonjson), "--out", str(tmp_path / "y")]) == 2

    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2]")
    assert main(["gen-data", "--config", str(notdict), "--out", str(tmp_path / "z")]) == 2

    missing = tmp_path / "absent.json"
    assert main(["gen-data", "--config", str(missing), "--out", str(tmp_path / "w")]) == 4


def test_pipeline_end_to_end(tmp_path):
    cfg, out = _gen(tmp_path, solver={"alpha": 0.5, "max_iter": 4000})
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    for name in ["features.apkf", "u1.apku", "u1.csv", "trace.csv", "predictor.csv",
                 "predictor_summary.json", "alignment.csv", "head_scores.csv"]:
        assert (out / name).exists(), name
    summary = json.loads((out / "predictor_summary.json").read_text())
    assert summary["solver_used"] is True
    assert summary["n_train"] == 12 and summary["n_eval"] == 8
    # the solve's effort: one trace row per iterate, line-search trial points on top
    with open(out / "trace.csv") as fh:
        trace_rows = list(csv.reader(fh))[2:]  # after the digest line and the header
    assert summary["solver_iters"] == len(trace_rows) >= 1
    assert summary["solver_evals"] >= summary["solver_iters"]
    assert 0.0 <= summary["accuracy"] <= 1.0
    params, _ = fileio.read_order_parameters(out / "u1.apku")
    assert params.u1.shape == (4, 4)
    feats, _ = fileio.read_features(out / "features.apkf")
    assert (feats.n_paths, feats.width, feats.n_examples, feats.n_train) == (4, 18, 20, 12)
    assert feats.values.shape == (20, 4, 18)  # example-major rows, left in the file


def test_pipeline_gp_limit_skips_solver(tmp_path):
    cfg, out = _gen(tmp_path, solver={"gp_limit": True})
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "predictor_summary.json").read_text())
    assert summary["solver_used"] is False and summary["converged"] is None
    assert summary["solver_iters"] is None and summary["solver_evals"] is None
    params, _ = fileio.read_order_parameters(out / "u1.apku")
    assert np.array_equal(params.u1, np.eye(4))
    assert not (out / "trace.csv").exists()


def test_pipeline_threads_match_serial(tmp_path):
    cfg, out1 = _gen(tmp_path, out="serial", solver={"gp_limit": True})
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
    assert rc == 0
    _, out2 = _gen(tmp_path, out="threaded", solver={"gp_limit": True})
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out2), "--threads", "4"])
    assert rc == 0
    assert (out1 / "features.apkf").read_bytes() == (out2 / "features.apkf").read_bytes()


def test_pipeline_threads_match_serial_across_feature_blocks(tmp_path):
    # 532 examples span seventeen 32-row feature blocks; each worker takes
    # whole blocks, so no worker count moves a block edge, which would move
    # the last bits of some features
    task = {"chain_length": 8, "feature_width": 40, "n_train": 12, "n_test": 520}
    cfg, out = _gen(tmp_path, task=task, solver={"gp_limit": True})
    artifacts = {}
    for threads in (1, 2, 3, None):
        flag = [] if threads is None else ["--threads", str(threads)]
        assert main(["pipeline", "--config", str(cfg), "--out", str(out), "--force", *flag]) == 0
        artifacts[threads] = [(out / name).read_bytes()
                              for name in ("features.apkf", "predictor.csv")]
    assert artifacts[2] == artifacts[1]
    assert artifacts[3] == artifacts[1]
    assert artifacts[None] == artifacts[1]


def test_commands_never_read_the_whole_token_payload(tmp_path, monkeypatch):
    # 272 examples: more than one feature block, so no block is the whole
    # payload; the features file's rows are TokenRows too, so this also
    # checks that no command reads the whole feature payload
    task = {"chain_length": 3, "feature_width": 4, "n_train": 12, "n_test": 260}
    cfg, out = _gen(tmp_path, task=task, solver={"gp_limit": True},
                    temperature_grid=[0.1, 0.5],
                    sampler={"n_chains": 2, "n_warmup": 4, "n_samples": 4, "thin": 2,
                             "n_leapfrog": 4})
    read = fileio.TokenRows.__array__
    rows_read = {}

    def guarded(rows, *args, **kwargs):
        assert len(rows) < 272, "the whole token or feature payload was read"
        rows_read[command].append(len(rows))
        return read(rows, *args, **kwargs)

    monkeypatch.setattr(fileio.TokenRows, "__array__", guarded)
    for command in ("pipeline", "sweep", "sample"):
        rows_read[command] = []
        assert main([command, "--config", str(cfg), "--out", str(out), "--force"]) == 0
    assert main(["verify", "--out", str(out)]) == 0
    # pipeline and sweep read their 272 token rows 8 at a time, straight into
    # each 32-row block's GEMM operand; pipeline then reads the 12 training
    # feature rows once, for the solve and the kernel blocks alike, and the 260
    # test feature rows as 8 x 32 + 4; sample reads the 12 training token
    # rows, then its 260 test token rows 8 at a time and the last 4.  The
    # feature workers read in any order, and only then does anything else read
    tokens = [8] * 34
    assert rows_read["pipeline"] == tokens + [12] + [32] * 8 + [4]
    assert rows_read["sweep"] == tokens
    assert rows_read["sample"][0] == 12
    assert sorted(rows_read["sample"][1:]) == [4] + [8] * 32


def test_pipeline_memory_does_not_grow_with_the_feature_matrix(tmp_path):
    # pipeline holds the training features and one 32-example block of the
    # others per feature worker, never the whole (H^L, width, P) matrix: from 300 to 3000 test
    # examples its peak may grow by the cross-kernel block and the other
    # per-example outputs (mean, variance, kernel diagonal, the CSV row; under
    # 512 bytes each here), not by the 4 x 70 doubles of each example's features
    task = {"chain_length": 9, "feature_width": 60, "n_train": 10}
    peaks = []
    for n_test in (300, 3000):
        cfg, out = _gen(tmp_path, out=f"n{n_test}", task={**task, "n_test": n_test},
                        solver={"gp_limit": True})
        tracemalloc.start()
        try:
            assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    more = 3000 - 300
    cross = more * task["n_train"] * 8
    assert peaks[1] - peaks[0] <= cross + more * 512 + 2**20
    assert more * 4 * 70 * 8 > cross + more * 512 + 2**20  # the matrix would not fit


def test_an_interrupted_pipeline_leaves_no_features_file(tmp_path, monkeypatch):
    # the features file is filled block by block; until it is complete it has
    # another name, so a run that stops halfway leaves no features.apkf whose
    # header reads as whole over a payload of zeros
    import attnpaths.cli as cli_mod
    cfg, out = _gen(tmp_path, solver={"gp_limit": True})
    real = cli_mod.compute_features

    def stops_halfway(tokens, logits, readout, n_train, out=None, workers=None):
        real(tokens[:1], logits, readout, 0, out=out[:1], workers=workers)
        raise OSError("no space left on device")

    monkeypatch.setattr(cli_mod, "compute_features", stops_halfway)
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 4
    assert not (out / "features.apkf").exists()
    monkeypatch.setattr(cli_mod, "compute_features", real)
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert not (out / "features.apkf.partial").exists()
    assert main(["verify", "--out", str(out)]) == 0


def test_pipeline_rejects_a_cut_token_payload_before_writing(tmp_path, capsys):
    _, out = _gen(tmp_path)
    record = (out / "config.resolved.json").read_bytes()
    blob = (out / "dataset.apkd").read_bytes()
    (out / "dataset.apkd").write_bytes(blob[: 72 + 1000])  # mid token payload
    cfg = _write_config(tmp_path, solver={"gp_limit": True})
    assert main(["pipeline", "--config", str(cfg), "--out", str(out), "--force"]) == 2
    assert "truncated payload at byte 1072" in capsys.readouterr().err
    assert (out / "config.resolved.json").read_bytes() == record
    assert sorted(p.name for p in out.iterdir()) == [
        "attention.apkw", "config.resolved.json", "dataset.apkd"]


def test_strict_fails_on_unconverged_solve(tmp_path, capsys):
    cfg, out = _gen(tmp_path, solver={"max_iter": 3}, temperature_grid=[0.1])
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "predictor_summary.json").read_text())
    assert summary["solver_used"] is True and summary["converged"] is False
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out), "--force", "--strict"])
    assert rc == 3
    assert "did not converge" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--force"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--force", "--strict"]) == 3


def test_strict_sample_fails_on_divergent_chains(tmp_path, capsys):
    healthy = {"n_chains": 2, "n_warmup": 0, "n_samples": 10, "thin": 5, "n_leapfrog": 4,
               "step_size": 0.001}
    cfg, out = _gen(tmp_path, sampler=healthy)
    assert main(["sample", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    assert json.loads((out / "sample_summary.json").read_text())["divergence_fraction"] <= 0.10
    # a fixed enormous step explodes every trajectory
    cfg = _write_config(tmp_path, sampler={**healthy, "step_size": 1e10})
    assert main(["sample", "--config", str(cfg), "--out", str(out), "--force"]) == 0
    assert json.loads((out / "sample_summary.json").read_text())["divergence_fraction"] == 1.0
    assert main(["sample", "--config", str(cfg), "--out", str(out), "--force", "--strict"]) == 3
    assert "strict mode: divergence fraction 1 exceeds 10%" in capsys.readouterr().err


def test_sweep_end_to_end(tmp_path):
    cfg, out = _gen(tmp_path, temperature_grid=[0.1, 0.5])
    rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["best_temperature"] in (0.1, 0.5)
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # digest + header + two grid rows


def test_sweep_gp_limit_skips_solver(tmp_path, monkeypatch):
    import attnpaths.predictor as predictor_mod
    solves = []
    real = predictor_mod.solve_saddle
    monkeypatch.setattr(predictor_mod, "solve_saddle",
                        lambda *a, **k: solves.append(1) or real(*a, **k))
    cfg, out = _gen(tmp_path, solver={"gp_limit": True}, temperature_grid=[0.1, 0.5])
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert solves == []
    assert len((out / "sweep.csv").read_text().splitlines()) == 4


def test_sweep_after_pipeline_keeps_the_features_file(tmp_path):
    # sweep computes the features in memory only, so it needs no --force here
    cfg, out = _gen(tmp_path, solver={"gp_limit": True}, temperature_grid=[0.1, 0.5])
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    features = (out / "features.apkf").read_bytes()
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "features.apkf").read_bytes() == features
    assert main(["verify", "--out", str(out)]) == 0


def test_sample_end_to_end(tmp_path):
    cfg, out = _gen(tmp_path, sampler={
        "n_chains": 2, "n_warmup": 20, "n_samples": 20, "thin": 5, "prior_only": True,
    })
    rc = main(["sample", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    for name in ["u_est.csv", "predictor_empirical.csv", "sample_summary.json"]:
        assert (out / name).exists(), name
    assert not (out / "chains.csv").exists()
    summary = json.loads((out / "sample_summary.json").read_text())
    assert summary["n_kept"] == 2 * 4
    assert [len(summary[key]) for key in ("acceptance", "divergences", "step_sizes")] == [2, 2, 2]
    with open(out / "u_est.csv") as fh:
        rows = list(csv.reader(fh))[2:]  # after the digest line and the header
    assert [len(row) - 1 for row in rows] == [4, 4, 4, 4]
    lines = (out / "predictor_empirical.csv").read_text().splitlines()
    assert len(lines) == 2 + TINY_TASK["n_test"]  # digest + header + every test example


def test_pipeline_and_sample_number_test_examples_alike(tmp_path):
    cfg, out = _gen(tmp_path, solver={"gp_limit": True},
                    sampler={"n_chains": 1, "n_warmup": 2, "n_samples": 2, "thin": 1,
                             "n_leapfrog": 2})
    for command in ("pipeline", "sample"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0

    def examples(name):
        with open(out / name) as fh:
            return [(int(row[0]), int(row[3])) for row in list(csv.reader(fh))[2:]]

    dataset, _ = fileio.read_dataset(out / "dataset.apkd")
    want = [(int(i), int(l)) for i, l in zip(dataset.test_indices, dataset.test_labels)]
    assert want[0][0] == TINY_TASK["n_train"]
    assert examples("predictor.csv") == examples("predictor_empirical.csv") == want


def test_verify_detects_matching_and_mismatched_digests(tmp_path, capsys):
    cfg, out = _gen(tmp_path, solver={"gp_limit": True})
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--out", str(out)]) == 0
    assert "verified" in capsys.readouterr().out

    # tamper with one artifact's embedded digest (bytes 32..63 of the header)
    blob = bytearray((out / "u1.apku").read_bytes())
    blob[40] ^= 0xFF
    (out / "u1.apku").write_bytes(bytes(blob))
    assert main(["verify", "--out", str(out)]) == 2
    assert "digest mismatch" in capsys.readouterr().err


def test_verify_rejects_trailing_bytes(tmp_path, capsys):
    cfg, out = _gen(tmp_path, solver={"gp_limit": True})
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    for name, extra in (("u1.apku", b"garbage"), ("features.apkf", bytes(8))):
        blob = (out / name).read_bytes()
        (out / name).write_bytes(blob + extra)
        assert main(["verify", "--out", str(out)]) == 2
        assert f"trailing bytes after the payload at byte {len(blob)}" in capsys.readouterr().err
        (out / name).write_bytes(blob)
    assert main(["verify", "--out", str(out)]) == 0


# (file, header byte offset, count): each count implies a payload past 2^40 bytes
@pytest.mark.parametrize("name,offset,count", [
    ("dataset.apkd", 24, 2**40),      # P
    ("attention.apkw", 16, 2**40),    # H
    ("features.apkf", 8, 2**20),      # H, so H^L = 2^40 path rows
    ("features.apkf", 16, 100),       # L, so H^L = 2^100 path rows
    ("u1.apku", 8, 2**20),            # H, so the first level is 2^40 square
    ("u1.apku", 16, 100),             # L, so the first level is 2^100 square
])
def test_inflated_header_counts_are_format_errors(tmp_path, capsys, name, offset, count):
    cfg, out = _gen(tmp_path, solver={"gp_limit": True})
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    blob = bytearray((out / name).read_bytes())
    struct.pack_into("<Q", blob, offset, count)
    (out / name).write_bytes(bytes(blob))
    readers = {".apkd": fileio.read_dataset, ".apkw": fileio.read_attention_specs,
               ".apkf": fileio.read_features, ".apku": fileio.read_order_parameters}
    with pytest.raises(fileio.FormatError, match="truncated payload"):
        readers[Path(name).suffix](out / name)
    assert main(["verify", "--out", str(out)]) == 2
    assert "truncated payload" in capsys.readouterr().err


def test_verify_rejects_zero_head_files(tmp_path, capsys):
    cfg, out = _gen(tmp_path, solver={"gp_limit": True})
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    features = (out / "features.apkf").read_bytes()
    order = (out / "u1.apku").read_bytes()
    # features: H = 0 with its header otherwise kept, so H^L = 0 rows and no payload;
    # order parameters: H = 0, L = 1, so levels of 0x0 and 1x1
    zero_features = features[:8] + struct.pack("<Q", 0) + features[16:80]
    zero_order = order[:8] + struct.pack("<2Q", 0, 1) + order[24:56] + np.ones(1).tobytes()
    for name, blob, whole in (("features.apkf", zero_features, features),
                              ("u1.apku", zero_order, order)):
        (out / name).write_bytes(blob)
        assert main(["verify", "--out", str(out)]) == 2
        assert "n_heads >= 1" in capsys.readouterr().err
        (out / name).write_bytes(whole)
    assert main(["verify", "--out", str(out)]) == 0


def test_reruns_write_identical_files(tmp_path):
    # the byte-identical rerun contract, over every file all four commands write
    cfg = _write_config(tmp_path, solver={"alpha": 0.5, "max_iter": 4000},
                        temperature_grid=[0.1, 0.5],
                        sampler={"n_chains": 2, "n_warmup": 10, "n_samples": 10, "thin": 5,
                                 "n_leapfrog": 4})
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        for command in ("gen-data", "pipeline", "sweep", "sample"):
            assert main([command, "--config", str(cfg), "--out", str(out), "--force"]) == 0
        assert main(["verify", "--out", str(out)]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert len(names) == 16
    assert sorted(p.name for p in runs[1].iterdir()) == names
    match, mismatch, errors = filecmp.cmpfiles(*runs, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert match == names


@pytest.mark.parametrize("removed", [
    {"task": {"kind": "hmc"}}, {"files": {"dataset": "dataset.apkd"}},
    {"files": {"attention": "attention.apkw"}}, {"solver": {"tolerance": 1e-7}},
    {"solver": {"jitter": 1e-3}}, {"sampler": {"n_eval_examples": None}},
    {"attention": {"source": "hmc-default"}},
])
def test_removed_config_keys_are_unknown(tmp_path, capsys, removed):
    cfg = _write_config(tmp_path, **removed)
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_settable_config_values_are_listed():
    # a new config knob lands only together with an edit here
    def dotted(mapping, prefix=""):
        for key, val in mapping.items():
            if isinstance(val, dict):
                yield from dotted(val, f"{prefix}{key}.")
            else:
                yield prefix + key
    assert sorted(dotted(DEFAULT_CONFIG)) == sorted([
        "seed",
        "model.n_hidden", "model.n_heads", "model.depth", "model.readout", "model.t_star",
        "model.sigma2",
        "task.chain_length", "task.feature_width", "task.p_plus", "task.p_minus",
        "task.sigma_par", "task.sigma_perp", "task.n_train", "task.n_test", "task.beta",
        "attention.path",
        "solver.alpha", "solver.gp_limit", "solver.temperature", "solver.max_iter",
        "sampler.n_chains", "sampler.n_warmup", "sampler.n_samples", "sampler.thin",
        "sampler.n_leapfrog", "sampler.step_size", "sampler.temperature", "sampler.prior_only",
        "temperature_grid",
    ])
    assert len(list(dotted(DEFAULT_CONFIG))) == 30


def test_command_flags_are_listed():
    # a new flag lands only together with an edit here
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(flag for action in p._actions for flag in action.option_strings)
           for name, p in sub.choices.items()}
    writes = ["-h", "--help", "--out", "--config", "--seed", "--force"]
    assert got == {
        "gen-data": sorted(writes),
        "pipeline": sorted(writes + ["--strict", "--threads"]),
        "sweep": sorted(writes + ["--strict"]),
        "sample": sorted(writes + ["--strict"]),
        "verify": sorted(["-h", "--help", "--out"]),
    }


@pytest.mark.parametrize("command,flag", [
    ("gen-data", ["--threads", "2"]), ("gen-data", ["--strict"]),
    ("sample", ["--threads", "2"]), ("sweep", ["--threads", "2"]),
])
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "run"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_verify_rejects_edited_config(tmp_path, capsys):
    cfg, out = _gen(tmp_path)
    record = json.loads((out / "config.resolved.json").read_text())
    record["config"]["seed"] = 12345
    (out / "config.resolved.json").write_text(json.dumps(record))
    assert main(["verify", "--out", str(out)]) == 2
    assert "recorded digest" in capsys.readouterr().err


def test_pipeline_requires_test_examples(tmp_path, capsys):
    cfg, out = _gen(tmp_path, task={"n_test": 0})
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "test examples" in capsys.readouterr().err


def test_gen_data_rejects_attention_of_another_token_width(tmp_path, capsys):
    _, other = _gen(tmp_path, out="other", task={"feature_width": 10})
    cfg = _write_config(tmp_path, attention={"path": str(other / "attention.apkw")})
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "token width 18 does not match the width 16" in capsys.readouterr().err


def test_pipeline_rejects_attention_of_another_token_width(tmp_path, capsys):
    # gen-data refuses such a file, so swap one in after a clean gen-data
    _, other = _gen(tmp_path, out="other", task={"feature_width": 10})
    cfg, out = _gen(tmp_path)
    shutil.copyfile(other / "attention.apkw", out / "attention.apkw")
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "token width 18 does not match the width 16" in capsys.readouterr().err


def test_commands_that_never_solve_leave_scipy_unloaded(tmp_path):
    # numpy and scipy each bring their own BLAS runtime; only the solve may load scipy's
    cfg = _write_config(tmp_path, solver={"gp_limit": True},
                        sampler={"n_chains": 1, "n_warmup": 2, "n_samples": 2, "thin": 1,
                                 "n_leapfrog": 2})
    probe = (
        "import sys\n"
        "from attnpaths.cli import main\n"
        "loaded = ['scipy' in sys.modules]\n"
        "for command in ('gen-data', 'pipeline', 'sample'):\n"
        f"    assert main([command, '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = str(Path(attnpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[False, False, False, False]"


def test_solving_commands_leave_scipy_unloaded(tmp_path):
    # the saddle-point solve runs on numpy alone
    cfg = _write_config(tmp_path, solver={"alpha": 0.5, "max_iter": 200},
                        temperature_grid=[0.1, 0.5])
    probe = (
        "import sys\n"
        "from attnpaths.cli import main\n"
        "loaded = []\n"
        "for command in ('gen-data', 'pipeline', 'sweep'):\n"
        f"    assert main([command, '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'run')!r},"
        " '--force']) == 0\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = str(Path(attnpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[False, False, False]"
    summary = json.loads((tmp_path / "run" / "predictor_summary.json").read_text())
    assert summary["solver_used"] is True


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "set"])
def test_import_sets_one_blas_thread_unless_the_user_set_one(preset):
    # compute_features runs one worker per CPU, each on one BLAS thread; a
    # thread count the user set is kept
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(attnpaths.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    probe = f"import os, attnpaths\nprint([os.environ.get(name) for name in {names!r}])\n"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str([preset or "1", "1", "1"])


def test_missing_input_files(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "empty"
    rc = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert rc == 4
    assert "not found" in capsys.readouterr().err
