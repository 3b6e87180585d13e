"""Command-line front end.

Subcommands wrap the library stages file-to-file:

    gen-data   task config -> dataset.apkd + attention.apkw (the attention logits)
    pipeline   dataset + attention -> features, solved U, predictor, alignment, head scores
               (features written block by block and read back the same way)
    sweep      temperature grid -> per-temperature accuracy table (features in memory only)
    sample     dataset + attention -> HMC posterior, empirical U (u_est.csv) and predictor
    verify     recompute the config digest and check every artifact in a run directory

Flags: --out DIR; --config PATH, --seed INT and --force but for verify;
--strict for pipeline, sweep and sample; --threads INT (at least 1) for pipeline,
the cap on compute_features' workers (default: every usable CPU).
The resolved configuration is written next to the outputs and its sha256
digest is embedded in every artifact; reruns with identical config and seed
produce byte-identical files.  The APK_LOG environment variable sets the log
level.  Exit codes: 0 success, 2 config error (a value of the wrong JSON type,
attention logits whose token width, depth or head count differs from the
dataset's and the model's, or a flag the command does not read), 3 numeric
failure, 4 I/O error.  A run directory holds one config: a command whose
config digest differs from the recorded one exits 2 unless --force is given.
Every command checks what it reads before it writes the resolved
configuration, so a rejected command leaves the run directory as it was.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import head_scores
from .data import HmcTaskConfig, build_hmc_attention, gen_hmc_dataset
from .kernel import compute_features, kernel_task_alignment, total_kernel
from .model import Readout, check_logits
from .predictor import DEFAULT_TEMPERATURE_GRID, evaluate_predictor, temperature_sweep
from .sampler import HmcConfig, empirical_order_parameter, empirical_predictor, hmc_sample
from .solver import SolverConfig, SolverFailure, solve_or_gp, solve_saddle

log = logging.getLogger("attnpaths")

DATASET_FILE = "dataset.apkd"
ATTENTION_FILE = "attention.apkw"

DEFAULT_CONFIG = {
    "seed": 0,
    "model": {
        "n_hidden": 10,
        "n_heads": 2,
        "depth": 2,
        "readout": "token",
        "t_star": 1,
        "sigma2": 1.0,
    },
    "task": asdict(HmcTaskConfig()),
    "attention": {"path": None},
    "solver": {
        "alpha": None,
        "gp_limit": False,
        "temperature": 0.01,
        "max_iter": 20000,
    },
    # the sampler fields that neither the model section nor the top-level seed sets
    "sampler": {f.name: f.default for f in fields(HmcConfig)
                if f.name not in ("n_hidden", "sigma2", "seed")},
    "temperature_grid": list(DEFAULT_TEMPERATURE_GRID),
}


# the type the code reads where the default is null
NULL_DEFAULT_TYPES = {"solver.alpha": float, "attention.path": str}


def _check_type(name: str, default, val) -> None:
    """Raise ValueError unless val has its default's JSON type: a float default
    also takes an int, a bool is never a number, and a null default takes null
    or the type read there."""
    want = NULL_DEFAULT_TYPES.get(name, type(default))
    accepted = (int, float) if want is float else want
    if not ((val is None and default is None)
            or (isinstance(val, accepted) and isinstance(val, bool) == (want is bool))):
        raise ValueError(f"config key {name} must be of type {want.__name__}, got {val!r}")
    if want is list:
        for item in val:
            _check_type(f"{name}[]", default[0], item)


def _merge_config(user: dict) -> dict:
    merged = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, val in user.items():
        if key not in merged:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(merged[key], dict):
            if not isinstance(val, dict):
                raise ValueError(f"config section {key!r} must be a mapping")
            for sub, subval in val.items():
                if sub not in merged[key]:
                    raise ValueError(f"unknown config key {key}.{sub}")
                _check_type(f"{key}.{sub}", merged[key][sub], subval)
                merged[key][sub] = subval
        else:
            _check_type(key, merged[key], val)
            merged[key] = val
    return merged


def _load_config(args) -> dict:
    user = {}
    if args.config is not None:
        with open(args.config) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    config = _merge_config(user)
    if args.seed is not None:
        config["seed"] = int(args.seed)
    if config["seed"] < 0:
        raise ValueError(f"seed must be a non-negative integer, got {config['seed']}")
    return config


def _prepare_out(args, config: dict, outputs: list) -> tuple[Path, str]:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    digest = fileio.config_digest(config)
    record = out / "config.resolved.json"
    if record.exists() and not args.force:
        with open(record) as fh:
            recorded = str(json.load(fh).get("config_digest"))
        if recorded != digest:
            raise ValueError(f"{out} holds the run of config {recorded[:12]}..., this command's "
                             f"config is {digest[:12]}... (rerun with --force to replace it)")
    existing = [str(out / name) for name in outputs if (out / name).exists()]
    if existing and not args.force:
        raise FileExistsError(f"refusing to overwrite {existing[0]} (rerun with --force)")
    fileio.write_json(record, {"config": config, "config_digest": digest})
    return out, digest


def _readout(config: dict, n_tokens: int) -> Readout:
    """The model's token readout, checked against the token count."""
    model = config["model"]
    if model["readout"] != "token":
        raise ValueError(f"readout kind must be 'token', got {model['readout']!r}")
    if model["t_star"] >= n_tokens:
        raise ValueError(f"t_star={model['t_star']} out of range for {n_tokens} tokens")
    return Readout.token(model["t_star"])


def _solver_config(config: dict, n_train: int) -> SolverConfig:
    """The solver's settings; solver.gp_limit means alpha = 0, the GP closed form."""
    s = config["solver"]
    alpha = 0.0 if s["gp_limit"] else s["alpha"]
    if alpha is None:
        alpha = n_train / config["model"]["n_hidden"]
    return SolverConfig(
        alpha=float(alpha), temperature=s["temperature"], sigma2=config["model"]["sigma2"],
        max_iter=s["max_iter"], seed=config["seed"],
    )


def _resolve_input(out: Path, name: str) -> Path:
    p = out / name
    if not p.exists():
        raise FileNotFoundError(f"input file {p} not found")
    return p


def _check_attention(logits: np.ndarray, model: dict, width: int) -> None:
    """Raise ValueError unless the logits fit the token width and the model's
    depth and head count."""
    check_logits(logits, width)
    if logits.shape[:2] != (model["depth"], model["n_heads"]):
        raise ValueError(
            f"attention file has {logits.shape[0]} layers x {logits.shape[1]} heads, "
            f"config wants {model['depth']} x {model['n_heads']}")


def _load_inputs(out: Path, config: dict):
    """(dataset, logits, readout) of a run directory, checked against the config.
    Commands call it before _prepare_out, so a rejected command leaves the
    run's record as it was."""
    dataset, _ = fileio.read_dataset(_resolve_input(out, DATASET_FILE))
    logits, _ = fileio.read_attention_specs(_resolve_input(out, ATTENTION_FILE))
    _check_attention(logits, config["model"], dataset.tokens.shape[1])
    return dataset, logits, _readout(config, dataset.tokens.shape[2])


def cmd_gen_data(args) -> int:
    config = _load_config(args)
    task = HmcTaskConfig(**config["task"])
    model = config["model"]
    _readout(config, task.n_tokens)  # rejects a readout that later commands would reject
    attention_path = config["attention"]["path"]
    if attention_path is None:
        logits = build_hmc_attention(task, model["n_heads"], model["depth"], config["seed"])
    else:
        logits, _ = fileio.read_attention_specs(attention_path)
    _check_attention(logits, model, task.token_width)
    out, digest = _prepare_out(args, config, [DATASET_FILE, ATTENTION_FILE])
    log.info("generating hidden-chain dataset (P=%d train, %d test)", task.n_train, task.n_test)
    dataset = gen_hmc_dataset(task, config["seed"])
    fileio.write_dataset(out / DATASET_FILE, dataset, digest)
    fileio.write_attention_specs(out / ATTENTION_FILE, logits, digest)
    log.info("wrote %s and %s", DATASET_FILE, ATTENTION_FILE)
    return 0


def cmd_pipeline(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    config = _load_config(args)
    outputs = ["features.apkf", "u1.apku", "u1.csv", "trace.csv", "predictor.csv",
               "predictor_summary.json", "alignment.csv", "head_scores.csv"]
    dataset, logits, readout = _load_inputs(Path(args.out), config)
    if dataset.n_examples == dataset.n_train:
        raise ValueError("the pipeline needs test examples; the dataset has none")
    solver_config = _solver_config(config, dataset.n_train)
    out, digest = _prepare_out(args, config, outputs)
    # the features are written block by block under a temporary name, renamed
    # once complete (an interrupted run leaves no features.apkf that reads as
    # whole), and read back by block; only the training block is held in memory
    depth, n_heads = logits.shape[:2]
    partial = out / "features.apkf.partial"
    rows = fileio.create_features(partial, n_heads, depth, dataset.token_width,
                                  dataset.n_examples, dataset.n_train, digest)
    compute_features(dataset.tokens, logits, readout, 0, out=rows, workers=args.threads)
    del logits  # not read again; the solve below is where memory peaks
    os.replace(partial, out / "features.apkf")
    features, _ = fileio.read_features(out / "features.apkf")
    train = features.train()
    y_train = dataset.train_labels.astype(float)

    params, trace = solve_or_gp(train, y_train, solver_config, solve=solve_saddle)
    if trace is None:
        log.info("GP limit; using the closed-form order parameters")
    else:
        log.info("solver finished at alpha=%.4g: converged=%s iterations=%d evaluations=%d",
                 solver_config.alpha, trace.converged, trace.n_iter, trace.n_eval)

    fileio.write_order_parameters(out / "u1.apku", params, digest)
    fileio.write_u1_csv(out / "u1.csv", params.u1, features.n_heads, features.depth, digest)
    if trace is not None:
        fileio.write_trace_csv(out / "trace.csv", trace, digest)

    report = evaluate_predictor(
        params.u1, features, y_train, dataset.test_indices, dataset.test_labels,
        solver_config.temperature, train=train,
    )
    fileio.write_predictor_csv(out / "predictor.csv", dataset.test_indices, report.means,
                               report.variances, dataset.test_labels, digest)
    fileio.write_json(out / "predictor_summary.json", {
        "accuracy": report.accuracy, "temperature": solver_config.temperature,
        "n_train": dataset.n_train, "n_eval": int(len(report.means)),
        "alpha": solver_config.alpha, "solver_used": trace is not None,
        "converged": None if trace is None else bool(trace.converged),
        "solver_iters": None if trace is None else trace.n_iter,
        "solver_evals": None if trace is None else trace.n_eval,
        "config_digest": digest,
    })

    k_train = total_kernel(params.u1, train)
    evals, overlaps = kernel_task_alignment(k_train, y_train)
    fileio.write_alignment_csv(out / "alignment.csv", evals, overlaps, digest)
    fileio.write_head_scores_csv(
        out / "head_scores.csv", head_scores(params.u1, features.n_heads, features.depth), digest)
    log.info("pipeline complete: accuracy=%.4f", report.accuracy)
    if args.strict and trace is not None and not trace.converged:
        raise SolverFailure(
            f"strict mode: the saddle-point solve did not converge in {trace.n_iter} iterations")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    dataset, logits, readout = _load_inputs(Path(args.out), config)
    if dataset.n_examples == dataset.n_train:
        raise ValueError("the sweep needs validation examples; the dataset has none")
    solver_config = _solver_config(config, dataset.n_train)
    grid = tuple(config["temperature_grid"])
    if not grid:
        raise ValueError("temperature grid is empty")
    for t in grid:
        replace(solver_config, temperature=float(t))  # rejects a nonpositive temperature
    out, digest = _prepare_out(args, config, ["sweep.csv", "sweep_summary.json"])
    features = compute_features(dataset.tokens, logits, readout, dataset.n_train)
    del logits  # not read again; the solve below is where memory peaks
    result = temperature_sweep(
        features, dataset.train_labels.astype(float), dataset.test_indices,
        dataset.test_labels, solver_config, grid=grid)
    fileio.write_sweep_csv(out / "sweep.csv", result, digest)
    fileio.write_json(out / "sweep_summary.json", {
        "best_temperature": result.best_temperature, "best_accuracy": result.best_accuracy,
        "config_digest": digest,
    })
    log.info("sweep complete: best T=%.4g accuracy=%.4f",
             result.best_temperature, result.best_accuracy)
    unconverged = [row["temperature"] for row in result.rows if not row["converged"]]
    if args.strict and unconverged:
        raise SolverFailure(
            f"strict mode: the saddle-point solve did not converge at T = {unconverged}")
    return 0


def cmd_sample(args) -> int:
    config = _load_config(args)
    outputs = ["u_est.csv", "predictor_empirical.csv", "sample_summary.json"]
    dataset, logits, readout = _load_inputs(Path(args.out), config)
    hmc_config = HmcConfig(n_hidden=config["model"]["n_hidden"], sigma2=config["model"]["sigma2"],
                           seed=config["seed"], **config["sampler"])
    out, digest = _prepare_out(args, config, outputs)
    train = np.asarray(dataset.tokens[: dataset.n_train])
    test = None
    if dataset.n_examples > dataset.n_train:
        test = compute_features(dataset.tokens[dataset.n_train :], logits, readout, 0)
    log.info("sampling %d chains x (%d warmup + %d samples)",
             hmc_config.n_chains, hmc_config.n_warmup, hmc_config.n_samples)
    samples = hmc_sample(train, dataset.train_labels.astype(float), logits, readout, hmc_config)

    u_est = empirical_order_parameter(samples)
    fileio.write_u1_csv(out / "u_est.csv", u_est, samples.n_heads, samples.depth, digest)

    means = variances = ()
    if test is not None:
        means, variances = empirical_predictor(samples, test)
    fileio.write_predictor_csv(out / "predictor_empirical.csv", dataset.test_indices, means,
                               variances, dataset.test_labels, digest)

    div_frac = float(samples.divergences.sum()) / (
        hmc_config.n_chains * (hmc_config.n_warmup + hmc_config.n_samples))
    fileio.write_json(out / "sample_summary.json", {
        "n_kept": samples.n_kept, "acceptance": [float(a) for a in samples.acceptance],
        "divergences": [int(d) for d in samples.divergences],
        "divergence_fraction": div_frac, "step_sizes": [float(e) for e in samples.step_sizes],
        "config_digest": digest,
    })
    log.info("sampling complete: %d kept draws, divergence fraction %.3g",
             samples.n_kept, div_frac)
    if args.strict and div_frac > 0.10:
        raise FloatingPointError(
            f"strict mode: divergence fraction {div_frac:.3g} exceeds 10%")
    return 0


def cmd_verify(args) -> int:
    out = Path(args.out)
    record_path = out / "config.resolved.json"
    with open(record_path) as fh:
        record = json.load(fh)
    want = fileio.config_digest(record["config"])
    if want != record.get("config_digest"):
        raise ValueError(f"{record_path}: recorded digest does not match the config")
    checked = 0
    mismatched = []
    readers = {
        ".apkd": lambda p: fileio.read_dataset(p)[1],
        ".apkw": lambda p: fileio.read_attention_specs(p)[1],
        ".apkf": lambda p: fileio.read_features(p)[1],
        ".apku": lambda p: fileio.read_order_parameters(p)[1],
        ".csv": fileio.read_csv_digest,
    }
    for path in sorted(out.iterdir()):
        reader = readers.get(path.suffix)
        if reader is None:
            if path.suffix == ".json" and path.name != "config.resolved.json":
                with open(path) as fh:
                    payload = json.load(fh)
                got = payload.get("config_digest", fileio.ZERO_DIGEST)
            else:
                continue
        else:
            got = reader(path)
        checked += 1
        if got != want:
            mismatched.append(path.name)
    if mismatched:
        raise ValueError(f"digest mismatch in: {', '.join(mismatched)}")
    print(f"verified {checked} artifacts against digest {want[:12]}...")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnpaths",
        description="attention-path kernels: data generation, saddle solving, sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": {"default": None, "help": "JSON config file (defaults apply)"},
        "--seed": {"type": int, "default": None, "help": "override the config seed"},
        "--force": {"action": "store_true", "help": "overwrite existing outputs"},
        "--strict": {"action": "store_true", "help": "fail on quality warnings"},
        "--threads": {"type": int, "default": None,
                      "help": "feature worker cap (default: every usable CPU)"},
        "--out": {"required": True, "help": "run directory"},
    }
    common = ("--config", "--seed", "--force")
    # each command takes only the flags it reads
    for name, fn, takes in [
        ("gen-data", cmd_gen_data, common),
        ("pipeline", cmd_pipeline, common + ("--strict", "--threads")),
        ("sweep", cmd_sweep, common + ("--strict",)),
        ("sample", cmd_sample, common + ("--strict",)),
        ("verify", cmd_verify, ()),
    ]:
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag in takes + ("--out",):
            p.add_argument(flag, **flags[flag])
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("APK_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        log.error("config error: %s", err)
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, SolverFailure, FloatingPointError) as err:
        log.error("numeric failure: %s", err)
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        log.error("i/o error: %s", err)
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
