"""The benchmark's own work through numpy and the attnpaths library, in a process of its own.

    python3 perfbench/library.py env
    python3 perfbench/library.py quality COMMAND SETUP_DIR RUN_DIR

A child's peak resident memory, as wait4 reports it, includes the peak of the
process that started it.  The driver (run.py) therefore never imports numpy or
attnpaths: the environment record and the quality of a run's outputs are
computed here and printed as one JSON line.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from run import THREAD_VARS


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def read_csv_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def quality(command: str, setup: Path, out: Path) -> dict:
    """accuracy, theory_corr and u_rel_err of one run's artifacts.

    For `pipeline`, the theory predictor is recomputed through the library
    from the run's own features and U, so theory_corr checks the CLI's
    predictor output, and there is no sampled U (u_rel_err is 0).  For
    `sample`, the theory is solved here at alpha = P/N and compared with the
    sampled predictor means and U_est.
    """
    from attnpaths import fileio
    from attnpaths.kernel import compute_features
    from attnpaths.model import Readout
    from attnpaths.predictor import classification_accuracy, evaluate_predictor
    from attnpaths.solver import SolverConfig, solve_saddle

    with open(out / "config.resolved.json") as fh:
        config = json.load(fh)["config"]
    dataset, _ = fileio.read_dataset(setup / "dataset.apkd")
    y_train = dataset.train_labels.astype(float)
    if command == "pipeline":
        features, _ = fileio.read_features(out / "features.apkf")
        params, _ = fileio.read_order_parameters(out / "u1.apku")
        theory = evaluate_predictor(params.u1, features, y_train, dataset.test_indices,
                                    dataset.test_labels, config["solver"]["temperature"])
        got = np.array([float(r["mean"]) for r in read_csv_rows(out / "predictor.csv")])
        with open(out / "predictor_summary.json") as fh:
            summary = json.load(fh)
        return {"accuracy": summary["accuracy"], "converged": summary["converged"],
                "theory_corr": float(np.corrcoef(theory.means, got)[0, 1]),
                "u_rel_err": 0.0}

    specs, _ = fileio.read_attention_specs(setup / "attention.apkw")
    readout = (Readout.average() if config["model"]["readout"] == "average"
               else Readout.token(config["model"]["t_star"]))
    features = compute_features(dataset.tokens, specs, readout, dataset.n_train)
    temperature = config["sampler"]["temperature"]  # the temperature `sample` samples at
    solver = SolverConfig(alpha=dataset.n_train / config["model"]["n_hidden"],
                          temperature=temperature, sigma2=config["model"]["sigma2"],
                          seed=config["seed"])
    params, _ = solve_saddle(features, y_train, solver)
    theory = evaluate_predictor(params.u1, features, y_train, dataset.test_indices,
                                dataset.test_labels, temperature)
    rows = read_csv_rows(out / "predictor_empirical.csv")
    position = {int(i): k for k, i in enumerate(dataset.test_indices)}
    want = theory.means[[position[int(r["example"])] for r in rows]]
    got = np.array([float(r["mean"]) for r in rows])
    labels = np.array([int(r["label"]) for r in rows])
    u_est = np.array([[float(v) for v in list(r.values())[1:]]
                      for r in read_csv_rows(out / "u_est.csv")])
    u1 = params.u1
    return {"accuracy": classification_accuracy(got, labels), "converged": None,
            "theory_corr": float(np.corrcoef(want, got)[0, 1]),
            "u_rel_err": float(np.linalg.norm(u_est - u1) / np.linalg.norm(u1))}


def main(argv: list[str]) -> int:
    if argv == ["env"]:
        result = environment()
    elif len(argv) == 4 and argv[0] == "quality":
        result = quality(argv[1], Path(argv[2]), Path(argv[3]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
