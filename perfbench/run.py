"""Benchmark of the attnpaths CLI: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload pinned-solve [--seed 0] [--seconds 20] [--trace 0]
    python3 perfbench/run.py --workload all      # every workload, end-to-end table

Each workload generates its dataset with `attnpaths gen-data` (the set-up) and
then repeats its timed command, each in a fresh interpreter, one at a time: a
closed loop with one client.  The seed is the CLI's --seed, so the same seed
gives the same inputs.  Commands inherit the thread variables of this process
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS); they are recorded on
the `env` line with the rest of the environment.

--trace 0 measures for --seconds seconds (at least two repeats) and reports the
end-to-end metrics.  --trace 1 runs the command once untraced and once traced
(see traced_cli.py), repeats the traced run with the BLAS thread variables set
to 1 (`blas1.` metrics), on gp-wide runs it once with `--threads <nproc>`, and
reports the per-layer metrics.  Every run's outputs are checked; the last line of
standard output is one JSON object, and the exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import BUSY_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INPUTS = ("dataset.apkd", "attention.apkw")
SETUP_REPEATS = 3
MIN_REPEATS = 2
COMMAND_TIMEOUT_S = 150.0
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One CLI configuration and the floors its outputs must meet.

    The floors are set for these short runs; criterion 8's 0.95 correlation
    needs chains far longer than a benchmark run.
    """

    command: str
    config: dict
    accuracy_floor: float
    theory_corr_floor: float
    u_rel_err_ceiling: float = float("inf")
    needs_converged: bool = False
    threads_reference: bool = False  # the traced run also times `--threads <nproc>`


WORKLOADS = {
    # Solver-bound: the default pipeline (P=100 train / 1000 test, H=L=2,
    # N=10, alpha=10, T=0.01) spends most of its time in solve_saddle.
    "pinned-solve": Workload("pipeline", {}, accuracy_floor=0.90,
                             theory_corr_floor=0.999999, needs_converged=True),
    # No solver: the GP closed form over 3000 test examples, so the time goes
    # to compute_features and kernel_blocks; a solver change should not move it.
    "gp-wide": Workload("pipeline", {"solver": {"gp_limit": True}, "task": {"n_test": 3000}},
                        accuracy_floor=0.75, theory_corr_floor=0.999999, threads_reference=True),
    # Sampler-bound at criterion-8 training size.  The chains are short, so
    # each adds about one independent draw: many short chains give a sampled
    # predictor that tracks the theory far more closely, and steadily across
    # seeds, than a few long ones of about the same cost.  400 test examples
    # reduce the part of that spread that comes from the test sample.
    "posterior-sample": Workload(
        "sample",
        {"task": {"n_train": 50, "n_test": 400},
         "sampler": {"n_chains": 12, "n_warmup": 15, "n_samples": 5, "thin": 1,
                     "n_leapfrog": 12}},
        accuracy_floor=0.75, theory_corr_floor=0.85, u_rel_err_ceiling=0.7),
}

@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    code: int
    log: Path


class SetupFailed(RuntimeError):
    """gen-data failed, so no timed command can run."""


@dataclass
class Checks:
    """Output checks of one workload run, grouped by the CLI run they judge."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def run(self, label: str, proc: Proc) -> bool:
        self.attempted += 1
        return self.expect(label, proc.code == 0, f"exit code {proc.code} (log {proc.log})")

    def expect(self, label: str, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append((label, message))
        return ok

    def failed_runs(self) -> set:
        return {label for label, _ in self.failures}


def cli_env(blas1: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if blas1:
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_cli(args: list, log: Path, env: dict, spans: Path | None = None) -> Proc:
    """One attnpaths command in a fresh interpreter; wall time includes its start."""
    if spans is None:
        argv = [sys.executable, "-m", "attnpaths.cli", *map(str, args)]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *map(str, args)]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return Proc(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode, log=log)


def library(*args) -> dict:
    """Run a library.py command in its own process and return its JSON output."""
    proc = subprocess.run([sys.executable, str(HERE / "library.py"), *map(str, args)],
                          env=cli_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def digest_dir(path: Path, skip: tuple = ()) -> dict:
    out = {}
    for entry in sorted(path.iterdir()):
        if entry.name in skip:
            continue
        h = hashlib.sha256()
        with open(entry, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[entry.name] = h.hexdigest()
    return out


def link_inputs(setup: Path, run: Path) -> None:
    run.mkdir()
    for name in INPUTS:
        os.link(setup / name, run / name)


class Bench:
    """One workload at one seed, in its own work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config_path = work / "config.json"
        with open(self.config_path, "w") as fh:
            json.dump(self.workload.config, fh)
        self.checks = Checks()

    def args(self, command: str, out: Path) -> list:
        return [command, "--config", self.config_path, "--seed", self.seed, "--out", out]

    def gen_data(self, tag: str, env: dict, spans: Path | None = None) -> tuple[Path, Proc]:
        out = self.work / tag
        proc = run_cli(self.args("gen-data", out), self.work / f"{tag}.log", env, spans)
        if not self.checks.run(tag, proc):
            raise SetupFailed(tag)
        return out, proc

    def command(self, tag: str, setup: Path, env: dict, spans: Path | None = None,
                extra: tuple = ()) -> tuple[Path, Proc]:
        out = self.work / tag
        link_inputs(setup, out)
        proc = run_cli(self.args(self.workload.command, out) + list(extra),
                       self.work / f"{tag}.log", env, spans)
        self.checks.run(tag, proc)
        return out, proc

    def check_outputs(self, tag: str, setup: Path, out: Path) -> dict:
        """verify, then the quality floors, on one run directory; returns the quality."""
        proc = run_cli(["verify", "--out", out], self.work / f"{tag}-verify.log", cli_env())
        self.checks.expect(tag, proc.code == 0, f"verify failed (log {proc.log})")
        try:
            q = library("quality", self.workload.command, setup, out)
        except subprocess.SubprocessError as err:
            self.checks.expect(tag, False, f"cannot read the outputs: {err}")
            return {"accuracy": 0.0, "theory_corr": 0.0, "u_rel_err": 0.0,
                    "converged": None}
        w = self.workload
        self.checks.expect(tag, q["accuracy"] >= w.accuracy_floor,
                           f"accuracy {q['accuracy']:.4f} below {w.accuracy_floor}")
        self.checks.expect(tag, q["theory_corr"] >= w.theory_corr_floor,
                           f"theory_corr {q['theory_corr']:.6f} below {w.theory_corr_floor}")
        self.checks.expect(tag, q["u_rel_err"] <= w.u_rel_err_ceiling,
                           f"u_rel_err {q['u_rel_err']:.4f} above {w.u_rel_err_ceiling}")
        if w.needs_converged:
            self.checks.expect(tag, q["converged"] is True, "solver did not converge")
        return q

    def same_outputs(self, tag: str, want: dict, out: Path) -> None:
        got = digest_dir(out, skip=INPUTS)
        self.checks.expect(tag, got == want, "artifacts differ from the first run")

    def setup(self) -> tuple[Path, list]:
        """Generate the dataset SETUP_REPEATS times; returns the last run directory."""
        times, first, keep = [], None, None
        for i in range(SETUP_REPEATS):
            out, proc = self.gen_data(f"setup{i}", cli_env())
            times.append(proc.wall_s)
            digests = digest_dir(out)
            first = first or digests
            if not self.checks.expect(out.name, digests == first, "dataset differs from setup0"):
                raise SetupFailed(out.name)
            if keep is not None:
                shutil.rmtree(keep)
            keep = out
        return keep, times

    def end_to_end(self, seconds: float) -> tuple[dict, int]:
        """End-to-end metrics and the number of failed CLI runs."""
        setup, setup_times = self.setup()
        os.sync()  # so write-back of the set-up's files does not overlap the timed runs
        walls, rss, first = [], [], None
        start = time.perf_counter()
        while len(walls) < MIN_REPEATS or time.perf_counter() - start < seconds:
            tag = f"rep{len(walls)}"
            out, proc = self.command(tag, setup, cli_env())
            walls.append(proc.wall_s)
            rss.append(proc.peak_rss_mb)
            if first is None:
                first, first_dir = digest_dir(out, skip=INPUTS), out
            else:
                self.same_outputs(tag, first, out)
                shutil.rmtree(out)
        print(f"samples wall_s n={len(walls)} {' '.join(f'{w:.4f}' for w in walls)}; "
              f"setup_s n={len(setup_times)} {' '.join(f'{w:.4f}' for w in setup_times)}",
              flush=True)
        q = self.check_outputs("rep0", setup, first_dir)
        # Every repeat is compared with rep0, so rep0's verify and quality
        # checks hold for all of them: a failure there fails every repeat.
        failed = self.checks.failed_runs()
        if "rep0" in failed:
            failed |= {f"rep{i}" for i in range(len(walls))}
        attempted = self.checks.attempted
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(rss),
            "ok_frac": (attempted - len(failed)) / attempted,
            "accuracy": q["accuracy"],
            "theory_corr": q["theory_corr"],
        }
        return metrics, len(failed)

    def traced(self) -> tuple[dict, int]:
        """Per-layer metrics and the number of failed CLI runs."""
        spans = {tag: self.work / f"{tag}.spans.json"
                 for tag in ("setup", "traced", "blas1-setup", "blas1")}
        setup, gen = self.gen_data("setup", cli_env(), spans["setup"])
        os.sync()
        plain_dir, plain = self.command("plain", setup, cli_env())
        traced_dir, traced = self.command("traced", setup, cli_env(), spans["traced"])
        self.same_outputs("traced", digest_dir(plain_dir, skip=INPUTS), traced_dir)
        q = self.check_outputs("plain", setup, plain_dir)
        metrics = layer_metrics([load(spans["setup"]), load(spans["traced"])],
                                gen.wall_s + traced.wall_s)
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        metrics["sampler.u_rel_err"] = q["u_rel_err"]
        metrics.update(sample_summary(plain_dir))

        blas1_setup, gen1 = self.gen_data("blas1-setup", cli_env(blas1=True), spans["blas1-setup"])
        _, cmd1 = self.command("blas1", blas1_setup, cli_env(blas1=True), spans["blas1"])
        blas1 = layer_metrics([load(spans["blas1-setup"]), load(spans["blas1"])],
                              gen1.wall_s + cmd1.wall_s)
        metrics.update({f"blas1.{name}": blas1[name] for name in BUSY_METRICS})

        metrics["cli.threads_nproc.wall_s"] = 0.0
        if self.workload.threads_reference:
            nproc = len(os.sched_getaffinity(0))
            _, threaded = self.command("threads", setup, cli_env(), extra=("--threads", nproc))
            metrics["cli.threads_nproc.wall_s"] = threaded.wall_s
        return metrics, len(self.checks.failed_runs())


def sample_summary(out: Path) -> dict:
    """Acceptance (accepted over proposed) and divergence fraction; 0 without a sampler."""
    path = out / "sample_summary.json"
    if not path.exists():
        return {"sampler.acceptance": 0.0, "sampler.divergence_frac": 0.0}
    with open(path) as fh:
        summary = json.load(fh)
    return {"sampler.acceptance": statistics.fmean(summary["acceptance"]),
            "sampler.divergence_frac": summary["divergence_fraction"]}


def load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 workload: Workload | None = None) -> dict:
    """One workload's result object; `workload` overrides WORKLOADS[name]."""
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload or WORKLOADS[name], seed, work)
    metrics = {}
    try:
        metrics, failed = bench.traced() if trace else bench.end_to_end(seconds)
    except SetupFailed:
        failed = len(bench.checks.failed_runs())
    finally:
        for label, message in bench.checks.failures:
            print(f"check failed [{name} {label}]: {message}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
    checks = bench.checks
    units = declared_units()
    return {
        "correct": bool(metrics) and not checks.failures,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }


def declared_units() -> dict:
    """Each metric's unit, as BENCHMARK.json declares it."""
    declared = load(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed, passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed loop runs (at least two repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "attnpaths" / "cli.py").is_file():
        print(f"attnpaths sources not found under {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(library("env"), sort_keys=True), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        for metric, m in results[name]["metrics"].items():
            print(f"{name:17s} {metric:40s} {m['value']:14.6g} {m['unit']}", flush=True)
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
