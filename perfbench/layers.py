"""Per-layer metrics from the spans of traced attnpaths commands.

The layers are the attnpaths modules.  Every `<span>.s` metric is a self time,
so the `.s` metrics plus `cli.self_s` (interpreter start, imports, argument
parsing, config and digests: whatever no span covers) add up to the traced
wall time.
"""

from __future__ import annotations

from tracing import WRAPPED, has_ancestor, self_times, top_level_time

SPAN_NAMES = sorted({name for _, _, name in WRAPPED} | {"fileio.read", "fileio.write"})

# Busy-time metrics, repeated under the single-threaded BLAS reference run.
BUSY_METRICS = [f"{name}.s" for name in SPAN_NAMES] + [
    "cli.self_s", "trace.wall_s", "solver.eval_ms", "sampler.log_posterior.ms"]


def layer_metrics(dumps: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer metrics summed over the traced commands of one workload.

    dumps are the Tracer.dump() records of each traced command and traced_wall
    the sum of their wall times, interpreter start included.
    """
    out = {f"{name}.s": 0.0 for name in SPAN_NAMES}
    calls = dict.fromkeys(SPAN_NAMES, 0)
    inclusive = dict.fromkeys(SPAN_NAMES, 0.0)
    evals = iters = 0
    converged = []
    flops = 0.0
    useful = computed = 0
    examples = {"kernel.compute_features": 0, "model.attention_stack_batch": 0}
    nbytes = {"fileio.read": 0, "fileio.write": 0}
    leapfrogs = 0
    covered = 0.0
    for dump in dumps:
        spans = dump["spans"]
        covered += top_level_time(spans)
        leapfrogs += dump["counts"].get("sampler.leapfrog", 0)
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            name, attrs = span["name"], span["attrs"]
            out[f"{name}.s"] += own
            calls[name] += 1
            inclusive[name] += span["end"] - span["start"]
            if name == "kernel.total_kernel":
                flops += attrs.get("flops", 0.0)
                evals += has_ancestor(spans, i, "solver.solve_saddle")
            elif name == "solver.solve_saddle":
                iters += attrs.get("iters", 0)
                converged.append(attrs.get("converged", False))
            elif name == "kernel.kernel_blocks":
                useful += attrs.get("useful", 0)
                computed += attrs.get("computed", 0)
            if name in examples:
                examples[name] += attrs.get("examples", 0)
            if name in nbytes:
                nbytes[name] += attrs.get("bytes", 0)

    solve_s = inclusive["solver.solve_saddle"]
    n_logp = calls["sampler.log_posterior"]
    out.update({
        "solver.evals": evals,
        "solver.iters": iters,
        "solver.warmup_evals": evals - iters,
        "solver.eval_ms": 1000.0 * solve_s / evals if evals else 0.0,
        "solver.converged": 1 if converged and all(converged) else 0,
        "kernel.total_kernel.calls": calls["kernel.total_kernel"],
        "kernel.total_kernel.gflop": flops / 1e9,
        "kernel.compute_features.examples": examples["kernel.compute_features"],
        "kernel.kernel_blocks.useful_frac": useful / computed if computed else 0.0,
        "model.attention_stack_batch.examples": examples["model.attention_stack_batch"],
        "sampler.log_posterior.calls": n_logp,
        "sampler.log_posterior.ms": 1000.0 * inclusive["sampler.log_posterior"] / n_logp
        if n_logp else 0.0,
        "sampler.leapfrog.calls": leapfrogs,
        "fileio.read.bytes": nbytes["fileio.read"],
        "fileio.write.bytes": nbytes["fileio.write"],
        "cli.self_s": traced_wall - covered,
        "trace.wall_s": traced_wall,
    })
    return out
