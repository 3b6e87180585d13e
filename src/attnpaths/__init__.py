"""Bayesian theory of deep multi-head linear-value attention, organized by attention paths.

A path picks one head per layer; the network output decomposes into a sum of
per-path linear predictors, the Bayesian posterior over readout weights is a
kernel machine built from path features, and the finite-width posterior is
characterized by a path-pair order parameter solved from a saddle-point action.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are unset, before its first numpy import:
compute_features runs one worker per CPU, each on one BLAS thread.  Values
the user set are kept.  They take effect only where numpy was not imported
first; otherwise BLAS keeps the thread count it started with.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .paths import path_heads
from .model import Readout
from .kernel import (
    PathFeatureMatrix,
    compute_features,
    path_features,
    path_pair_gram,
    total_kernel,
    kernel_blocks,
    kernel_task_alignment,
)
from .solver import (
    OrderParameterSet,
    SolverConfig,
    SolveTrace,
    SolverFailure,
    action,
    action_gradient,
    solve_saddle,
)
from .predictor import (
    PredictorReport,
    SweepResult,
    predictor_mean,
    predictor_variance,
    classification_accuracy,
    evaluate_predictor,
    temperature_sweep,
)
from .analysis import (
    head_scores,
    prune_heads,
)
from .data import (
    HmcTaskConfig,
    SequenceDataset,
    state_vectors,
    sample_hidden_chain,
    gen_hmc_dataset,
    build_good_heads,
    build_random_head,
    build_hmc_attention,
)
from .sampler import (
    HmcConfig,
    PosteriorSamples,
    log_posterior,
    leapfrog,
    run_hmc,
    hmc_sample,
    empirical_order_parameter,
    empirical_predictor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
