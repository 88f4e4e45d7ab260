"""Piecewise exponential survival modeling.

Exact evaluation and truncated sampling of the piecewise exponential
distribution, three Bayesian survival models (independent-prior,
gamma-chain frailty, log-normal random-walk frailty) fitted by a
seed-stable Gibbs/slice sampler, posterior diagnostics, and a CLI with a
replicated simulation harness.
"""

__version__ = "0.1.0"

from .data import (
    DataFormatError,
    SurvivalDataset,
    SurvivalRecord,
    load_kidney,
    read_dataset_csv,
    write_dataset_csv,
)
from .diagnostics import (
    InsufficientDataError,
    SchemaError,
    Summary,
    effective_sample_size,
    hpd_interval,
    summarize,
)
from .distribution import (
    InvalidParamsError,
    PiecewiseExponential,
    TimeGrid,
    UnreachableMassError,
    Violation,
    validate_params,
)
from .mcmc import (
    ChainAbortError,
    ChainStore,
    InvariantViolationError,
    McmcConfig,
    run_chain,
    run_chains,
    update_scalar_slice,
)
from .models import (
    FAMILIES,
    FAMILY_GAMMA_CHAIN,
    FAMILY_LOGNORMAL_RW,
    FAMILY_SIMPLE,
    HyperParams,
    ModelSpec,
    ParamState,
    SufficientStats,
    default_grid,
    initial_state,
    joint_log_density,
    log_likelihood,
    log_prior,
    record_weights,
    sufficient_stats,
    zeros_trick_loglik,
)

__all__ = [name for name in dir() if not name.startswith("_")]
