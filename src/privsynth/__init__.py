"""Differentially private synthetic data for marginal query workloads.

The pipeline: encode a categorical dataset one-hot, compile a workload of
marginal (or 1-out-of-k threshold) queries to differentiable product queries,
answer a budgeted selection of them with calibrated Gaussian noise, project
the noisy answers onto a relaxed synthetic dataset by gradient descent, and
optionally round that relaxation back to categorical rows.
"""

from .engine import (
    FitConfig,
    FitResult,
    InfeasibleConfigError,
    conjectured_answers,
    fit,
    load_relaxed_csv,
    replay,
    save_relaxed_csv,
)
from .evaluation import ErrorReport, SweepSpec, max_error, run_sweep
from .privacy import (
    BudgetError,
    NoiseSource,
    PrivacyBudget,
    eps_from_rho_delta,
    gaussian_mechanism,
    gumbel_sample,
    report_noisy_max,
    rho_from_eps_delta,
)
from .projection import (
    AdamState,
    ProjectionConfig,
    ProjectionResult,
    normalize_rows,
    random_init,
    relaxed_projection,
    sparsemax,
    sparsemax_rows,
)
from .queries import (
    ONE_OUT_OF_K,
    PRODUCT,
    CompiledQuery,
    MarginalQuery,
    Workload,
    WorkloadError,
    compile_marginal,
    eval_discrete,
    eval_relaxed,
    loss_and_gradient,
    random_workload,
)
from .rounding import RoundingConfig, RoundingError, randomized_round
from .schema import (
    DiscreteDataset,
    FeatureSpec,
    OneHotDataset,
    RelaxedDataset,
    Schema,
    SchemaError,
    bin_numeric,
    decode,
    decode_row,
    load_csv,
    one_hot,
    save_csv,
    schema_from_cardinalities,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BudgetError",
    "CompiledQuery",
    "DiscreteDataset",
    "ErrorReport",
    "FeatureSpec",
    "FitConfig",
    "FitResult",
    "InfeasibleConfigError",
    "MarginalQuery",
    "NoiseSource",
    "ONE_OUT_OF_K",
    "OneHotDataset",
    "PRODUCT",
    "PrivacyBudget",
    "ProjectionConfig",
    "ProjectionResult",
    "RelaxedDataset",
    "RoundingConfig",
    "RoundingError",
    "Schema",
    "SchemaError",
    "SweepSpec",
    "Workload",
    "WorkloadError",
    "bin_numeric",
    "compile_marginal",
    "conjectured_answers",
    "decode",
    "decode_row",
    "eps_from_rho_delta",
    "eval_discrete",
    "eval_relaxed",
    "fit",
    "gaussian_mechanism",
    "gumbel_sample",
    "load_csv",
    "load_relaxed_csv",
    "loss_and_gradient",
    "max_error",
    "normalize_rows",
    "one_hot",
    "random_init",
    "random_workload",
    "randomized_round",
    "relaxed_projection",
    "replay",
    "report_noisy_max",
    "rho_from_eps_delta",
    "run_sweep",
    "save_csv",
    "save_relaxed_csv",
    "schema_from_cardinalities",
    "sparsemax",
    "sparsemax_rows",
]
