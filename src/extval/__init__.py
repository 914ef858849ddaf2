"""extval: treatment-effect transport to external target populations
under positivity violations.

The pipeline: fit sampling/propensity/outcome GLMs, divide the target
sample into unrepresented / underrepresented / well-represented groups
by solving a score-product threshold, estimate the well-represented ATE
with (augmented) self-normalized weighting and M-estimation or
bootstrap variances, then extend inference to the full target
population through proportional-difference sensitivity analysis.
"""

from .data import Dataset, make_dataset
from .errors import (
    ConfigError,
    DataError,
    DegenerateScoresError,
    DimensionError,
    EmptyGroupError,
    ExtvalError,
    NegativeVarianceError,
    NotConvergedError,
    NumericalError,
    SeparationError,
    SingularInformationError,
    SingularSystemError,
    StationarityError,
    UnattainableProportionError,
    ZeroWeightError,
)
from .estimators import (
    EstimateReport,
    StackedSystem,
    augmented_ipw,
    bootstrap_ci,
    build_stacked_system,
    hajek_ipw,
    sandwich_variance,
    trimmed_aipw,
    trimmed_ipw,
)
from .glm import (
    GlmFamily,
    GlmFit,
    fit_glm,
    fit_outcome_models,
    fit_propensity_score,
    fit_sampling_score,
    predict_mean,
)
from .partition import (
    PartitionResult,
    partition_population,
    solve_threshold,
)
from .sensitivity import (
    SensitivityEstimate,
    SensitivityGrid,
    SensitivityInput,
    epd_estimate,
    extrapolate_group_ate,
    gpd_estimate,
    sensitivity_sweep,
)
from .simulation import (
    CohortTruth,
    DgpConfig,
    StudyCell,
    StudyConfig,
    StudyReport,
    calibrate_intercept,
    dgp_covariate_sampler,
    efficiency_bound_mc,
    generate_cohort,
    run_study,
    true_tau_oracle,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
