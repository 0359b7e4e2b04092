"""srlab: rounding kernels, optimized stochastic-rounding distributions,
and round-off error experiments on uniform grids."""

from .distopt import (
    MopConfig,
    Preset,
    bias_of_p,
    objective,
    optimize_table,
    preset_config,
    variance_of_p,
)
from .experiments import (
    DOT_SIZES,
    SQRT_TEST_VALUES,
    CaseId,
    ExperimentReport,
    VarianceBoundGrid,
    gen_case_inputs,
    gen_sine_vectors,
    run_inner_product_experiment,
    run_sqrt_experiment,
    run_summation_experiment,
    validate_variance_bound,
)
from .files import (
    DIST_FORMAT_VERSION,
    LoadedDistribution,
    read_distribution,
    write_csv,
    write_distribution,
)
from .rounding import (
    SR,
    DeterministicMode,
    ProbabilityTable,
    RoundingMode,
    RoundingSpec,
    grid_fraction,
    round_values,
)
from .stats import (
    ContourGrid,
    StatsSummary,
    WorstCaseBranches,
    contour_grid,
    sr_variance_theoretical,
    summarize,
    variance_bound,
    worst_case_rel_error,
)
from .streams import RandomStream, draws_at

__version__ = "0.1.0"
