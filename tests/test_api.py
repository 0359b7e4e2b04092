import importlib
import types

import srlab

PUBLIC_NAMES = [
    "CaseId", "ContourGrid", "DIST_FORMAT_VERSION", "DOT_SIZES", "DeterministicMode", "ExperimentReport",
    "LoadedDistribution", "MopConfig", "NewtonConfig", "Preset", "ProbabilityTable", "PsoConfig", "RandomStream",
    "RoundingMode", "RoundingSpec", "SQRT_TEST_VALUES", "SR", "StatsSummary", "VarianceBoundGrid",
    "WorstCaseBranches", "bias_of_p", "contour_grid", "draws_at", "gen_case_inputs", "gen_sine_vectors",
    "grid_fraction", "objective", "optimize_table", "preset_config", "pso_minimize", "read_distribution",
    "round_values",
    "run_inner_product_experiment", "run_sqrt_experiment", "run_summation_experiment", "sr_variance_theoretical",
    "stochastic_round_with", "summarize", "validate_variance_bound", "variance_bound", "variance_of_p",
    "worst_case_rel_error", "write_csv", "write_distribution",
]


def test_public_surface():
    # a stale __all__ entry breaks star imports and anything that wraps the public functions by name
    for name in ("cli", "distopt", "experiments", "files", "rounding", "stats", "streams"):
        module = importlib.import_module(f"srlab.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"srlab.{name}.__all__ names missing {public!r}"
    exported = sorted(n for n, v in vars(srlab).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)
