import importlib
import types

import srlab

PUBLIC_NAMES = [
    "CaseId", "ContourGrid", "DIST_FORMAT_VERSION", "DOT_SIZES", "DeterministicMode", "ExperimentReport",
    "LoadedDistribution", "MopConfig", "Preset", "ProbabilityTable", "PsoConfig", "RandomStream",
    "RoundingMode", "RoundingSpec", "SQRT_TEST_VALUES", "SR", "StatsSummary", "VarianceBoundGrid",
    "WorstCaseBranches", "bias_of_p", "contour_grid", "draws_at", "gen_case_inputs", "gen_sine_vectors",
    "grid_fraction", "objective", "optimize_table", "preset_config", "read_distribution", "round_values",
    "run_inner_product_experiment", "run_sqrt_experiment", "run_summation_experiment", "sr_variance_theoretical",
    "summarize", "validate_variance_bound", "variance_bound", "variance_of_p",
    "worst_case_rel_error", "write_csv", "write_distribution",
]


MODULES = [importlib.import_module(f"srlab.{name}")
           for name in ("cli", "distopt", "experiments", "files", "rounding", "stats", "streams")]


def test_public_surface():
    # a stale __all__ entry breaks star imports and anything that wraps the public functions by name
    for module in MODULES:
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"{module.__name__}.__all__ names missing {public!r}"
    exported = sorted(n for n, v in vars(srlab).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)


def test_no_callable_carries_wrapped():
    # a span tracer marks its wrappers by __wrapped__ and checks that none is left after a run,
    # so a decorator that sets it (functools.cache, functools.wraps) reads as a wrapper left behind
    for module in [srlab, *MODULES]:
        for attr, value in vars(module).items():
            wrapped = callable(value) and hasattr(value, "__wrapped__") and not isinstance(value, type)
            assert not wrapped, f"{module.__name__}.{attr} has __wrapped__"
