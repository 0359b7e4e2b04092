import importlib
import types
import warnings

import numpy as np
import pytest

import srlab
from srlab import (
    SR, Preset, RandomStream, RoundingSpec, bias_of_p, grid_fraction, objective, preset_config, round_values,
    sr_variance_theoretical, variance_of_p,
)

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


MILLI = RoundingSpec(3, 10)
KERNELS = {
    "grid_fraction": lambda x: grid_fraction(x, MILLI),
    "round_values": lambda x: round_values(x, SR, MILLI, RandomStream(7)),
    "variance_of_p": variance_of_p,
    "bias_of_p": lambda x: bias_of_p(x, 0.5),
    "objective": lambda x: objective(x, 0.5, preset_config(Preset.D2)),
    "sr_variance_theoretical": lambda x: sr_variance_theoretical(x, MILLI),
}


@pytest.mark.parametrize("name", KERNELS)
def test_one_scalar_rule(name):
    # a scalar in gives a float out, and a list or array an array, with the same bits
    kernel = KERNELS[name]
    for scalars, arrays in [((0.3, np.float64(0.3), np.array(0.3)), ([0.3], np.array([0.3]))), ((0,), ([0],))]:
        for x in arrays:
            out = kernel(x)
            assert type(out) is np.ndarray and out.shape == (1,)
        for x in scalars:
            value = kernel(x)
            assert type(value) is float
            assert np.array([value]).view(np.uint64) == out.view(np.uint64)


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_deprecations_raised_from_srlab_are_errors(category):
    # so a numpy API that srlab calls and numpy deprecates fails the tests, not a later numpy
    with pytest.raises(category):
        warnings.warn_explicit("deprecated", category, "rounding.py", 1, module="srlab.rounding")
