import pytest

from srlab.distopt import Preset, optimize_table


@pytest.fixture(scope="session")
def tables_1001():
    """Full-resolution optimized tables for all presets (built once)."""
    return {preset: optimize_table(preset, grid_size=1001) for preset in Preset}


@pytest.fixture(scope="session")
def d1_table(tables_1001):
    return tables_1001[Preset.D1]


@pytest.fixture(scope="session")
def d2_table(tables_1001):
    return tables_1001[Preset.D2]
