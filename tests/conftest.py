import numpy as np
import pytest
from hypothesis import settings

from remfl import data as dat

# Property tests draw the same examples on every run and stay small, so the
# suite is deterministic and its time does not depend on the machine.
settings.register_profile("remfl", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("remfl")


@pytest.fixture(scope="session")
def small_grid():
    cfg = dat.SyntheticMapConfig(seed=7, width=32, height=32, n_bs=4,
                                 n_features=8)
    return dat.generate_synthetic_map(cfg)


@pytest.fixture(scope="session")
def small_field(small_grid):
    return dat.heterogeneity(small_grid)


@pytest.fixture(scope="session")
def small_partition(small_grid, small_field):
    return dat.grid_partition(small_grid, small_field, "heavy",
                              rows=2, cols=2, seed=1)


@pytest.fixture(scope="session")
def desk_grid():
    """64x64 map with M=4 and P=100 (desk preset): the default P before it
    became the 8 layers the generator fills, kept so that criteria 5-11
    keep their data."""
    cfg = dat.SyntheticMapConfig(seed=11, width=64, height=64, n_bs=4,
                                 n_features=100)
    return dat.generate_synthetic_map(cfg)


@pytest.fixture(scope="session")
def desk_field(desk_grid):
    return dat.heterogeneity(desk_grid)


@pytest.fixture(scope="session")
def desk_heavy_partition(desk_grid, desk_field):
    return dat.grid_partition(desk_grid, desk_field, "heavy",
                              rows=3, cols=4, seed=11)
