import os

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("decaylab", derandomize=True, deadline=None, database=None)
settings.load_profile("decaylab")


@pytest.fixture(scope="session")
def rng():
    """Property-test generator seed; solvers never consume randomness."""
    seed = int(os.environ.get("RNG_SEED", "20240817"))
    return np.random.default_rng(seed)
