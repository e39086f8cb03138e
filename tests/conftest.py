import os

import numpy as np
import pytest
from hypothesis import settings

from decaylab import evolution

# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("decaylab", derandomize=True, deadline=None, database=None)
settings.load_profile("decaylab")


@pytest.fixture(scope="session")
def rng():
    """Property-test generator seed; solvers never consume randomness."""
    seed = int(os.environ.get("RNG_SEED", "20240817"))
    return np.random.default_rng(seed)


@pytest.fixture
def lift_full_pass(monkeypatch):
    """``lift(x)`` raises the full pass's boundary node by x * eps at every
    snapshot, so that 2 * half - full lies x * eps below eps there."""
    real_march = evolution._march

    def lift(x):
        def march(stepper, u, snaps, tol, schedule=None, halves=1):
            values, dts, retries = real_march(stepper, u, snaps, tol, schedule, halves)
            if halves == 1:
                values[:, -1] += x * stepper.eps
            return values, dts, retries

        monkeypatch.setattr(evolution, "_march", march)
    return lift
