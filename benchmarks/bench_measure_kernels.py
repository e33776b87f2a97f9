"""Benchmark: the X-measure kernels at paper scale.

The §4.3 experiments evaluate X on clusters up to n = 2^16 and on
thousands of cluster pairs; these benches time the scalar kernel across
scales and quantify the batched kernel's advantage over a Python loop.
"""

import numpy as np
import pytest

from repro.core.batch_kernels import ProfileBatch
from repro.core.measure import x_measure
from repro.core.params import PAPER_TABLE1


@pytest.mark.parametrize("n", [64, 4096, 65536])
def test_x_measure_scaling(benchmark, n):
    """Scalar X at n = 2^6 … 2^16 — O(n) vectorised."""
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.05, 1.0, n)
    value = benchmark(x_measure, rho, PAPER_TABLE1)
    assert value > 0.0


def _batch_x(profiles: np.ndarray) -> np.ndarray:
    """Construct-then-X: validation plus eq. (1) over every row."""
    return ProfileBatch(profiles, copy=False).x(PAPER_TABLE1)


def test_profile_batch_x(benchmark):
    """Batched X for 1000 × 256 profiles (the §4.3 inner loop)."""
    rng = np.random.default_rng(2)
    profiles = rng.uniform(0.05, 1.0, size=(1000, 256))
    batch = benchmark(_batch_x, profiles)
    assert batch.shape == (1000,)
    assert (batch > 0).all()


def test_profile_batch_x_matches_loop(benchmark):
    """The batch kernel must equal the scalar loop; time the batch."""
    rng = np.random.default_rng(3)
    profiles = rng.uniform(0.05, 1.0, size=(200, 64))
    batch = benchmark(_batch_x, profiles)
    loop = np.array([x_measure(row, PAPER_TABLE1) for row in profiles])
    np.testing.assert_array_equal(batch, loop)


def test_profile_batch_hecr(benchmark):
    """Batched HECR on 1000 × 256 profiles (X precomputed)."""
    rng = np.random.default_rng(4)
    batch = ProfileBatch(rng.uniform(0.05, 1.0, size=(1000, 256)))
    xs = batch.x(PAPER_TABLE1)
    hecrs = benchmark(batch.hecr, PAPER_TABLE1, x=xs)
    assert np.isfinite(hecrs).all()
    assert (hecrs > 0).all()
