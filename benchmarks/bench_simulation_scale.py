"""Benchmark: discrete-event simulator throughput at cluster scale.

Not a paper artifact — the engineering baseline for the substrate.  One
CEP round generates ~4 events per computer plus channel bookkeeping;
this bench times full rounds at n = 16 / 256 / 2048 and asserts the
result still matches the analytics at every scale.
"""

import pytest

from repro.core.measure import work_production
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.faults.models import PermanentCrash
from repro.faults.spec import FaultScenario
from repro.protocols.fifo import fifo_allocation, fifo_saturation_index
from repro.simulation.runner import simulate_allocation

#: Mild communication costs so even the n = 2048 cluster stays far from
#: the A·X = 1 structural boundary.
_PARAMS = ModelParams(tau=1e-6, pi=1e-7, delta=1.0)


@pytest.mark.parametrize("n", [16, 256, 2048])
def test_simulation_round_scaling(benchmark, n):
    profile = Profile.linear(n)
    assert fifo_saturation_index(profile, _PARAMS) < 1.0
    alloc = fifo_allocation(profile, _PARAMS, 100.0)

    result = benchmark(simulate_allocation, alloc)
    assert result.all_completed
    assert result.completed_work == pytest.approx(
        work_production(profile, _PARAMS, 100.0), rel=1e-9)
    assert result.events_processed >= 4 * n


def test_simulation_with_failures_overhead(benchmark):
    """Failure bookkeeping must not meaningfully slow the common path."""
    profile = Profile.linear(256)
    alloc = fifo_allocation(profile, _PARAMS, 100.0)
    crash = FaultScenario(faults=(PermanentCrash(0, 1e9),))  # never fires

    result = benchmark(simulate_allocation, alloc, faults=crash)
    assert result.all_completed
