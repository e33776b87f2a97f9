"""Failure-injection tests: worker crashes during a CEP round.

The FIFO protocol's finishing order is a contract; these tests measure
what a mid-round crash costs under the strict protocol (everything
queued behind the failure stalls) versus the skip-failed recovery
heuristic (only the dead worker's quantum is lost).
"""

import pytest

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import FaultInjectionError
from repro.faults.models import PermanentCrash
from repro.faults.spec import FaultScenario
from repro.protocols.fifo import fifo_allocation
from repro.protocols.timeline import build_timeline
from repro.simulation.runner import simulate_allocation


@pytest.fixture
def setup():
    params = ModelParams(tau=0.02, pi=0.002, delta=1.0)
    profile = Profile([1.0, 0.5, 1 / 3, 0.25])
    alloc = fifo_allocation(profile, params, 60.0)
    return params, profile, alloc


def _crashes(times: dict[int, float]) -> FaultScenario:
    """Computer ``c`` crashes permanently at ``times[c]``."""
    return FaultScenario(faults=tuple(PermanentCrash(c, t)
                                      for c, t in times.items()))


def _busy_midpoint(alloc, computer: int) -> float:
    tl = build_timeline(alloc)
    busy = [iv for iv in tl.for_computer(computer) if iv.kind == "busy"][0]
    return 0.5 * (busy.start + busy.end)


class TestStrictProtocol:
    def test_no_failures_baseline(self, setup):
        _, _, alloc = setup
        result = simulate_allocation(alloc, faults=_crashes({}))
        assert result.events_processed > 0  # an empty scenario still runs events
        assert result.all_completed
        assert result.failed_computers == ()

    def test_last_finisher_crash_loses_only_its_quantum(self, setup):
        _, _, alloc = setup
        t = _busy_midpoint(alloc, 3)
        result = simulate_allocation(alloc, faults=_crashes({3: t}))
        assert result.failed_computers == (3,)
        assert set(result.completed_computers) == {0, 1, 2}
        assert result.completed_work == pytest.approx(
            alloc.total_work - alloc.w[3], rel=1e-9)

    def test_first_finisher_crash_stalls_everything(self, setup):
        # Strict FIFO: results behind the dead first finisher never flow.
        _, _, alloc = setup
        t = _busy_midpoint(alloc, 0)
        result = simulate_allocation(alloc, faults=_crashes({0: t}))
        assert result.failed_computers == (0,)
        assert result.completed_work == 0.0

    def test_crash_before_receiving(self, setup):
        _, _, alloc = setup
        result = simulate_allocation(alloc, faults=_crashes({3: 0.0}))
        assert 3 in result.failed_computers
        assert 3 not in result.completed_computers

    def test_crash_after_all_work_done_changes_nothing(self, setup):
        _, _, alloc = setup
        result = simulate_allocation(
            alloc, faults=_crashes({2: alloc.lifespan * 10}))
        assert result.all_completed
        assert result.failed_computers == ()


class TestSkipRecovery:
    def test_skip_loses_only_the_dead_quantum(self, setup):
        _, _, alloc = setup
        t = _busy_midpoint(alloc, 0)
        result = simulate_allocation(alloc, faults=_crashes({0: t}),
                                     skip_failed_results=True)
        assert set(result.completed_computers) == {1, 2, 3}
        assert result.completed_work == pytest.approx(
            alloc.total_work - alloc.w[0], rel=1e-9)

    def test_skip_vs_strict_gap(self, setup):
        # The recovery heuristic's value = everything behind the failure.
        _, _, alloc = setup
        t = _busy_midpoint(alloc, 0)
        strict = simulate_allocation(alloc, faults=_crashes({0: t}))
        skipping = simulate_allocation(alloc, faults=_crashes({0: t}),
                                       skip_failed_results=True)
        assert skipping.completed_work - strict.completed_work == pytest.approx(
            alloc.w[1] + alloc.w[2] + alloc.w[3], rel=1e-9)

    def test_multiple_failures(self, setup):
        _, _, alloc = setup
        failures = {0: _busy_midpoint(alloc, 0), 2: _busy_midpoint(alloc, 2)}
        result = simulate_allocation(alloc, faults=_crashes(failures),
                                     skip_failed_results=True)
        assert set(result.failed_computers) == {0, 2}
        assert set(result.completed_computers) == {1, 3}

    def test_all_fail(self, setup):
        _, _, alloc = setup
        failures = {c: 0.0 for c in range(4)}
        result = simulate_allocation(alloc, faults=_crashes(failures),
                                     skip_failed_results=True)
        assert result.completed_work == 0.0
        assert len(result.failed_computers) == 4


class TestValidation:
    def test_unknown_computer_rejected(self, setup):
        _, _, alloc = setup
        with pytest.raises(FaultInjectionError, match="unknown computer"):
            simulate_allocation(alloc, faults=_crashes({9: 1.0}))

    def test_negative_time_rejected(self, setup):
        _, _, alloc = setup
        with pytest.raises(FaultInjectionError, match="crash time"):
            simulate_allocation(alloc, faults=_crashes({0: -1.0}))
