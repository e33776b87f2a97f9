"""Fault injection through simulate_allocation.

Worker crashes used to have a second entry point, a ``failures={c: t}``
dict; ``TestCrashFaultBackCompat`` pins the crash scenario to the
results that path produced.  The other tests pin each fault shape to its
analytic expectation.
"""

import pytest

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.faults.models import PermanentCrash
from repro.faults.spec import FaultScenario
from repro.protocols.fifo import fifo_allocation
from repro.simulation.runner import simulate_allocation

PARAMS = ModelParams(tau=0.02, pi=0.002, delta=1.0)
PROFILE = Profile([1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0])


def _alloc(lifespan: float = 60.0):
    return fifo_allocation(PROFILE, PARAMS, lifespan)


def _crash_mid_busy(alloc, c: int) -> float:
    base = simulate_allocation(alloc)
    record = base.record_for(c)
    return 0.5 * (record.arrived + record.busy_end)


class TestCrashFaultBackCompat:
    """A crash scenario reproduces the removed ``failures=`` path's results.

    The expected values were recorded from ``failures={c: t}`` runs of
    this allocation before that parameter was removed.
    """

    #: crashed computer → (completed computers, completed work, events).
    _LEGACY = {0: ((), 0.0, 12),
               1: ((0,), 49.317839933769065, 13),
               2: ((0, 1), 145.69468743792845, 14),
               3: ((0, 1, 2), 286.7471577103711, 15)}

    @pytest.mark.parametrize("c", [0, 1, 2, 3])
    def test_crash_matches_legacy_failures(self, c):
        alloc = _alloc()
        crash = _crash_mid_busy(alloc, c)
        result = simulate_allocation(
            alloc, faults=FaultScenario(faults=(PermanentCrash(c, crash),)))
        completed, work, events = self._LEGACY[c]
        assert result.failed_computers == (c,)
        assert result.completed_computers == completed
        assert result.completed_work == work
        assert result.events_processed == events
        assert result.faults_injected == 1

    @pytest.mark.parametrize("skip", [False, True])
    def test_crash_matches_legacy_under_both_policies(self, skip):
        alloc = _alloc()
        crash = _crash_mid_busy(alloc, 1)
        result = simulate_allocation(
            alloc, faults=FaultScenario(faults=(PermanentCrash(1, crash),)),
            skip_failed_results=skip)
        assert result.completed_work == (373.6179638934875 if skip
                                         else 49.317839933769065)

    def test_crash_beyond_lifespan_changes_nothing(self):
        alloc = _alloc()
        result = simulate_allocation(alloc, faults="crash:0@1000000")
        assert result.failed_computers == ()
        assert result.completed_work == pytest.approx(alloc.total_work)


class TestTransientOutage:
    def test_outage_delays_the_busy_end(self):
        alloc = _alloc()
        base = simulate_allocation(alloc)
        record = base.record_for(0)
        mid = 0.5 * (record.arrived + record.busy_end)
        faulted = simulate_allocation(
            alloc, faults=f"outage:0@{mid}+3", skip_failed_results=True)
        assert faulted.record_for(0).busy_end == pytest.approx(
            record.busy_end + 3.0)

    def test_outage_outside_busy_period_is_free(self):
        alloc = _alloc()
        base = simulate_allocation(alloc)
        record = base.record_for(0)
        late = record.busy_end + 1.0
        faulted = simulate_allocation(alloc, faults=f"outage:0@{late}+2")
        assert faulted.record_for(0).busy_end == pytest.approx(record.busy_end)


class TestDegradedSpeed:
    def test_straggler_window_dilates_the_busy_period(self):
        alloc = _alloc()
        base = simulate_allocation(alloc)
        record = base.record_for(0)
        # Cover the whole busy period with a 2x slowdown: the busy time
        # from the arrival instant doubles.
        start, end = record.arrived, record.busy_end
        faulted = simulate_allocation(
            alloc, faults=f"slow:0@{start}+{2 * (end - start) + 10}x2",
            skip_failed_results=True)
        nominal = end - start
        assert faulted.record_for(0).busy_end == pytest.approx(
            start + 2.0 * nominal)

    def test_slower_worker_completes_less_by_deadline(self):
        alloc = _alloc()
        healthy = simulate_allocation(alloc)
        faulted = simulate_allocation(alloc, faults="slow:0@0+1000x4",
                                      skip_failed_results=True)
        assert faulted.completed_work < healthy.completed_work


class TestChannelFaults:
    def test_retransmission_recovers_single_losses(self):
        alloc = _alloc()
        # First attempt of C1's work package is lost; the retransmit
        # succeeds, so all work still completes — later than before.
        result = simulate_allocation(alloc, faults="drop:work:1:0",
                                     skip_failed_results=True)
        assert result.retransmits == 1
        assert result.messages_lost == 0
        assert result.record_for(1).arrived > 0.0

    def test_exhausted_budget_loses_the_work_package(self):
        alloc = _alloc()
        drops = ",".join(f"drop:work:1:{k}" for k in range(10))
        result = simulate_allocation(alloc, faults=drops + ",retransmits:2",
                                     skip_failed_results=True)
        assert result.messages_lost == 1
        assert result.retransmits == 2
        # the quantum never arrived: C1 produces nothing
        record = result.record_for(1)
        assert record.arrived != record.arrived  # NaN
        assert 1 not in result.completed_computers

    def test_lost_result_stalls_strict_but_not_skip(self):
        alloc = _alloc()
        first = alloc.finishing_order[0]
        drops = ",".join(f"drop:result:{first}:{k}" for k in range(10))
        spec = drops + ",retransmits:1"
        strict = simulate_allocation(alloc, faults=spec)
        skip = simulate_allocation(alloc, faults=spec,
                                   skip_failed_results=True)
        assert strict.completed_work == 0.0
        assert skip.completed_work > 0.0

    def test_lost_attempts_still_occupy_the_channel(self):
        alloc = _alloc()
        clean = simulate_allocation(alloc)
        faulted = simulate_allocation(alloc, faults="drop:work:1:0",
                                      skip_failed_results=True)
        assert faulted.network_busy_time > clean.network_busy_time
        faulted.allocation  # the run stays self-consistent
        assert faulted.transits_granted == clean.transits_granted + 1


class TestDeterminism:
    def test_seeded_scenario_replays_bit_identically(self):
        alloc = _alloc()
        spec = "crash~0.02,outage~0.01+4,slow~0.01+10x3,loss:0.05,seed:17"
        a = simulate_allocation(alloc, faults=spec, skip_failed_results=True)
        b = simulate_allocation(alloc, faults=spec, skip_failed_results=True)
        assert a.records == b.records
        assert a.completed_work == b.completed_work
        assert a.retransmits == b.retransmits

    def test_faults_injected_counted(self):
        alloc = _alloc()
        result = simulate_allocation(alloc, faults="crash:0@5,loss:0.01",
                                     skip_failed_results=True)
        assert result.faults_injected == 2
