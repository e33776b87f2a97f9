"""The event-free analytic fast path and the engine dispatch contract.

Three things are under test: (1) the analytic timeline reproduces the
event engine's records/aggregates within 1e-9 on representative
protocol shapes, (2) ``simulate_allocation``'s ``engine=`` dispatch
honours the documented forcing rules (faults, observers, ambient
tracers force events; metrics-only contexts keep the fast path), and
(3) the fast path reports itself through ``sim_fastpath_hits_total``.
"""

import numpy as np
import pytest

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Observation, SimulationObserver, Tracer, observe
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import lp_allocation
from repro.protocols.lifo import lifo_allocation
from repro.simulation.fastpath import analytic_records, analytic_simulation
from repro.simulation.runner import simulate_allocation

_PARAMS = ModelParams(tau=0.01, pi=0.001, delta=1.0)
_NO_RESULTS = ModelParams(tau=0.01, pi=0.001, delta=0.0)
_FIELDS = ("send_prep_start", "arrived", "busy_end", "result_start", "result_end")


def _assert_equivalent(alloc, **kwargs):
    ev = simulate_allocation(alloc, engine="events", **kwargs)
    an = simulate_allocation(alloc, engine="analytic", **kwargs)
    tol = 1e-9 * max(1.0, alloc.lifespan)
    assert an.completed_computers == ev.completed_computers
    assert an.completed_work == pytest.approx(ev.completed_work, abs=tol)
    assert an.makespan == pytest.approx(ev.makespan, abs=tol)
    assert an.network_busy_time == pytest.approx(ev.network_busy_time, abs=tol)
    assert an.transits_granted == ev.transits_granted
    for re, ra in zip(ev.records, an.records):
        for field in _FIELDS:
            a, b = getattr(re, field), getattr(ra, field)
            if np.isnan(a):
                assert np.isnan(b), (re.computer, field)
            else:
                assert b == pytest.approx(a, abs=tol), (re.computer, field)
    return ev, an


class TestEquivalence:
    def test_fifo_allocation(self):
        alloc = fifo_allocation(Profile.linear(6), _PARAMS, 100.0)
        _assert_equivalent(alloc)

    def test_lifo_allocation(self):
        alloc = lifo_allocation(Profile.linear(6), _PARAMS, 100.0)
        _assert_equivalent(alloc)

    def test_random_lp_allocation(self):
        alloc = lp_allocation(Profile([1.0, 0.5, 2.0, 0.8]), _PARAMS, 80.0,
                              (2, 0, 3, 1), (1, 3, 0, 2))
        _assert_equivalent(alloc)

    def test_no_results_delta_zero(self):
        alloc = fifo_allocation(Profile.linear(5), _NO_RESULTS, 60.0)
        _assert_equivalent(alloc)

    def test_greedy_results_policy(self):
        alloc = lifo_allocation(Profile.linear(5), _PARAMS, 100.0)
        _assert_equivalent(alloc, results_policy="greedy")

    def test_zero_work_computers_keep_nan_records(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        w = alloc.w.copy()
        w[2] = 0.0
        trimmed = type(alloc)(profile=alloc.profile, params=alloc.params,
                              lifespan=alloc.lifespan, w=w,
                              startup_order=alloc.startup_order,
                              finishing_order=alloc.finishing_order,
                              protocol_name=alloc.protocol_name)
        ev, an = _assert_equivalent(trimmed)
        assert np.isnan(an.record_for(2).arrived)

    def test_single_computer(self):
        alloc = fifo_allocation(Profile([1.0]), _PARAMS, 50.0)
        _assert_equivalent(alloc)

    def test_interleaved_results_take_merge_path(self):
        # A fast worker started first with heavy communication: its
        # result reservation lands between later sends, exercising the
        # grant-order merge rather than the vectorized tier.
        profile = Profile([0.05, 3.0, 3.0, 3.0])
        params = ModelParams(tau=0.3, pi=0.01, delta=1.0)
        alloc = lp_allocation(profile, params, 200.0, (0, 1, 2, 3),
                              (0, 1, 2, 3), enforce_separation=False,
                              protocol_name="interleave")
        _assert_equivalent(alloc)


class TestAnalyticResult:
    def test_no_events_no_queue(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        result = analytic_simulation(alloc)
        assert result.events_processed == 0
        assert result.peak_queue_depth == 0
        assert result.all_completed

    def test_timeline_checkable(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        timeline = analytic_simulation(alloc).to_timeline()
        assert timeline.intervals

    def test_unknown_policy_rejected(self):
        alloc = fifo_allocation(Profile.linear(3), _PARAMS, 50.0)
        with pytest.raises(SimulationError):
            analytic_records(alloc, results_policy="whenever")


class TestDispatch:
    def test_analytic_refuses_failures(self):
        alloc = fifo_allocation(Profile.linear(3), _PARAMS, 50.0)
        with pytest.raises(SimulationError, match="analytic"):
            simulate_allocation(alloc, engine="analytic", faults="crash:0@5")

    def test_analytic_refuses_fault_specs(self):
        alloc = fifo_allocation(Profile.linear(3), _PARAMS, 50.0)
        with pytest.raises(SimulationError, match="analytic"):
            simulate_allocation(alloc, engine="analytic",
                                faults="crash:0@5,seed:1")

    def test_unknown_engine_rejected(self):
        alloc = fifo_allocation(Profile.linear(3), _PARAMS, 50.0)
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate_allocation(alloc, engine="warp")

    def test_auto_takes_fast_path_when_unobserved(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        result = simulate_allocation(alloc, engine="auto")
        assert result.events_processed == 0

    def test_auto_with_faults_runs_events(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        result = simulate_allocation(alloc, engine="auto", faults="crash:1@5")
        assert result.events_processed > 0

    def test_explicit_observer_forces_events(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        observer = SimulationObserver(Tracer())
        result = simulate_allocation(alloc, observer=observer)
        assert result.events_processed > 0
        assert observer.tracer.records_named("sim.event")

    def test_ambient_tracer_forces_events(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        tracer = Tracer()
        with observe(Observation(tracer=tracer)):
            result = simulate_allocation(alloc)
        assert result.events_processed > 0
        assert tracer.records_named("sim.event")

    def test_metrics_only_context_keeps_fast_path_and_counts_hits(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        registry = MetricsRegistry()
        with observe(Observation(registry=registry)):
            first = simulate_allocation(alloc)
            second = simulate_allocation(alloc)
        assert first.events_processed == 0 == second.events_processed
        assert registry.counter("sim_fastpath_hits_total", "").value() == 2
        assert registry.counter("sim_runs_total", "").value() == 2
        assert registry.counter("sim_transits_total", "").value() \
            == first.transits_granted + second.transits_granted

    def test_event_engine_does_not_count_fastpath_hits(self):
        alloc = fifo_allocation(Profile.linear(4), _PARAMS, 100.0)
        registry = MetricsRegistry()
        with observe(Observation(registry=registry)):
            simulate_allocation(alloc, engine="events")
        assert registry.counter("sim_fastpath_hits_total", "").value() == 0
