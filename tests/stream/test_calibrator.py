"""Calibrator tests: exact recovery, drift convergence, clause emission."""

import math

import pytest

from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import StreamError
from repro.faults.spec import parse_faults
from repro.stream import (Calibrator, Window, WindowManager, event_from_dict,
                          synthetic_trace)

TRUE = ModelParams(tau=1e-4, pi=1e-3, delta=0.6)
PROFILE = Profile([1.0, 0.5, 0.25])


def _windows(events, size=10.0):
    manager = WindowManager(size)
    out = []
    for event in events:
        out.extend(manager.add(event))
    tail = manager.flush()
    if tail is not None:
        out.append(tail)
    return out


def _declared(profile=PROFILE):
    return dict(enumerate(float(r) for r in profile.rho))


class TestExactRecovery:
    def test_noise_free_trace_recovers_parameters(self):
        # Start the fit from a *wrong* initial model; the closed-form
        # solve should land on the trace's true (tau, pi, delta, rho).
        calibrator = Calibrator(PAPER_TABLE1, forget=0.5)
        events = synthetic_trace(profile=PROFILE, params=TRUE, windows=4)
        snapshot = None
        for window in _windows(events):
            snapshot = calibrator.observe_window(window, _declared())
        assert snapshot.tau == pytest.approx(TRUE.tau, rel=1e-6)
        assert snapshot.pi == pytest.approx(TRUE.pi, rel=1e-6)
        assert snapshot.delta == pytest.approx(TRUE.delta, rel=1e-6)
        for worker, rho in _declared().items():
            assert snapshot.rho[worker] == pytest.approx(rho, rel=1e-9)

    def test_one_step_ahead_mape_scores_before_update(self):
        calibrator = Calibrator(PAPER_TABLE1, forget=0.5)
        events = synthetic_trace(profile=PROFILE, params=TRUE, windows=2)
        first, second = _windows(events)[:2]
        snap1 = calibrator.observe_window(first, _declared())
        # Window 1 is scored by window 0's (already converged) fit, so
        # its honest one-step MAPE beats the wrong initial model's.
        snap2 = calibrator.observe_window(second, _declared())
        assert snap2.mape < snap2.baseline_mape

    def test_no_observations_gives_none_mape(self):
        calibrator = Calibrator(PAPER_TABLE1)
        events = [e for e in synthetic_trace(profile=PROFILE, windows=1)
                  if e.type == "topology"]
        window = _windows(events)[0]
        snapshot = calibrator.observe_window(window, _declared())
        assert snapshot.mape is None
        assert snapshot.baseline_mape is None
        assert snapshot.tau == pytest.approx(PAPER_TABLE1.tau, rel=1e-9)


class TestDriftConvergence:
    def test_drift_recovered_to_2pct_mape(self):
        # Acceptance criterion: a worker silently slowing 2x mid-stream
        # is recovered to <= 2% one-step-ahead MAPE, while the
        # uncalibrated baseline stays wrong.
        calibrator = Calibrator(PAPER_TABLE1, forget=0.25)
        events = synthetic_trace(profile=PROFILE, params=PAPER_TABLE1,
                                 windows=10, drift_worker=1,
                                 drift_factor=2.0, drift_window=2)
        last = None
        for window in _windows(events):
            last = calibrator.observe_window(window, _declared())
        assert last.mape is not None and last.mape <= 0.02
        assert last.baseline_mape > 0.03
        assert last.rho[1] == pytest.approx(1.0, rel=0.02)

    def test_undrifted_workers_stay_anchored(self):
        calibrator = Calibrator(PAPER_TABLE1, forget=0.25)
        events = synthetic_trace(profile=PROFILE, params=PAPER_TABLE1,
                                 windows=8, drift_worker=1,
                                 drift_factor=2.0, drift_window=2)
        for window in _windows(events):
            last = calibrator.observe_window(window, _declared())
        assert last.rho[0] == pytest.approx(1.0, rel=1e-3)
        assert last.rho[2] == pytest.approx(0.25, rel=1e-3)


def _drifted(**kwargs):
    """A calibrator run over a trace whose worker 1 slows 2x from
    window 2, with the per-window snapshots it returned."""
    calibrator = Calibrator(PAPER_TABLE1, forget=0.25, **kwargs)
    events = synthetic_trace(profile=PROFILE, params=PAPER_TABLE1,
                             windows=8, drift_worker=1,
                             drift_factor=2.0, drift_window=2)
    snapshots = [calibrator.observe_window(window, _declared())
                 for window in _windows(events)]
    return calibrator, snapshots


def _merged_phases(snapshots, threshold):
    """The drift phases, merged after the fact from every window's
    snapshot: the oracle the calibrator's online fold must match."""
    spans = {}
    for snap in snapshots:
        for worker, fitted in snap.rho.items():
            base = snap.declared.get(worker)
            if not base or base <= 0.0:
                continue
            factor = fitted / base
            if abs(factor - 1.0) > threshold:
                spans.setdefault(worker, []).append(
                    (snap.start, snap.end, factor))
    merged = {}
    for worker, worker_spans in spans.items():
        phases = merged[worker] = []
        for start, end, factor in worker_spans:
            if phases:
                ps, pe, pf = phases[-1]
                if (math.isclose(pe, start, rel_tol=1e-9, abs_tol=1e-9)
                        and abs(factor - pf) <= threshold * pf):
                    phases[-1] = (ps, end, factor)
                    continue
            phases.append((start, end, factor))
    return merged


class TestDriftSurfacing:
    @pytest.fixture()
    def drifted(self):
        return _drifted()[0]

    def test_drift_names_only_the_drifter(self, drifted):
        timelines = drifted.speed_timelines()
        assert set(timelines) == {1}
        assert all(f > 1.0 for _, _, f in timelines[1].slowdowns)

    def test_speed_clauses_parse_back_into_the_grammar(self, drifted):
        clauses = drifted.speed_clauses()
        assert clauses
        assert all(c.startswith("speeds:1@") for c in clauses)
        scenario = parse_faults(",".join(clauses))
        assert len(scenario.faults) == len(clauses)

    def test_agreeing_adjacent_windows_merge(self):
        calibrator, snapshots = _drifted()
        spans = calibrator.speed_timelines()[1].slowdowns
        # Converged windows collapse into fewer phases than drifted
        # windows observed.
        drifted_windows = [s for s in snapshots
                           if abs(s.rho[1] / s.declared[1] - 1.0) > 0.1]
        assert len(spans) < len(drifted_windows)

    def test_threshold_is_set_at_construction(self):
        loose, _ = _drifted(threshold=5.0)
        assert loose.speed_timelines() == {}
        assert loose.speed_clauses() == []

    @pytest.mark.parametrize("threshold", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("case", [
        dict(drift_worker=1, drift_factor=2.0, drift_window=3),
        dict(drift_worker=0, drift_factor=0.5, drift_window=1, jitter=0.05,
             seed=4),
        dict(drift_worker=3, drift_factor=1.4, drift_window=5, jitter=0.2,
             seed=9),
    ])
    def test_online_fold_equals_merge_over_every_window(self, case,
                                                        threshold):
        profile = Profile([1.0, 0.5, 0.25, 0.8])
        declared = _declared(profile)
        calibrator = Calibrator(PAPER_TABLE1, forget=0.35,
                                threshold=threshold)
        events = synthetic_trace(profile=profile, params=PAPER_TABLE1,
                                 windows=40, **case)
        snapshots = [calibrator.observe_window(window, declared)
                     for window in _windows(events)]
        expected = _merged_phases(snapshots, threshold)
        timelines = calibrator.speed_timelines()
        assert list(timelines) == list(expected)
        for worker, phases in expected.items():
            assert timelines[worker].slowdowns == tuple(phases)
        assert calibrator.speed_clauses() == [
            f"speeds:{worker}@{start:g}+{end - start:g}x{factor:.6g}"
            for worker, phases in sorted(expected.items())
            for start, end, factor in phases]


class TestValidation:
    @pytest.mark.parametrize("forget", [0.0, -0.5, 1.5])
    def test_bad_forget_rejected(self, forget):
        with pytest.raises(StreamError, match="forget"):
            Calibrator(PAPER_TABLE1, forget=forget)


class TestOverflowingEvidence:
    def test_a_fit_that_overflows_keeps_the_last_one(self):
        # w² ≈ 1e-320 and w·d ≈ 1e-10 are finite, but their ratio (the
        # busy and send slopes) is past the largest double.
        extreme = event_from_dict({
            "type": "task_completed", "time": 3e150, "worker": 0,
            "work": 1e-160, "sent": 0.0, "arrived": 1e150,
            "completed": 2e150, "result_started": 2.5e150})
        calibrator = Calibrator(PAPER_TABLE1)
        snapshot = calibrator.observe_window(
            Window(index=0, start=0.0, end=1e151, events=(extreme,), late=0),
            {0: 1.0})
        assert calibrator.params == PAPER_TABLE1
        assert snapshot.rho == {}
        # Ordinary evidence outweighs the tiny quantum at once.
        for window in _windows(synthetic_trace(profile=PROFILE, params=TRUE,
                                               windows=3)):
            snapshot = calibrator.observe_window(window, _declared())
        assert snapshot.tau == pytest.approx(TRUE.tau, rel=1e-3)

    def test_a_fit_whose_sums_overflow_keeps_the_last_one(self):
        # Each w² = 1e308 is finite; three of them in one window are not,
        # and the busy slope Σw·d / Σw² underflows to a ρ of 0.
        huge = event_from_dict({
            "type": "task_completed", "time": 5.0, "worker": 0,
            "work": 1e154, "sent": 1.0, "arrived": 2.0, "completed": 3.0,
            "result_started": 4.0})
        calibrator = Calibrator(PAPER_TABLE1)
        snapshot = calibrator.observe_window(
            Window(index=0, start=0.0, end=10.0, events=(huge,) * 3, late=0),
            {0: 1.0})
        assert calibrator.params == PAPER_TABLE1
        assert snapshot.rho == {}
