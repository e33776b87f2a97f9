"""Online calibration of (τ, π, δ) and per-worker ρ from completions.

The closed-form timeline of :mod:`repro.simulation.fastpath` makes every
``task_completed`` milestone pair a *linear* observation of one model
quantity (durations through the origin in the quantum size ``w``):

====================================  =================================
milestone pair                        model duration
====================================  =================================
``sent → arrived``                    ``A·w``  with ``A = π + τ``
``arrived → completed``               ``B·ρᵢ·w``  with ``B = 1+(1+δ)π``
``result_started → time``             ``τδ·w``
====================================  =================================

So the fit is three weighted least-squares slopes through the origin —
``Â``, ``τδ̂``, and one busy slope ``B·ρᵢ`` per worker — maintained as
running sums with **exponential forgetting** (each closed window decays
the sums by a factor, so the model tracks drift instead of averaging it
away).  ``B`` and the ρ's are only observable as products, so the fit
anchors the factorisation on the cluster's *declared* speeds: the
worker whose busy slope sits closest to its declared ρ is assumed
undrifted, giving ``B̂ = min_i slopeᵢ/ρᵢ^decl`` (a drifted-slower worker
only ever *raises* its ratio).  With ``(Â, B̂, τδ̂)`` in hand the three
architectural parameters follow in closed form: substituting
``τ = Â − π`` and ``π = (B̂−1)/(1+δ)`` into ``τδ = τδ̂`` leaves one
quadratic in δ,

.. math::

    Â·δ² + (Â − (B̂−1) − τδ̂)·δ − τδ̂ = 0,

whose unique nonnegative root recovers δ exactly on noise-free traces
(the roots' product is ``−τδ̂/Â ≤ 0``).

Accuracy is scored with a **MAPE comparator**: before a window's
observations are folded in, the calibrator predicts each of its
milestone durations from the *previous* fit (honest one-step-ahead
prediction) and from the operator's initial, uncalibrated model; the
two mean-absolute-percentage errors go into every window record and
the ``stream_calibration_mape`` gauges.

Each window's ρ̂ doubles as drift detection, folded into per-worker
drift phases as the window closes: workers whose fitted ρ strays from
the declared value yield piecewise-speed
:class:`~repro.faults.models.FaultTimeline` objects — rendered as
``speeds:`` clauses of the scenario grammar, so an observed drift can
be replayed through the fault-aware simulator verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.params import ModelParams
from repro.errors import InvalidParameterError, StreamError
from repro.faults.models import FaultTimeline
from repro.stream.windows import Window

__all__ = ["Calibrator", "CalibrationSnapshot"]

#: Smallest τ the fit will report — ModelParams requires τ > 0.
_MIN_TAU = 1e-15


@dataclass(frozen=True)
class CalibrationSnapshot:
    """One window's fit: estimates plus the one-step-ahead scores."""

    window: int
    start: float
    end: float
    observations: int
    #: One-step-ahead MAPE of the *previous* fit on this window (None
    #: when the window carried no milestone observations, or when a
    #: prediction overflowed a double).
    mape: float | None
    #: Same observations scored by the initial, uncalibrated model.
    baseline_mape: float | None
    tau: float
    pi: float
    delta: float
    #: Fitted ρ per worker (only workers with busy observations so far).
    rho: dict[int, float]
    #: Declared ρ per worker at window close (the drift reference).
    declared: dict[int, float]

    def to_dict(self) -> dict:
        return {"window": self.window, "start": self.start, "end": self.end,
                "observations": self.observations, "mape": self.mape,
                "baseline_mape": self.baseline_mape, "tau": self.tau,
                "pi": self.pi, "delta": self.delta,
                "rho": {str(k): v for k, v in sorted(self.rho.items())},
                "declared": {str(k): v
                             for k, v in sorted(self.declared.items())}}


class Calibrator:
    """Fit (τ, π, δ) globally and ρ per worker, online, with forgetting.

    Parameters
    ----------
    params:
        The operator's initial model — the fit's fallback for anything
        not yet observed, and the "uncalibrated" side of the MAPE
        comparator.
    forget:
        Per-window retention factor in (0, 1]: each closed window
        multiplies every least-squares accumulator by this before the
        new observations are added.  1 never forgets (pure averaging);
        smaller values track drift faster at the cost of noise.
    threshold:
        Relative deviation of fitted from declared ρ that counts as
        drift, and between adjacent drifted windows that merge.
    """

    def __init__(self, params: ModelParams, *, forget: float = 0.35,
                 threshold: float = 0.1) -> None:
        if not (0.0 < forget <= 1.0):
            raise StreamError(
                f"forget factor must lie in (0, 1], got {forget!r}")
        self.initial = params
        self.forget = float(forget)
        self.threshold = float(threshold)
        self._params = params
        # Weighted least-squares sums for d = slope·w through the origin:
        # slope = Σ(w·d) / Σ(w²), decayed per window.
        self._a_num = 0.0
        self._a_den = 0.0
        self._td_num = 0.0
        self._td_den = 0.0
        self._busy: dict[int, list[float]] = {}   # worker -> [num, den]
        self._rho: dict[int, float] = {}
        #: Per drifting worker, its merged ``(start, end, factor)`` phases.
        self._phases: dict[int, list[tuple[float, float, float]]] = {}

    # -- current fit ---------------------------------------------------
    @property
    def params(self) -> ModelParams:
        """The current parameter estimate (initial until data arrives)."""
        return self._params

    @property
    def rho(self) -> dict[int, float]:
        """Fitted ρ per worker (empty until busy milestones arrive)."""
        return dict(self._rho)

    def rho_for(self, worker: int, declared: float) -> float:
        return self._rho.get(worker, declared)

    # -- the per-window cycle ------------------------------------------
    @staticmethod
    def _observations(window: Window) -> list[tuple[str, int, float, float]]:
        """``(kind, worker, w, duration)`` rows from milestone pairs."""
        rows: list[tuple[str, int, float, float]] = []
        for event in window.events:
            if event.type != "task_completed" or not event.work:
                continue
            w = event.work
            if event.sent is not None and event.arrived is not None:
                rows.append(("send", event.worker, w,
                             event.arrived - event.sent))
            if event.arrived is not None and event.completed is not None:
                rows.append(("busy", event.worker, w,
                             event.completed - event.arrived))
            if event.result_started is not None:
                rows.append(("result", event.worker, w,
                             event.time - event.result_started))
        return rows

    def _predict(self, kind: str, worker: int, w: float, *,
                 params: ModelParams, rho: dict[int, float],
                 declared: dict[int, float]) -> float:
        if kind == "send":
            return params.A * w
        if kind == "result":
            return params.tau_delta * w
        r = rho.get(worker, declared.get(worker, 1.0))
        return params.B * r * w

    def _mape(self, rows: list[tuple[str, int, float, float]], *,
              params: ModelParams, rho: dict[int, float],
              declared: dict[int, float]) -> float | None:
        errors = []
        for kind, worker, w, observed in rows:
            if observed <= 0.0:
                continue
            predicted = self._predict(kind, worker, w, params=params,
                                      rho=rho, declared=declared)
            errors.append(abs(predicted - observed) / observed)
        if not errors:
            return None
        mape = sum(errors) / len(errors)
        return mape if math.isfinite(mape) else None

    def observe_window(self, window: Window,
                       declared: dict[int, float]) -> CalibrationSnapshot:
        """Score the window against the previous fit, then refit.

        ``declared`` is the cluster's declared ρ per worker at window
        close (the :class:`~repro.stream.windows.ClusterState` view) —
        the anchor that lets the fit split ``B`` from the ρ's, and the
        reference drift is measured against.
        """
        rows = self._observations(window)
        mape = self._mape(rows, params=self._params, rho=self._rho,
                          declared=declared)
        baseline = self._mape(rows, params=self.initial, rho={},
                              declared=declared)

        # Exponential forgetting: decay first, then fold the window in.
        # Decaying num and den equally leaves a quiet worker's slope
        # unchanged — only *new evidence* moves an estimate.
        f = self.forget
        self._a_num *= f
        self._a_den *= f
        self._td_num *= f
        self._td_den *= f
        for cell in self._busy.values():
            cell[0] *= f
            cell[1] *= f
        for kind, worker, w, observed in rows:
            if observed < 0.0:
                continue
            if kind == "send":
                self._a_num += w * observed
                self._a_den += w * w
            elif kind == "result":
                self._td_num += w * observed
                self._td_den += w * w
            else:
                cell = self._busy.setdefault(worker, [0.0, 0.0])
                cell[0] += w * observed
                cell[1] += w * w

        self._refit(declared)
        self._fold_drift(window.start, window.end, declared)
        return CalibrationSnapshot(
            window=window.index, start=window.start, end=window.end,
            observations=len(rows), mape=mape, baseline_mape=baseline,
            tau=self._params.tau, pi=self._params.pi,
            delta=self._params.delta, rho=dict(self._rho),
            declared=dict(declared))

    def _refit(self, declared: dict[int, float]) -> None:
        a_hat = (self._a_num / self._a_den if self._a_den > 0.0
                 else self.initial.A)
        td_hat = (self._td_num / self._td_den if self._td_den > 0.0
                  else self.initial.tau_delta)
        slopes = {worker: cell[0] / cell[1]
                  for worker, cell in self._busy.items()
                  if cell[1] > 0.0 and cell[0] > 0.0}
        ratios = [slope / declared[worker]
                  for worker, slope in slopes.items()
                  if declared.get(worker, 0.0) > 0.0]
        if ratios:
            b_hat = max(1.0, min(ratios))
        else:
            b_hat = self.initial.B
        rho = {worker: slope / b_hat
               for worker, slope in sorted(slopes.items())}

        # Solve A = π+τ, τδ = td, B = 1+(1+δ)π for (τ, π, δ): one
        # quadratic in δ (see the module docstring), then back-substitute.
        if a_hat > 0.0:
            b = a_hat - (b_hat - 1.0) - td_hat
            disc = b * b + 4.0 * a_hat * td_hat
            delta = (-b + math.sqrt(disc)) / (2.0 * a_hat)
            delta = min(1.0, max(0.0, delta))
        else:
            delta = self.initial.delta
        pi = max(0.0, (b_hat - 1.0) / (1.0 + delta))
        tau = max(a_hat - pi, _MIN_TAU)
        # A fit that overflows (a slope past the largest double, or a ρ
        # that underflows to 0) leaves the last fit in place.
        try:
            params = ModelParams(tau=tau, pi=pi, delta=delta)
        except InvalidParameterError:
            return
        if all(0.0 < r < math.inf for r in rho.values()):
            self._rho, self._params = rho, params

    # -- drift surfacing (satellite: FaultTimeline promotion) ----------
    def _fold_drift(self, start: float, end: float,
                    declared: dict[int, float]) -> None:
        """Fold this window into each drifting worker's phases.

        ``factor = fitted/declared ρ`` (> 1 a slowdown) counts as drift
        when it strays from 1 by more than ``threshold``.  A drifted
        window right after the worker's last phase, with a factor within
        ``threshold`` of it, extends that phase and hands it its own,
        more converged factor; any other opens a new phase.
        """
        for worker, fitted in self._rho.items():
            base = declared.get(worker)
            if not base or base <= 0.0:
                continue
            factor = fitted / base
            if abs(factor - 1.0) <= self.threshold:
                continue
            phases = self._phases.setdefault(worker, [])
            if phases:
                ps, pe, pf = phases[-1]
                if (math.isclose(pe, start, rel_tol=1e-9, abs_tol=1e-9)
                        and abs(factor - pf) <= self.threshold * pf):
                    phases[-1] = (ps, end, factor)
                    continue
            phases.append((start, end, factor))

    def speed_timelines(self) -> dict[int, FaultTimeline]:
        """One piecewise-speed :class:`FaultTimeline` per drifting
        worker, in the order the workers first drifted."""
        return {worker: FaultTimeline(slowdowns=phases)
                for worker, phases in self._phases.items()}

    def speed_clauses(self) -> list[str]:
        """The drift timelines as ``speeds:`` clauses of the scenario
        grammar — ready to paste into ``--faults`` and replay."""
        clauses = []
        for worker, timeline in sorted(self.speed_timelines().items()):
            for start, end, factor in timeline.slowdowns:
                clauses.append(f"speeds:{worker}@{start:g}+{end - start:g}"
                               f"x{factor:.6g}")
        return clauses
