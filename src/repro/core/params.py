"""Architectural model parameters (paper §2.1, Tables 1 and 2).

The paper's environment is described by three rates, all expressed per unit
of work in the time unit in which the slowest computer's compute rate is
``ρ₁ = 1``:

``tau`` (τ)
    Network transit rate: time for one unit of work to cross the network
    between any two computers (pipelined, latency ignored).
``pi`` (π)
    Message-packaging rate of the *slowest* computer: time it spends
    packaging (packetising/compressing/encoding) one unit of work before
    injecting it into the network, and equally unpackaging on receipt.
    Under the *balanced architecture* assumption of §2.1 a computer with
    compute rate ρᵢ packages at rate π·ρᵢ — every subsystem scales together.
``delta`` (δ)
    Output/input ratio: each unit of work produces δ ≤ 1 units of results.

Two derived constants appear in every formula of the paper:

``A = π + τ``
    Per-unit cost of preparing and transmitting work from the server.
``B = 1 + (1 + δ)·π``
    Per-unit *busy* time of a ρ = 1 computer: unpackage (π), compute (1),
    package results (δ·π).  A computer of speed ρ is busy ``B·ρ`` per unit.

The class also exposes the Theorem-4 threshold ``A·τδ/B²`` that separates
the two multiplicative-speedup regimes, and validates the standing
assumption ``τδ ≤ A ≤ B`` that Section 4's symmetric-function results rely
on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import InvalidParameterError

__all__ = ["ModelParams", "PAPER_TABLE1", "FIG34_CALIBRATION", "NEGLIGIBLE_OVERHEADS"]


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Immutable bundle of the model's architectural parameters.

    Parameters
    ----------
    tau:
        Network transit rate τ (time units per work unit), ``τ > 0``.
    pi:
        Packaging rate π of the slowest computer (time units per work
        unit), ``π ≥ 0``.
    delta:
        Output/input ratio δ, ``0 ≤ δ ≤ 1``.

    Examples
    --------
    >>> p = ModelParams(tau=1e-6, pi=1e-5, delta=1.0)
    >>> round(p.A, 9)
    1.1e-05
    >>> round(p.B, 6)
    1.00002
    """

    tau: float
    pi: float
    delta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("tau", "pi", "delta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a double
                finite = False
            if not finite:
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        if self.tau <= 0:
            raise InvalidParameterError(f"tau must be positive, got {self.tau!r}")
        if self.pi < 0:
            raise InvalidParameterError(f"pi must be nonnegative, got {self.pi!r}")
        if not (0.0 <= self.delta <= 1.0):
            raise InvalidParameterError(
                f"delta must lie in [0, 1] (each work unit produces at most "
                f"one unit of results), got {self.delta!r}")
        # Finite τ and π can still overflow the derived constants (π =
        # 1e308 makes B infinite), and every formula would then yield NaN.
        for name in ("A", "B", "tau_delta", "speedup_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"derived constant {name} is not finite ({value!r}) for "
                    f"tau={self.tau!r}, pi={self.pi!r}, delta={self.delta!r}")

    # ------------------------------------------------------------------
    # Derived constants
    # ------------------------------------------------------------------
    @property
    def A(self) -> float:
        """``A = π + τ`` — per-unit send cost (prepare + transit)."""
        return self.pi + self.tau

    @property
    def B(self) -> float:
        """``B = 1 + (1 + δ)π`` — per-unit busy time of a ρ = 1 computer."""
        return 1.0 + (1.0 + self.delta) * self.pi

    @property
    def tau_delta(self) -> float:
        """``τδ`` — per-unit transit cost of a result message."""
        return self.tau * self.delta

    @property
    def A_minus_tau_delta(self) -> float:
        """``A − τδ``; nonnegative under the standing assumption."""
        return self.A - self.tau_delta

    @property
    def speedup_threshold(self) -> float:
        """Theorem 4's boundary quantity ``A·τδ/B²``.

        Speeding up the *faster* of two computers Cᵢ, Cⱼ multiplicatively by
        ψ wins exactly when ``ψ·ρᵢ·ρⱼ`` exceeds this threshold; otherwise
        speeding up the slower one wins.
        """
        return self.A * self.tau_delta / (self.B * self.B)

    # ------------------------------------------------------------------
    # Validity predicates
    # ------------------------------------------------------------------
    @property
    def satisfies_standing_assumption(self) -> bool:
        """Whether ``τδ ≤ A ≤ B`` holds (assumed throughout paper §4).

        ``τδ ≤ A`` always holds for δ ≤ 1 since A = π + τ ≥ τ ≥ τδ.  The
        ``A ≤ B`` half can fail only for extreme transit rates
        (τ > 1 + δπ), i.e. when moving a unit of work costs more than
        computing it on the slowest machine.
        """
        return self.tau_delta <= self.A <= self.B

    def require_standing_assumption(self) -> None:
        """Raise :class:`InvalidParameterError` unless ``τδ ≤ A ≤ B``."""
        if not self.satisfies_standing_assumption:
            raise InvalidParameterError(
                f"parameters violate the standing assumption τδ ≤ A ≤ B: "
                f"τδ={self.tau_delta!r}, A={self.A!r}, B={self.B!r}")

    @property
    def is_degenerate(self) -> bool:
        """True when ``A = τδ`` exactly.

        In that limit the per-computer product factors of eq. (1) all equal
        one and several closed forms (e.g. Proposition 1) need their
        limiting expressions.
        """
        return self.A == self.tau_delta

    # ------------------------------------------------------------------
    # Exact-arithmetic twin
    # ------------------------------------------------------------------
    def exact(self) -> "ExactParams":
        """Return a :class:`fractions.Fraction` twin of these parameters.

        The floats are converted via ``Fraction(float)`` (exact binary
        values), so the twin evaluates the *same* numbers with unlimited
        precision — the ground truth the float code is tested against.
        """
        return ExactParams(
            tau=Fraction(self.tau),
            pi=Fraction(self.pi),
            delta=Fraction(self.delta),
        )

    # ------------------------------------------------------------------
    # Convenience constructors / reports
    # ------------------------------------------------------------------
    @classmethod
    def from_rates(cls, *, bandwidth: float, package_rate: float,
                   output_fraction: float = 1.0) -> "ModelParams":
        """Build parameters from hardware-style rates.

        Parameters
        ----------
        bandwidth:
            Work units per time unit the network moves; ``τ = 1/bandwidth``.
        package_rate:
            Work units per time unit the slowest computer packages;
            ``π = 1/package_rate``.  Pass ``math.inf`` for free packaging.
        output_fraction:
            δ, the results-per-work ratio.
        """
        if bandwidth <= 0:
            raise InvalidParameterError(f"bandwidth must be positive, got {bandwidth!r}")
        if package_rate <= 0:
            raise InvalidParameterError(f"package_rate must be positive, got {package_rate!r}")
        pi = 0.0 if math.isinf(package_rate) else 1.0 / package_rate
        return cls(tau=1.0 / bandwidth, pi=pi, delta=output_fraction)

    def with_task_granularity(self, seconds_per_task: float, *,
                              reference_seconds_per_task: float = 1.0) -> "ModelParams":
        """Re-express the parameters for a different task granularity.

        The dimensionless rates assume the slowest computer needs one
        *time unit* per work unit.  Moving from tasks that take
        ``reference_seconds_per_task`` on that computer to tasks taking
        ``seconds_per_task`` rescales the time unit, so the wall-clock
        communication rates (fixed in seconds) change their dimensionless
        values by the inverse ratio — the paper's Table-2 "coarse vs
        finer tasks" comparison.

        >>> finer = PAPER_TABLE1.with_task_granularity(0.1)
        >>> round(finer.tau, 9)       # 1 µs against 0.1 s tasks
        1e-05
        """
        if seconds_per_task <= 0 or reference_seconds_per_task <= 0:
            raise InvalidParameterError(
                f"task granularities must be positive, got "
                f"{seconds_per_task!r} and {reference_seconds_per_task!r}")
        scale = reference_seconds_per_task / seconds_per_task
        return ModelParams(tau=self.tau * scale, pi=self.pi * scale,
                           delta=self.delta)

    def derived_table(self) -> dict[str, float]:
        """The derived quantities of the paper's Table 2 as a dict."""
        return {
            "A": self.A,
            "B": self.B,
            "tau_delta": self.tau_delta,
            "A_minus_tau_delta": self.A_minus_tau_delta,
            "speedup_threshold": self.speedup_threshold,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ModelParams(τ={self.tau:g}, π={self.pi:g}, δ={self.delta:g}; "
                f"A={self.A:g}, B={self.B:g})")


@dataclass(frozen=True, slots=True)
class ExactParams:
    """Exact-rational view of :class:`ModelParams` (see ``core.exact``)."""

    tau: Fraction
    pi: Fraction
    delta: Fraction

    @property
    def A(self) -> Fraction:
        return self.pi + self.tau

    @property
    def B(self) -> Fraction:
        return 1 + (1 + self.delta) * self.pi

    @property
    def tau_delta(self) -> Fraction:
        return self.tau * self.delta

    @property
    def speedup_threshold(self) -> Fraction:
        return self.A * self.tau_delta / (self.B * self.B)


#: Table 1 of the paper: τ = 1 µs, π = 10 µs, δ = 1, with the time unit set
#: by a coarse (≈1 s per work unit) task granularity, so τ and π are the
#: dimensionless values 1e-6 and 1e-5.
PAPER_TABLE1 = ModelParams(tau=1e-6, pi=1e-5, delta=1.0)

#: Calibration used for the Figure 3/4 iterative-speedup experiment.  The
#: paper "increased τ … to 200 µsec … to make the figure legible"; for the
#: figures' phase structure to match Theorem 4 the threshold A·τδ/B² must
#: lie in (1/32, 1/16), which requires τ = 0.2 work-time units (see
#: DESIGN.md §4, substitution 3).  Threshold here: 0.04.
FIG34_CALIBRATION = ModelParams(tau=0.2, pi=1e-5, delta=1.0)

#: A near-ideal environment: negligible (but nonzero) communication cost.
#: X(P) approaches the sum of the computers' speeds Σ 1/ρᵢ.
NEGLIGIBLE_OVERHEADS = ModelParams(tau=1e-9, pi=0.0, delta=1.0)
