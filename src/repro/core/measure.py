"""The X-measure and work production (paper §2.4, Theorem 2).

For a cluster with profile ``P = ⟨ρ₁, …, ρₙ⟩`` operating under the optimal
FIFO worksharing protocol, the asymptotic work completed over a lifespan
``L`` is

.. math::

    W(L; P) = \\frac{L}{τδ + 1/X(P)},\\qquad
    X(P) = \\sum_{i=1}^{n} \\frac{1}{Bρ_i + A}
           \\prod_{j=1}^{i-1} \\frac{Bρ_j + τδ}{Bρ_j + A}.

``X(P)`` *tracks* work production — ``X(P₁) ≥ X(P₂)`` iff
``W(L;P₁) ≥ W(L;P₂)`` — so it serves as the primary power measure
throughout the paper.  Although eq. (1) is written against a particular
computer ordering, ``X`` is a symmetric function of the profile
(Lemma 1), hence independent of ordering; tests exercise this.

This module also provides the decomposition of eq. (3), used in the
Theorem 3/4 proofs, which isolates the last two computers of a chosen
startup order:

.. math::

    X(P) = \\frac{A + B(ρ_{s_{n-1}} + ρ_{s_n}) + τδ}
                 {A² + AB(ρ_{s_{n-1}} + ρ_{s_n}) + B²ρ_{s_{n-1}}ρ_{s_n}}
           · Y(P) + Z(P)

with ``Y(P) = Π_{k≤n-2} (Bρ_{s_k} + τδ)/(Bρ_{s_k} + A)`` and
``Z(P) = X(ρ_{s_1}, …, ρ_{s_{n-2}})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from repro.core.batch_kernels import _build_columns, _x_overflow
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from repro.util.arrays import validate_positive_vector

__all__ = [
    "x_measure",
    "work_rate",
    "work_production",
    "work_ratio",
    "XDecomposition",
    "x_decomposition",
    "XEvaluator",
]

ProfileLike = Union[Profile, Iterable[float]]


def _rho_array(profile: ProfileLike) -> np.ndarray:
    """Extract a validated ρ-array from a Profile or iterable."""
    if isinstance(profile, Profile):
        return profile.rho
    return validate_positive_vector(profile, name="profile")


def x_measure(profile: ProfileLike, params: ModelParams) -> float:
    """Evaluate ``X(P)`` — eq. (1) of the paper.

    Parameters
    ----------
    profile:
        The cluster's heterogeneity profile (a :class:`Profile` or any
        iterable of positive ρ-values).
    params:
        Architectural model parameters.

    Returns
    -------
    float
        ``X(P) > 0``.  Larger X means a more powerful cluster.

    Raises
    ------
    InvalidProfileError
        If ``X(P)`` is not a positive finite double: some ``Bρᵢ + A``
        overflows one.

    Notes
    -----
    Computed in one vectorised pass: with ``dᵢ = Bρᵢ + A`` and
    ``rᵢ = (Bρᵢ + τδ)/dᵢ``, the i-th term is ``(Π_{j<i} rⱼ)/dᵢ``, i.e. an
    exclusive cumulative product divided by d.  All rᵢ lie in (0, 1] under
    τδ ≤ A, so the cumulative product is monotone and stable even for
    n = 2¹⁶ computers.  The arithmetic is
    :func:`repro.core.batch_kernels._build_columns`, the same kernel
    :class:`~repro.core.batch_kernels.ProfileBatch` runs row-wise, so a
    batch row's X is bitwise this function's.

    Examples
    --------
    >>> from repro.core.params import PAPER_TABLE1
    >>> round(x_measure([1.0], PAPER_TABLE1), 4)      # one ρ=1 computer
    1.0
    """
    rho = _rho_array(profile)
    x = float(_build_columns(rho, params.A, params.B, params.tau_delta).x)
    if not 0.0 < x < math.inf:
        raise _x_overflow(rho, params)
    return x


def work_rate(profile: ProfileLike, params: ModelParams, *,
              x: float | None = None) -> float:
    """Asymptotic work completed per time unit: ``W(L;P)/L = 1/(τδ + 1/X)``.

    Pass a precomputed ``x`` (e.g. from an :class:`XEvaluator` or an
    ``x_measure`` result already in hand) to skip re-evaluating eq. (1);
    the result is bit-identical to the recomputed one because the same X
    float enters the same formula.
    """
    X = x_measure(profile, params) if x is None else x
    return 1.0 / (params.tau_delta + 1.0 / X)


def work_production(profile: ProfileLike, params: ModelParams, lifespan: float,
                    *, x: float | None = None) -> float:
    """Theorem 2's asymptotic work completed in ``lifespan`` time units.

    Parameters
    ----------
    profile:
        The cluster's heterogeneity profile.
    params:
        Architectural model parameters.
    lifespan:
        The CEP lifespan ``L > 0``.
    x:
        Optional precomputed ``X(P)`` (skips the eq.-(1) evaluation).

    Returns
    -------
    float
        ``W(L; P) = L / (τδ + 1/X(P))`` in work units.

    Raises
    ------
    InvalidParameterError
        If ``lifespan`` is not positive and finite, or ``W`` overflows a
        double.
    """
    if lifespan <= 0 or not np.isfinite(lifespan):
        raise InvalidParameterError(f"lifespan must be positive and finite, got {lifespan!r}")
    work = lifespan * work_rate(profile, params, x=x)
    if math.isinf(work):
        raise InvalidParameterError(
            f"work production overflows a double at lifespan {lifespan!r}")
    return work


def work_ratio(new_profile: ProfileLike, old_profile: ProfileLike,
               params: ModelParams, *, x_new: float | None = None,
               x_old: float | None = None) -> float:
    """``W(L; P_new) / W(L; P_old)`` — the paper's profile-comparison ratio.

    Independent of ``L`` because W is linear in L; this is what Table 4
    tabulates for the additive-speedup scenario.  ``x_new``/``x_old``
    optionally supply already-computed X-values for either profile.
    """
    return (work_rate(new_profile, params, x=x_new)
            / work_rate(old_profile, params, x=x_old))


class XEvaluator:
    """Incremental evaluation of ``X(P)`` under single-ρ edits.

    The eq.-(1) sum factors around any one computer k exactly like the
    eq.-(3) decomposition factors around the last two: with
    ``dᵢ = Bρᵢ + A``, ``rᵢ = (Bρᵢ + τδ)/dᵢ`` and terms
    ``tᵢ = (Π_{j<i} rⱼ)/dᵢ``,

    .. math::

        X = \\underbrace{\\sum_{i<k} t_i}_{\\text{head}}
            + \\frac{Π_{j<k} r_j}{d_k}
            + r_k · \\underbrace{\\frac{\\sum_{i>k} t_i}{r_k}}_{V_k},

    and head, the prefix product and ``V_k`` are all independent of
    ``ρ_k``.  Holding the prefix products and the running term sums as
    state therefore makes *"what would X be if ρ_k became ρ'?"* an O(1)
    query (:meth:`x_with_rho`) instead of the O(n) fresh
    :func:`x_measure` — which turns the speedup planner's greedy rounds
    and the sensitivity layer's root-finds from O(n²) scans into O(n).

    Commits (:meth:`set_rho`, :meth:`insert`, :meth:`remove`) apply an
    edit and rebuild the cumulative state in O(n); after any commit
    :attr:`x` is **bit-identical** to a fresh ``x_measure`` of the
    current profile (the rebuild runs the same reduction), so swapping
    the evaluator into existing call sites cannot move their floats.
    Only the O(1) previews may differ from a fresh evaluation, at the
    ~1-ulp level of re-associating the sum (property-tested ≤ 1e-9).
    """

    __slots__ = ("_params", "_rho", "_cols")

    def __init__(self, profile: ProfileLike, params: ModelParams) -> None:
        self._params = params
        self._rho = np.array(_rho_array(profile), dtype=float)
        self._rebuild()

    # -- state ----------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self._rho.size)

    @property
    def rho(self) -> np.ndarray:
        """A copy of the current ρ-vector."""
        return self._rho.copy()

    @property
    def params(self) -> ModelParams:
        return self._params

    @property
    def x(self) -> float:
        """``X`` of the current profile — bit-identical to ``x_measure``."""
        return float(self._cols.x)

    def _rebuild(self) -> None:
        # x_measure's own kernel → bit-identical committed value.
        p = self._params
        self._cols = _build_columns(self._rho, p.A, p.B, p.tau_delta)

    @staticmethod
    def _validate_rho(value: float) -> float:
        value = float(value)
        if not np.isfinite(value) or value <= 0.0:
            raise InvalidParameterError(
                f"rho must be positive and finite, got {value!r}")
        return value

    def _validate_index(self, k: int) -> int:
        k = int(k)
        if not (0 <= k < self._rho.size):
            raise InvalidParameterError(
                f"index {k} out of range for {self._rho.size} computers")
        return k

    # -- O(1) preview ---------------------------------------------------
    def x_with_rho(self, k: int, rho_new: float) -> float:
        """``X`` of the profile with ``ρ_k`` replaced by ``rho_new`` — O(1).

        Does not mutate the evaluator.  Agrees with a fresh
        :func:`x_measure` of the edited profile to ~1 ulp per term.
        """
        k = self._validate_index(k)
        rho_new = self._validate_rho(rho_new)
        p = self._params
        cols = self._cols
        d_new = p.B * rho_new + p.A
        r_new = (p.B * rho_new + p.tau_delta) / d_new
        head = float(cols.cum[k - 1]) if k else 0.0
        tail = float(cols.cum[-1] - cols.cum[k])
        return head + float(cols.prefix[k]) / d_new \
            + r_new * (tail / float(cols.ratios[k]))

    def x_with_rho_many(self, indices, values) -> np.ndarray:
        """Preview many independent single-ρ edits at once — O(candidates).

        For each candidate ``(indices[c], values[c])``, the X of the
        profile with that one ρ replaced: the vectorised form of calling
        :meth:`x_with_rho` per candidate (bit-identical per entry — the
        same elementwise formula evaluates on arrays).  Turns the
        speedup planner's per-candidate Python loop into one NumPy
        expression.  Does not mutate the evaluator.
        """
        idx = np.asarray(indices, dtype=int)
        vals = np.asarray(values, dtype=float)
        if idx.shape != vals.shape or idx.ndim != 1:
            raise InvalidParameterError(
                f"indices and values must be matching 1-D arrays, got "
                f"shapes {idx.shape} and {vals.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self._rho.size):
            raise InvalidParameterError(
                f"edit indices must lie in [0, {self._rho.size}), got "
                f"[{idx.min()}, {idx.max()}]")
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise InvalidParameterError(
                "replacement rho values must be positive and finite")
        p = self._params
        cols = self._cols
        d_new = p.B * vals + p.A
        r_new = (p.B * vals + p.tau_delta) / d_new
        head = np.where(idx > 0, cols.cum[np.maximum(idx - 1, 0)], 0.0)
        tail = cols.cum[-1] - cols.cum[idx]
        return head + cols.prefix[idx] / d_new \
            + r_new * (tail / cols.ratios[idx])

    # -- O(n) commits ---------------------------------------------------
    def set_rho(self, k: int, rho_new: float) -> float:
        """Commit ``ρ_k ← rho_new``; returns the exact new ``X``."""
        k = self._validate_index(k)
        self._rho[k] = self._validate_rho(rho_new)
        self._rebuild()
        return self.x

    def insert(self, rho_new: float) -> float:
        """Add a computer with rate ``rho_new``; returns the new ``X``."""
        rho_new = self._validate_rho(rho_new)
        self._rho = np.append(self._rho, rho_new)
        self._rebuild()
        return self.x

    def remove(self, k: int) -> float:
        """Drop computer ``k``; returns the new ``X``."""
        k = self._validate_index(k)
        if self._rho.size == 1:
            raise InvalidParameterError(
                "cannot remove the last computer from an XEvaluator")
        self._rho = np.delete(self._rho, k)
        self._rebuild()
        return self.x


@dataclass(frozen=True, slots=True)
class XDecomposition:
    """The eq.-(3) split of ``X(P)`` around the last two computers.

    Attributes
    ----------
    lead:
        The lead fraction
        ``(A + B(ρᵢ+ρⱼ) + τδ) / (A² + AB(ρᵢ+ρⱼ) + B²ρᵢρⱼ)``.
    Y:
        ``Π_{k ≤ n-2} (Bρ_{s_k} + τδ)/(Bρ_{s_k} + A)`` — positive and
        independent of ρᵢ, ρⱼ.
    Z:
        ``X(ρ_{s_1}, …, ρ_{s_{n-2}})`` — also independent of ρᵢ, ρⱼ
        (zero when n = 2).
    """

    lead: float
    Y: float
    Z: float

    @property
    def x_value(self) -> float:
        """Reassemble ``X(P) = lead·Y + Z``."""
        return self.lead * self.Y + self.Z


def x_decomposition(profile: ProfileLike, params: ModelParams,
                    i: int, j: int) -> XDecomposition:
    """Compute eq. (3)'s decomposition with computers ``i`` and ``j`` last.

    Places computer ``j`` at startup position n−1 and computer ``i`` at
    position n (the arrangement used in the Theorem 3/4 proofs), then
    returns the lead fraction together with the Y and Z factors.  Because
    X is startup-order invariant, ``x_decomposition(...).x_value`` equals
    :func:`x_measure` for any valid (i, j) — a property the test suite
    checks.

    Parameters
    ----------
    profile:
        The cluster's profile (n ≥ 2).
    params:
        Architectural model parameters.
    i, j:
        Distinct zero-based indices of the two focus computers.
    """
    rho = _rho_array(profile)
    n = rho.size
    if n < 2:
        raise InvalidParameterError("x_decomposition needs at least 2 computers")
    if i == j or not (0 <= i < n) or not (0 <= j < n):
        raise InvalidParameterError(
            f"i and j must be distinct indices in [0, {n}), got i={i}, j={j}")
    A, B, td = params.A, params.B, params.tau_delta
    rho_i, rho_j = float(rho[i]), float(rho[j])
    rest = np.delete(rho, [i, j])

    s = rho_i + rho_j
    lead = (A + B * s + td) / (A * A + A * B * s + B * B * rho_i * rho_j)
    if rest.size:
        Y = float(np.prod((B * rest + td) / (B * rest + A)))
        Z = x_measure(rest, params)
    else:
        Y, Z = 1.0, 0.0
    return XDecomposition(lead=lead, Y=Y, Z=Z)
