"""Columnar many-profile kernels: the ``(m, n)`` ρ-matrix fast path.

Every §4 study — the variance-predictor trials, the majorization
ablation, HECR calibration — is defined over *populations* of clusters,
tens of thousands of random profile comparisons per table row.
Evaluating one :class:`~repro.core.profile.Profile` at a time makes the
Python interpreter the bottleneck long before NumPy is.

:class:`ProfileBatch` stores m same-size profiles as one C-contiguous
``(m, n)`` ρ-matrix, validates it **once** at construction, and exposes
row-vectorised kernels for everything the scalar core computes:

* ``x`` — eq. (1) via one batched exclusive cumulative product;
* ``work_rates`` / ``work_production`` — Theorem 2;
* ``hecr`` — Proposition 1's closed form (:func:`hecr_from_x_many`);
* the §4.2 row statistics (variance, geometric/harmonic mean, min-ρ);
* pairwise predictor kernels (:func:`moment_predictions`,
  :func:`minorization_predictions`, :func:`majorization_predictions`)
  over two aligned batches.

**Parity holds by construction.**  Eq. (1) is written out once, in
:func:`_build_columns`, which works over the last axis of a 1-D ρ-vector
or an ``(m, n)`` ρ-matrix alike; :func:`~repro.core.measure.x_measure`,
:class:`~repro.core.measure.XEvaluator` and :class:`ProfileBatch` all
call it.  NumPy's pairwise summation (and the ``var``/``mean``
reductions built on it) produce bit-identical results for a contiguous
row of an ``(m, n)`` array and the equivalent 1-D array, so
``ProfileBatch(rows).x(params)[i] == x_measure(rows[i], params)`` holds
**bitwise**: a caller can move scalar evaluations onto the batch
without moving a single float.  Proposition 1's closed form is likewise
written once, in :func:`hecr_from_x_many`; the scalar
:func:`~repro.core.hecr.hecr_from_x` is a one-element call of it, so
scalar and batch HECRs are bitwise equal too.  The property suite
(``tests/properties/test_batch_parity_properties.py``) pins both
contracts for every kernel over random batches.

Empty-batch semantics: an ``(0, n)`` matrix is a valid batch of zero
profiles — every kernel returns a shape-``(0,)`` (or ``(0, …)``) result,
so sharded pipelines handle empty shards without special-casing.  An
``(m, 0)`` matrix (profiles with zero computers) is rejected with a
shape-specific error at construction.

This module sits at the bottom of the core dependency stack (it imports
only ``params``, ``profile`` and ``errors``);
:mod:`repro.core.measure` and :mod:`repro.core.hecr` build their scalar
entry points on it.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError, InvalidProfileError

__all__ = [
    "ProfileBatch",
    "hecr_from_x_many",
    "moment_predictions",
    "variance_predictions",
    "minorization_predictions",
    "majorization_predictions",
    "MOMENT_STATISTICS",
]

#: Tolerances mirrored from the scalar predictor modules (kept as local
#: constants so this module stays importable from ``repro.core`` without
#: touching ``repro.predictors``, which imports core).
_MEAN_RTOL = 1e-9       # predictors.variance.MEAN_RTOL
_MAJORIZATION_RTOL = 1e-9  # predictors.majorization._RTOL

#: Per-params derived-column cache entries kept per batch (LRU-ish: the
#: oldest key is dropped; real workloads touch one or two param sets).
_COLUMN_CACHE_ENTRIES = 8


def _validate_matrix(rho, *, copy: bool) -> np.ndarray:
    arr = np.array(rho, dtype=float, copy=True) if copy \
        else np.ascontiguousarray(rho, dtype=float)
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"profiles must be 2-D (m, n), got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise InvalidParameterError(
            f"profiles must have at least one computer per row (n >= 1), "
            f"got shape {arr.shape}")
    # np.any/np.all on an (0, n) matrix are vacuously fine: an empty
    # batch of well-shaped profiles is valid and yields empty results.
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise InvalidParameterError("profiles must be positive and finite")
    return arr


class _Columns:
    """Derived per-(τ, π, δ) columns shared by the X/W/HECR kernels.

    Every array runs over the last axis (computers) of the ρ input, so
    the same object serves a 1-D profile and an ``(m, n)`` batch.
    ``b_rho = B·ρ``; ``denom = Bρ + A``
    and ``numer = Bρ + τδ`` are eq. (1)'s per-computer factors;
    ``prefix`` is the exclusive cumulative product of
    ``ratios = numer/denom``; ``terms = prefix/denom`` sums to ``x``.
    ``cum`` (the inclusive cumulative sum of ``terms``, needed only by
    edit previews) is computed lazily on first access so the hot
    construct-then-X path skips one full (m, n) pass.
    """

    __slots__ = ("b_rho", "denom", "numer", "ratios", "prefix", "terms",
                 "x", "_cum")

    def __init__(self, b_rho: np.ndarray, denom: np.ndarray,
                 numer: np.ndarray, ratios: np.ndarray, prefix: np.ndarray,
                 terms: np.ndarray, x: np.ndarray) -> None:
        self.b_rho = b_rho
        self.denom = denom
        self.numer = numer
        self.ratios = ratios
        self.prefix = prefix
        self.terms = terms
        self.x = x
        self._cum: np.ndarray | None = None

    @property
    def cum(self) -> np.ndarray:
        if self._cum is None:
            self._cum = np.cumsum(self.terms, axis=-1)
        return self._cum


def _build_columns(rho: np.ndarray, A, B, td) -> _Columns:
    """Eq. (1) over the last axis of ``rho`` — the one implementation.

    ``rho`` is a 1-D profile or an ``(m, n)`` batch; ``A``, ``B`` and
    ``td`` (τδ) are floats, or arrays broadcasting against ``rho`` for a
    parameter grid (one row per parameter set).  ``x`` has the input's
    shape minus its last axis.
    """
    b_rho = B * rho
    denom = b_rho + A
    numer = b_rho + td
    ratios = numer / denom
    # Exclusive prefix product per row: [1, r1, r1·r2, …], sequential
    # along the row whatever the leading shape.
    prefix = np.empty_like(denom)
    prefix[..., 0] = 1.0
    np.cumprod(ratios[..., :-1], axis=-1, out=prefix[..., 1:])
    terms = prefix / denom
    # Pairwise summation over contiguous memory: a row of a 2-D batch
    # sums bit-identically to the same row as a 1-D array.
    x = np.sum(terms, axis=-1)
    return _Columns(b_rho=b_rho, denom=denom, numer=numer, ratios=ratios,
                    prefix=prefix, terms=terms, x=x)


def _readonly(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class ProfileBatch:
    """m same-size heterogeneity profiles as one validated ρ-matrix.

    Parameters
    ----------
    rho:
        Array-like of shape ``(m, n)``: m profiles of n computers each.
        Every entry must be positive and finite; ``m = 0`` is allowed
        (the empty batch), ``n = 0`` is not.
    copy:
        Copy the input (default).  ``copy=False`` adopts the array
        without copying when it is already C-contiguous ``float64`` —
        the caller must then not mutate it.

    Notes
    -----
    Construction cost is one O(m·n) validation pass.  Derived columns
    (``Bρ + A``, ``Bρ + τδ``, prefix products, X) are computed lazily
    per parameter set and cached, so asking for ``x`` and then ``hecr``
    under the same params runs eq. (1) once.
    """

    __slots__ = ("_rho", "_columns", "_sorted_desc")

    def __init__(self, rho, *, copy: bool = True) -> None:
        self._rho = _validate_matrix(rho, copy=copy)
        self._columns: dict[tuple[float, float, float], _Columns] = {}
        self._sorted_desc: np.ndarray | None = None

    @classmethod
    def from_profiles(cls, profiles) -> "ProfileBatch":
        """Stack an iterable of equal-size :class:`Profile` objects."""
        rows = [p.rho if isinstance(p, Profile) else np.asarray(p, dtype=float)
                for p in profiles]
        if not rows:
            raise InvalidParameterError(
                "from_profiles needs at least one profile; build an empty "
                "batch with ProfileBatch(np.empty((0, n)))")
        sizes = {r.shape for r in rows}
        if len(sizes) != 1:
            raise InvalidProfileError(
                f"cannot batch profiles of different sizes: {sorted(sizes)}")
        return cls(np.stack(rows), copy=False)

    # -- shape ---------------------------------------------------------
    @property
    def rho(self) -> np.ndarray:
        """The ``(m, n)`` ρ-matrix as a read-only view."""
        return _readonly(self._rho)

    @property
    def m(self) -> int:
        """Number of profiles in the batch."""
        return int(self._rho.shape[0])

    @property
    def n(self) -> int:
        """Number of computers per profile."""
        return int(self._rho.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def __len__(self) -> int:
        return self.m

    def row(self, i: int) -> Profile:
        """Row ``i`` as a scalar :class:`Profile`."""
        return Profile(self._rho[i])

    def __repr__(self) -> str:
        return f"ProfileBatch(m={self.m}, n={self.n})"

    # -- derived columns ----------------------------------------------
    def columns(self, params: ModelParams) -> _Columns:
        """The cached derived columns for ``params`` (computed once)."""
        key = (params.tau, params.pi, params.delta)
        cols = self._columns.get(key)
        if cols is None:
            cols = _build_columns(self._rho, params.A, params.B,
                                  params.tau_delta)
            self._columns[key] = cols
            while len(self._columns) > _COLUMN_CACHE_ENTRIES:
                self._columns.pop(next(iter(self._columns)))
        return cols

    # -- eq. (1) / Theorem 2 kernels ----------------------------------
    def x(self, params: ModelParams) -> np.ndarray:
        """``X(Pᵢ)`` per row — bit-identical to per-row ``x_measure``."""
        return self.columns(params).x.copy()

    def work_rates(self, params: ModelParams, *,
                   x: np.ndarray | None = None) -> np.ndarray:
        """Per-row asymptotic work rate ``1/(τδ + 1/X)`` (Theorem 2)."""
        return 1.0 / (params.tau_delta + 1.0 / self._x(params, x))

    def work_production(self, params: ModelParams, lifespan: float, *,
                        x: np.ndarray | None = None) -> np.ndarray:
        """Per-row ``W(L; Pᵢ) = L / (τδ + 1/X(Pᵢ))``."""
        if lifespan <= 0 or not np.isfinite(lifespan):
            raise InvalidParameterError(
                f"lifespan must be positive and finite, got {lifespan!r}")
        return lifespan * self.work_rates(params, x=x)

    def hecr(self, params: ModelParams, *,
             x: np.ndarray | None = None) -> np.ndarray:
        """Per-row HECR (Proposition 1); NaN for saturated/unreachable rows.

        See :func:`hecr_from_x_many` for the NaN contract.
        """
        return hecr_from_x_many(self._x(params, x), self.n, params)

    def _x(self, params: ModelParams, x: np.ndarray | None) -> np.ndarray:
        """The cached X column, or a caller-supplied one of matching shape."""
        if x is None:
            return self.columns(params).x
        x = np.asarray(x, dtype=float)
        if x.shape != (self.m,):
            raise InvalidParameterError(
                f"shape mismatch: x has shape {x.shape}, batch has "
                f"{self.m} rows")
        return x

    # -- §4.2 row statistics ------------------------------------------
    def means(self) -> np.ndarray:
        """Row arithmetic means (``Profile.mean`` per row, bitwise)."""
        return self._rho.mean(axis=1)

    def variances(self) -> np.ndarray:
        """Row population variances — eq. (7), ``Profile.variance``."""
        return self._rho.var(axis=1)

    def stds(self) -> np.ndarray:
        """Row population standard deviations."""
        return self._rho.std(axis=1)

    def geometric_means(self) -> np.ndarray:
        """Row geometric means ``exp(mean(log ρ))``."""
        return np.exp(np.mean(np.log(self._rho), axis=1))

    def harmonic_means(self) -> np.ndarray:
        """Row harmonic means ``n / Σ(1/ρ)`` — the ablation's statistic."""
        return self.n / np.sum(1.0 / self._rho, axis=1)

    def min_rho(self) -> np.ndarray:
        """Row minima (each profile's fastest computer)."""
        return self._rho.min(axis=1)

    def max_rho(self) -> np.ndarray:
        """Row maxima (each profile's slowest computer)."""
        return self._rho.max(axis=1)

    def totals(self) -> np.ndarray:
        """Row sums of ρ — majorization's conserved budget."""
        return self._rho.sum(axis=1)

    def sorted_desc(self) -> np.ndarray:
        """Rows sorted nonincreasing (power order), cached, read-only."""
        if self._sorted_desc is None:
            self._sorted_desc = np.sort(self._rho, axis=1)[:, ::-1]
        return _readonly(self._sorted_desc)


# ---------------------------------------------------------------------
# Proposition 1 — the one closed form
# ---------------------------------------------------------------------
def hecr_from_x_many(x_values: np.ndarray, n: int,
                     params: ModelParams) -> np.ndarray:
    """Proposition 1's closed form over precomputed X-values.

    Parameters
    ----------
    x_values:
        Shape ``(m,)`` of positive X-measures.
    n:
        Common cluster size (≥ 1).
    params:
        Architectural model parameters.

    Returns
    -------
    numpy.ndarray
        Shape ``(m,)`` of HECRs.  An entry is **NaN** when no finite
        homogeneous equivalent exists at float64 resolution: X at/above
        the ``1/(A − τδ)`` saturation bound, *or* a derived rate that is
        non-positive (just below the bound the closed form's
        cancellation can otherwise emit small *negative* rates).  The
        scalar :func:`~repro.core.hecr.hecr_from_x` runs the same closed
        form on one float and raises exactly where this returns NaN.

    Raises
    ------
    InvalidParameterError
        For ``n < 1`` or non-positive/non-finite ``x_values`` — those
        are caller bugs, not saturated clusters.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    x = np.asarray(x_values, dtype=float)
    if not ((x > 0.0) & (x < np.inf)).all():  # NaN fails both comparisons
        raise InvalidParameterError("x_values must be positive and finite")
    return _hecr_closed_form(x, n, params.A, params.B, params.tau_delta)


def _hecr_closed_form(x, n: int, A, B, td):
    """Proposition 1 on validated X-values; NaN where no rate exists.

    ``x`` is an array, or one float (the scalar
    :func:`~repro.core.hecr.hecr_from_x`): then every mask below is a
    plain bool and no array is built, while the arithmetic runs through
    the very same numpy ufuncs, so the float is bitwise the batch entry.
    ``A``, ``B`` and ``td`` (τδ) are floats, or arrays aligned with
    ``x`` for a parameter grid.
    """
    gap = A - td
    eps = gap * x
    # Mathematically eps < 1 strictly for every real profile, but
    # extreme profiles can round eps to 1.0 in float64.  The cutoff is
    # exactly ``eps >= 1.0``, no wider: in large-gap regimes a rate just
    # below the bound is still positive and valid.
    saturated = eps >= 1.0
    # gap == 0 is the A = τδ limit, X(P^(ρ)) = n/(Bρ + A) ⇒
    # ρ = (n/X − A)/B; its eps is swapped out so the closed form's
    # division stays finite in the branch the selection discards.
    limit = gap == 0.0
    eps_safe = _select(saturated | limit, 0.5, eps)
    # one_minus_D = 1 − (1 − ε)^{1/n}, computed cancellation-free.
    one_minus_D = -np.expm1(np.log1p(-eps_safe) / n)
    out = _select(limit, (n / x - A) / B, gap / (B * one_minus_D) - A / B)
    return _select(saturated, np.nan, _select(out <= 0.0, np.nan, out))


def _select(cond, if_true, if_false):
    """``np.where``, short-circuited when ``cond`` is a single truth value."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, if_true, if_false)
    return if_true if cond else if_false


# ---------------------------------------------------------------------
# Pairwise predictor kernels (two aligned batches → {0, 1, −1} per row)
# ---------------------------------------------------------------------
#: The §4.3 ablation statistics: name → (ProfileBatch method name,
#: larger_wins), mirroring ``repro.predictors.variance.MOMENT_PREDICTORS``.
MOMENT_STATISTICS: dict[str, tuple[str, bool]] = {
    "variance": ("variances", True),
    "geometric-mean": ("geometric_means", False),
    "harmonic-mean": ("harmonic_means", False),
    "min-rho": ("min_rho", False),
}


def _require_aligned(a: ProfileBatch, b: ProfileBatch) -> None:
    if a.shape != b.shape:
        raise InvalidProfileError(
            f"pairwise prediction compares aligned equal-size batches "
            f"(got shapes {a.shape} vs {b.shape})")


def moment_predictions(batch_a: ProfileBatch, batch_b: ProfileBatch,
                       statistic: str = "variance") -> np.ndarray:
    """Row-wise moment-predictor calls, one per aligned pair.

    Returns an int array over rows: 0 when the statistic says the first
    profile wins, 1 for the second, −1 on an exact tie — the semantics
    of each ``MOMENT_PREDICTORS[statistic]`` scalar predictor, without
    the per-pair Python call.
    """
    _require_aligned(batch_a, batch_b)
    try:
        method, larger_wins = MOMENT_STATISTICS[statistic]
    except KeyError:
        raise InvalidParameterError(
            f"unknown moment statistic {statistic!r}; expected one of "
            f"{sorted(MOMENT_STATISTICS)}") from None
    sa = getattr(batch_a, method)()
    sb = getattr(batch_b, method)()
    out = np.where((sa > sb) == larger_wins, 0, 1)
    out[sa == sb] = -1
    return out


def variance_predictions(batch_a: ProfileBatch,
                         batch_b: ProfileBatch) -> np.ndarray:
    """Row-wise Theorem-5 variance predictions over equal-mean pairs.

    The batched :func:`~repro.predictors.variance.variance_prediction`:
    enforces the equal-mean precondition per row (same relative
    tolerance), then 0/1/−1 by variance comparison.
    """
    _require_aligned(batch_a, batch_b)
    mean_a = batch_a.means()
    mean_b = batch_b.means()
    scale = np.maximum(np.maximum(np.abs(mean_a), np.abs(mean_b)), 1e-300)
    bad = np.abs(mean_a - mean_b) > _MEAN_RTOL * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidProfileError(
            f"variance prediction requires equal mean speeds "
            f"(row {i}: {float(mean_a[i])!r} vs {float(mean_b[i])!r})")
    return moment_predictions(batch_a, batch_b, "variance")


def minorization_predictions(batch_a: ProfileBatch,
                             batch_b: ProfileBatch) -> np.ndarray:
    """Row-wise Proposition-2 verdicts: 0/1 for a strict minorizer, −1
    when neither profile entrywise-dominates after power-ordering."""
    _require_aligned(batch_a, batch_b)
    a = batch_a.sorted_desc()
    b = batch_b.sorted_desc()
    first = np.all(a <= b, axis=1) & np.any(a < b, axis=1)
    second = np.all(b <= a, axis=1) & np.any(b < a, axis=1)
    return np.where(first, 0, np.where(second, 1, -1))


def majorization_predictions(batch_a: ProfileBatch,
                             batch_b: ProfileBatch) -> np.ndarray:
    """Row-wise majorization predictions over equal-sum pairs.

    Exactly :func:`~repro.predictors.majorization.majorization_prediction`
    per row — same descending partial-sum comparison, same relative
    tolerance, same abstention (−1) on equivalent or incomparable rows —
    with the cumulative sums batched.
    """
    _require_aligned(batch_a, batch_b)
    a = batch_a.sorted_desc()
    b = batch_b.sorted_desc()
    total_a = a.sum(axis=1)
    total_b = b.sum(axis=1)
    tol = _MAJORIZATION_RTOL * np.maximum(total_a, 1e-300)
    bad = np.abs(total_a - total_b) > tol
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidProfileError(
            f"majorization compares equal-sum profiles "
            f"(row {i}: {float(total_a[i])!r} vs {float(total_b[i])!r})")
    ca = np.cumsum(a, axis=1)
    cb = np.cumsum(b, axis=1)
    first = np.all(ca[:, :-1] >= cb[:, :-1] - tol[:, None], axis=1)
    second = np.all(cb[:, :-1] >= ca[:, :-1] - tol[:, None], axis=1)
    out = np.full(batch_a.m, -1, dtype=int)
    out[first & ~second] = 0
    out[second & ~first] = 1
    return out
