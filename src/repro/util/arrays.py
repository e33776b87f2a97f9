"""Array validation helpers used across the package.

These helpers normalise user-supplied sequences into 1-D ``float64`` NumPy
arrays and enforce the invariants the model requires (positivity,
finiteness, monotone orderings).  Keeping the checks in one place means
every public entry point reports violations with the same vocabulary.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import InvalidProfileError

__all__ = [
    "as_float_vector",
    "validate_positive_vector",
    "is_nonincreasing",
    "is_nondecreasing",
]


def as_float_vector(values: Iterable[float], *, name: str = "values") -> np.ndarray:
    """Convert ``values`` to a 1-D ``float64`` array.

    Parameters
    ----------
    values:
        Any iterable of numbers (list, tuple, generator, ndarray).
    name:
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        A fresh (never aliased) 1-D ``float64`` array.

    Raises
    ------
    InvalidProfileError
        If the result is empty, not one-dimensional, or contains
        non-finite entries.
    """
    try:
        arr = np.array(list(values) if not isinstance(values, (np.ndarray, Sequence))
                       else values, dtype=float, copy=True)
    except OverflowError:  # an int too large for a double
        raise InvalidProfileError(f"{name} contains non-finite entries") from None
    if arr.ndim != 1:
        raise InvalidProfileError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidProfileError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidProfileError(f"{name} contains non-finite entries")
    return arr


def validate_positive_vector(values: Iterable[float], *, name: str = "values",
                             upper: float | None = None) -> np.ndarray:
    """Validate a strictly positive 1-D vector, optionally bounded above.

    Parameters
    ----------
    values:
        Iterable of numbers.
    name:
        Label used in error messages.
    upper:
        If given, every entry must be ``<= upper``.

    Returns
    -------
    numpy.ndarray
        The validated ``float64`` array.
    """
    arr = as_float_vector(values, name=name)
    if np.any(arr <= 0.0):
        raise InvalidProfileError(f"{name} must be strictly positive; "
                                  f"min entry is {arr.min()!r}")
    if upper is not None and np.any(arr > upper):
        raise InvalidProfileError(f"{name} must not exceed {upper}; "
                                  f"max entry is {arr.max()!r}")
    return arr


def is_nonincreasing(arr: np.ndarray, *, tol: float = 0.0) -> bool:
    """Return True if ``arr`` is sorted in nonincreasing order.

    A tolerance allows for floating-point jitter: adjacent increases of at
    most ``tol`` are still considered sorted.
    """
    a = np.asarray(arr, dtype=float)
    if a.size <= 1:
        return True
    return bool(np.all(np.diff(a) <= tol))


def is_nondecreasing(arr: np.ndarray, *, tol: float = 0.0) -> bool:
    """Return True if ``arr`` is sorted in nondecreasing order (within tol)."""
    a = np.asarray(arr, dtype=float)
    if a.size <= 1:
        return True
    return bool(np.all(np.diff(a) >= -tol))
