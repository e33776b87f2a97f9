"""Protocol abstractions for the Cluster-Exploitation Problem (paper §2.2).

A *worksharing protocol* is a schedule by which the server C₀ shares work
with the cluster: it fixes a *startup order* Σ (the order in which
computers receive work) and a *finishing order* Φ (the order in which they
return results), and allocates each computer a work quantum ``wᵢ`` so that
sends are seriatim (no gaps), result messages are non-overlapping, and all
activity completes by the lifespan ``L``.

This module defines the :class:`Protocol` interface and the
:class:`WorkAllocation` value object that concrete protocols
(:class:`repro.protocols.fifo.FifoProtocol`,
:class:`repro.protocols.lifo.LifoProtocol`,
:class:`repro.protocols.general.GeneralProtocol`) produce.
"""

from __future__ import annotations

import abc
import math
import operator
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import ProtocolError

__all__ = ["WorkAllocation", "Protocol", "validate_order"]


def validate_order(order: Sequence[int], n: int, *, name: str = "order") -> tuple[int, ...]:
    """Check that ``order`` is a permutation of ``range(n)``, exactly.

    Elements must be integers (Python or NumPy); a bool or a float, even
    an integral one, is refused rather than truncated.  Returns the order
    as a tuple of plain ints.
    """
    try:
        tup = tuple(order)
    except TypeError as exc:
        raise ProtocolError(f"{name} must be a sequence of integers: {exc}") from exc
    kinds = set(map(type, tup))
    if not kinds <= {int}:
        exact = not any(issubclass(k, (bool, np.bool_)) for k in kinds)
        try:
            tup = tuple(map(operator.index, tup)) if exact else None
        except TypeError:
            tup = None
    if tup is None or sorted(tup) != list(range(n)):
        raise ProtocolError(
            f"{name} must be a permutation of range({n}), got {order!r}")
    return tup


@dataclass(frozen=True)
class WorkAllocation:
    """The outcome of scheduling a worksharing protocol.

    Attributes
    ----------
    profile:
        The cluster's heterogeneity profile; index ``c`` refers to the
        profile's c-th computer throughout.
    params:
        Architectural model parameters used to schedule.
    lifespan:
        The CEP lifespan ``L``.
    w:
        Work quanta, aligned with profile indices: ``w[c]`` work units go
        to computer ``c``.  Entries may be zero (a computer that receives
        no work under this protocol).
    startup_order:
        Σ as a tuple of computer indices: ``startup_order[k]`` receives
        work k-th.
    finishing_order:
        Φ as a tuple of computer indices: ``finishing_order[k]`` returns
        its results k-th.
    protocol_name:
        Human-readable name of the producing protocol.
    orders_checked:
        Construction-only flag: True when both orders are already what
        :func:`validate_order` returned for this profile (the solvers
        pass it for orders they checked or generated), so they are not
        checked again.

    Notes
    -----
    ``WorkAllocation`` is a pure description; converting it to explicit
    per-resource busy intervals is the job of
    :func:`repro.protocols.timeline.build_timeline`, and executing it at
    event granularity is the job of :mod:`repro.simulation`.
    """

    profile: Profile
    params: ModelParams
    lifespan: float
    w: np.ndarray
    startup_order: tuple[int, ...]
    finishing_order: tuple[int, ...]
    protocol_name: str = field(default="custom")
    orders_checked: InitVar[bool] = False

    def __post_init__(self, orders_checked: bool) -> None:
        n = self.profile.n
        w = np.asarray(self.w, dtype=float)
        if w.shape != (n,):
            raise ProtocolError(
                f"w must have shape ({n},) matching the profile, got {w.shape}")
        # The total is finite only if every quantum is and their sum
        # does not overflow a double.
        if np.any(w < 0) or not math.isfinite(w.sum()):
            raise ProtocolError(
                "work quanta must be nonnegative and finite, with a "
                "finite total")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        if not orders_checked:
            object.__setattr__(self, "startup_order",
                               validate_order(self.startup_order, n, name="startup_order"))
            object.__setattr__(self, "finishing_order",
                               validate_order(self.finishing_order, n, name="finishing_order"))
        if self.lifespan <= 0 or not np.isfinite(self.lifespan):
            raise ProtocolError(f"lifespan must be positive and finite, got {self.lifespan!r}")

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of computers in the cluster."""
        return self.profile.n

    @property
    def total_work(self) -> float:
        """Total work units completed: ``Σᵢ wᵢ``."""
        return float(self.w.sum())

    @property
    def work_fractions(self) -> np.ndarray:
        """Each computer's share of the total work (sums to 1)."""
        total = self.total_work
        if total == 0.0:
            return np.zeros_like(self.w)
        return self.w / total

    @property
    def is_fifo(self) -> bool:
        """Whether startup and finishing orders coincide (Σ = Φ)."""
        return self.startup_order == self.finishing_order

    def w_in_startup_order(self) -> np.ndarray:
        """Work quanta reordered so entry k belongs to the k-th started computer."""
        return self.w[np.asarray(self.startup_order)]

    def w_in_finishing_order(self) -> np.ndarray:
        """Work quanta reordered so entry k belongs to the k-th finishing computer."""
        return self.w[np.asarray(self.finishing_order)]

    def summary(self) -> str:
        """One-line human-readable description."""
        return (f"{self.protocol_name}: n={self.n}, L={self.lifespan:g}, "
                f"W={self.total_work:.6g}")


class Protocol(abc.ABC):
    """A worksharing-protocol family that can schedule any cluster.

    Concrete protocols implement :meth:`allocate`, which may raise
    :class:`repro.errors.InfeasibleScheduleError` when no schedule of the
    family's shape exists for the given inputs.
    """

    #: Human-readable protocol-family name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def allocate(self, profile: Profile, params: ModelParams,
                 lifespan: float) -> WorkAllocation:
        """Schedule the protocol on ``profile`` over ``lifespan`` time units.

        Returns the work allocation that maximises total work subject to
        the family's ordering constraints.
        """

    def work_production(self, profile: Profile, params: ModelParams,
                        lifespan: float) -> float:
        """Convenience: total work of :meth:`allocate`'s result."""
        return self.allocate(profile, params, lifespan).total_work

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
