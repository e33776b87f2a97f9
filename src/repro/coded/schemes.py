"""Proactive-redundancy schemes: replication-r and MDS-coded worksharing.

The paper's CEP allocates every work unit exactly once, so a single
lost quantum forces the reactive detect→reschedule loop of
:mod:`repro.faults.recovery`.  The coded-computation literature
(Reisizadeh et al., *Coded Computation over Heterogeneous Clusters*;
Kim/Park/Choi, *Optimal Load Allocation for Coded Distributed
Computation in Heterogeneous Clusters*) attacks the same failure regime
*proactively*: send redundant or coded shares sized to each worker's
speed and accept the fastest responses, trading a bounded waste
fraction for tail latency that no longer depends on the slowest (or
deadest) worker.

Load-allocation rule
--------------------
Following Kim/Park/Choi, shares are sized to worker speed rather than
uniformly.  Concretely:

1. Compute the margin-provisioned FIFO base plan
   ``fifo_allocation(profile, params, margin · L)`` — the same
   headroom posture the recovery experiments run, so coded and
   recovery rows start from an identical feasible layout.
2. Sort workers by ρ (fastest first) and cut the sorted list into
   contiguous *redundancy groups* of ``group_size`` workers (``r`` for
   replication, ``n`` shares for MDS); a short trailing group keeps
   whatever workers remain.
3. Each group ``g`` forms one *quantum*.  Every member receives the
   same share ``s_g = min_{c ∈ g} w_base[c]`` — clipping to the
   group's slowest member only ever *shrinks* quanta relative to the
   feasible base plan, so the redundant layout stays schedulable.
4. The quantum's *useful* work is ``s_g`` for replication (any single
   delivery reconstructs it) and ``k_eff · s_g`` for MDS, where
   ``k_eff = min(k, |g|)`` handles the trailing group.

The *waste fraction* is ``1 − useful / sent`` where ``sent`` is the
total share mass actually transmitted: ``(r−1)/r`` for replication-r,
``(n−k)/n`` for MDS(k, n) on full groups.

The per-quantum expected-completion model is vectorised: full groups
stack into one ``(groups, group_size)`` ρ-matrix that gives every
member's service estimate ``(Bρ + τδ)·s_g`` in three vector ops,
and the k-th order statistic per row is the quantum's expected
completion — the fastest-k semantics before any fault is injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import CodedSchemeError
from repro.protocols.base import WorkAllocation
from repro.protocols.fifo import fifo_allocation

__all__ = ["CodedQuantum", "CodedPlan", "ReplicationScheme", "MDSScheme",
           "RedundancyScheme", "parse_scheme", "scheme_from_spec"]

#: Default provisioning headroom, matching the failure-resilience
#: experiments: allocate for ``margin · L``, judge against the full L.
DEFAULT_MARGIN = 0.8


@dataclass(frozen=True)
class CodedQuantum:
    """One unit of redundantly-provisioned work.

    Attributes
    ----------
    index:
        Position in the plan's quantum list.
    members:
        Profile indices of the workers holding this quantum's shares.
    k:
        Distinct deliveries needed to reconstruct the quantum.
    share:
        Work units each member computes (the coded share size).
    work:
        Useful work units the quantum carries once decoded
        (``share`` for replication, ``k·share`` for MDS).
    """

    index: int
    members: tuple[int, ...]
    k: int
    share: float
    work: float

    @property
    def sent_work(self) -> float:
        """Total share mass transmitted for this quantum."""
        return self.share * len(self.members)


@dataclass(frozen=True)
class CodedPlan:
    """A redundancy scheme compiled against a concrete cluster.

    Wraps a :class:`~repro.protocols.base.WorkAllocation` (every share
    is an ordinary quantum to the simulator) plus the coded structure
    the collector needs to apply fastest-k completion semantics.
    """

    scheme: "RedundancyScheme"
    allocation: WorkAllocation
    quanta: tuple[CodedQuantum, ...]
    #: Model estimate of each quantum's k-th-fastest service time
    #: (fault-free), aligned with ``quanta``.
    expected_latency: tuple[float, ...] = ()
    margin: float = DEFAULT_MARGIN
    #: quantum_of[c] = index of the quantum computer c serves, -1 if none.
    quantum_of: tuple[int, ...] = field(default=(), repr=False)

    @property
    def useful_work(self) -> float:
        """Decoded work units if every quantum completes."""
        return float(sum(q.work for q in self.quanta))

    @property
    def sent_work(self) -> float:
        """Total share mass transmitted (the allocation's total work)."""
        return float(sum(q.sent_work for q in self.quanta))

    @property
    def expected_waste_fraction(self) -> float:
        """``1 − useful/sent`` — the price of the redundancy."""
        sent = self.sent_work
        return 1.0 - self.useful_work / sent if sent > 0.0 else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly summary (service responses, experiment metadata)."""
        return {
            "scheme": self.scheme.label,
            "kind": self.scheme.kind,
            "margin": self.margin,
            "useful_work": self.useful_work,
            "sent_work": self.sent_work,
            "expected_waste_fraction": self.expected_waste_fraction,
            "quanta": [{"index": q.index, "members": list(q.members),
                        "k": q.k, "share": q.share, "work": q.work}
                       for q in self.quanta],
            "expected_latency": list(self.expected_latency),
        }


def _expected_latencies(groups: Sequence[tuple[int, ...]],
                        shares: Sequence[float], ks: Sequence[int],
                        rho: np.ndarray, params: ModelParams) -> list[float]:
    """Model estimate of each quantum's k-th-fastest service time.

    Same-size groups are stacked into one ρ-matrix so the ``Bρ + τδ``
    factor is a single vector op; odd-size trailing groups get the same
    arithmetic on their own (smaller) matrix.
    """
    latencies = [0.0] * len(groups)
    by_size: dict[int, list[int]] = {}
    for i, members in enumerate(groups):
        by_size.setdefault(len(members), []).append(i)
    td = params.tau_delta
    for size, indices in by_size.items():
        rows = np.array([[rho[c] for c in groups[i]] for i in indices])
        # Per-member service estimate: unpackage+compute+package plus the
        # result transit, linear in the share — (Bρ + τδ)·s.
        per_member = params.B * rows + td
        share_col = np.array([shares[i] for i in indices])[:, None]
        times = np.sort(per_member * share_col, axis=1)
        for row, i in enumerate(indices):
            k_eff = min(ks[i], size)
            latencies[i] = float(times[row, k_eff - 1])
    return latencies


class RedundancyScheme:
    """Base class: a redundancy layout over speed-sorted worker groups.

    Subclasses fix the group size, the per-quantum delivery quorum
    ``k``, and a human-readable label; :meth:`plan` implements the
    shared Kim/Park/Choi-style load-allocation rule (module docstring).
    """

    kind: str = "abstract"

    @property
    def group_size(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def quorum(self, group_size: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def label(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def plan(self, profile: Profile, params: ModelParams, lifespan: float,
             *, margin: float = DEFAULT_MARGIN) -> CodedPlan:
        """Compile the scheme into a :class:`CodedPlan` for this cluster."""
        if not (0.0 < margin <= 1.0):
            raise CodedSchemeError(
                f"margin must lie in (0, 1], got {margin!r}")
        if profile.n < self.group_size:
            raise CodedSchemeError(
                f"{self.label} needs at least {self.group_size} workers, "
                f"profile has {profile.n}")
        base = fifo_allocation(profile, params, margin * lifespan)
        rho = profile.rho
        # Fastest workers first, ties broken by index for determinism.
        order = sorted(range(profile.n), key=lambda c: (rho[c], c))

        w = np.zeros(profile.n)
        groups: list[tuple[int, ...]] = []
        shares: list[float] = []
        ks: list[int] = []
        quanta: list[CodedQuantum] = []
        quantum_of = [-1] * profile.n
        for start in range(0, profile.n, self.group_size):
            members = tuple(order[start:start + self.group_size])
            share = float(min(base.w[c] for c in members))
            if share <= 0.0:
                continue
            k_eff = self.quorum(len(members))
            index = len(quanta)
            for c in members:
                w[c] = share
                quantum_of[c] = index
            groups.append(members)
            shares.append(share)
            ks.append(k_eff)
            quanta.append(CodedQuantum(index=index, members=members,
                                       k=k_eff, share=share,
                                       work=k_eff * share))
        if not quanta:
            raise CodedSchemeError(
                f"{self.label} produced no nonzero quanta "
                f"(lifespan {lifespan!r} too short?)")
        allocation = WorkAllocation(
            profile=profile, params=params, lifespan=lifespan, w=w,
            startup_order=base.startup_order,
            finishing_order=base.finishing_order,
            protocol_name=f"coded-{self.label}")
        latencies = _expected_latencies(groups, shares, ks, rho, params)
        return CodedPlan(scheme=self, allocation=allocation,
                         quanta=tuple(quanta),
                         expected_latency=tuple(latencies), margin=margin,
                         quantum_of=tuple(quantum_of))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.label!r})"


@dataclass(frozen=True, repr=False)
class ReplicationScheme(RedundancyScheme):
    """Each quantum is sent verbatim to ``r`` workers; first delivery wins."""

    r: int = 2
    kind: str = field(default="replication", init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or self.r < 1:
            raise CodedSchemeError(
                f"replication factor must be an integer >= 1, got {self.r!r}")

    @property
    def group_size(self) -> int:
        return self.r

    def quorum(self, group_size: int) -> int:
        return 1

    @property
    def label(self) -> str:
        return f"replication-{self.r}"


@dataclass(frozen=True, repr=False)
class MDSScheme(RedundancyScheme):
    """MDS(k, n): ``shares`` coded shares per quantum, any ``k`` decode it."""

    k: int = 2
    shares: int = 3
    kind: str = field(default="mds", init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or not isinstance(self.shares, int):
            raise CodedSchemeError(
                f"MDS parameters must be integers, got k={self.k!r}, "
                f"n={self.shares!r}")
        if self.k < 1 or self.shares < self.k:
            raise CodedSchemeError(
                f"MDS needs 1 <= k <= n, got k={self.k}, n={self.shares}")

    @property
    def group_size(self) -> int:
        return self.shares

    def quorum(self, group_size: int) -> int:
        return min(self.k, group_size)

    @property
    def label(self) -> str:
        return f"mds-{self.k}/{self.shares}"


def parse_scheme(text: str) -> RedundancyScheme:
    """Parse the compact ``--scheme`` grammar.

    ``replication:<r>`` — each quantum replicated across r workers;
    ``mds:<k>/<n>`` — n coded shares per quantum, any k suffice.

    Raises
    ------
    CodedSchemeError
        On any malformed specification — the CLI maps this to exit
        code 2 (invalid input), the service to HTTP 400.
    """
    spec = text.strip().lower()
    head, sep, body = spec.partition(":")
    if not sep:
        raise CodedSchemeError(
            f"unparseable scheme {text!r}: expected 'replication:<r>' "
            f"or 'mds:<k>/<n>'")
    if head == "replication":
        try:
            return ReplicationScheme(int(body))
        except ValueError:
            raise CodedSchemeError(
                f"bad replication factor {body!r} in scheme {text!r}"
            ) from None
    if head == "mds":
        k_str, sep, n_str = body.partition("/")
        if not sep:
            raise CodedSchemeError(
                f"mds scheme must be mds:<k>/<n>, got {text!r}")
        try:
            return MDSScheme(int(k_str), int(n_str))
        except ValueError:
            raise CodedSchemeError(
                f"bad mds parameters {body!r} in scheme {text!r}") from None
    raise CodedSchemeError(
        f"unknown scheme kind {head!r} in {text!r}: expected "
        f"'replication' or 'mds'")


def scheme_from_spec(spec: "str | RedundancyScheme | Sequence") -> RedundancyScheme:
    """Coerce a scheme spec — string, tuple, or scheme — to a scheme.

    Tuple forms are the service layer's canonical payloads:
    ``("replication", r)`` and ``("mds", k, n)``.
    """
    if isinstance(spec, RedundancyScheme):
        return spec
    if isinstance(spec, str):
        return parse_scheme(spec)
    try:
        kind, *rest = spec
    except TypeError:
        raise CodedSchemeError(f"unparseable scheme spec {spec!r}") from None
    if kind == "replication" and len(rest) == 1:
        return ReplicationScheme(int(rest[0]))
    if kind == "mds" and len(rest) == 2:
        return MDSScheme(int(rest[0]), int(rest[1]))
    raise CodedSchemeError(f"unparseable scheme spec {spec!r}")
