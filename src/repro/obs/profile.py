"""Opt-in hot-path profiler: cumulative per-function timers via patching.

Benchmarks (and curious users) can wrap the library's known hot
functions — the X-measure kernels, FIFO allocation/timeline
construction, and the simulator event loop — with cumulative wall-clock
timers, run a workload, and read off where the time went.  This is
deliberately *not* ``cProfile``: it times a handful of named targets
with near-zero distortion instead of every frame with a lot.

The profiler is strictly opt-in and reversible: :meth:`enable` swaps
each target for a timing wrapper, :meth:`disable` restores the original
attributes, and the context-manager form guarantees restoration.

Examples
--------
>>> from repro.obs.profile import HotPathProfiler
>>> from repro.core.measure import x_measure  # doctest: +SKIP
>>> with HotPathProfiler() as prof:           # doctest: +SKIP
...     run_workload()
>>> print(prof.report())                      # doctest: +SKIP
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import InvalidParameterError

__all__ = ["FunctionStat", "HotPathProfiler", "DEFAULT_TARGETS"]

#: ``module:qualname`` paths of the library's known hot functions.
DEFAULT_TARGETS = (
    "repro.core.measure:x_measure",
    "repro.core.batch_kernels:ProfileBatch.x",
    "repro.protocols.fifo:fifo_allocation",
    "repro.protocols.timeline:build_timeline",
    "repro.simulation.engine:Simulator.run",
)


@dataclass(frozen=True)
class FunctionStat:
    """Cumulative timing of one profiled target."""

    target: str
    calls: int
    cumulative_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.cumulative_seconds / self.calls if self.calls else 0.0


class _Patch:
    """One installed wrapper: where it lives and what it replaced."""

    __slots__ = ("owner", "attr", "original", "calls", "seconds")

    def __init__(self, owner: Any, attr: str, original: Any) -> None:
        self.owner = owner
        self.attr = attr
        self.original = original
        self.calls = 0
        self.seconds = 0.0


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``"pkg.mod:Class.method"`` → (owner object, attr name, callable)."""
    try:
        module_name, qualname = target.split(":")
    except ValueError:
        raise InvalidParameterError(
            f"profiler target must look like 'module:qualname', got {target!r}")
    owner: Any = importlib.import_module(module_name)
    *holders, attr = qualname.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    func = getattr(owner, attr)
    if not callable(func):
        raise InvalidParameterError(f"profiler target {target!r} is not callable")
    return owner, attr, func


class HotPathProfiler:
    """Cumulative timers around a set of ``module:qualname`` targets."""

    def __init__(self, targets: tuple[str, ...] = DEFAULT_TARGETS) -> None:
        self.targets = tuple(targets)
        self._patches: dict[str, _Patch] = {}
        self.enabled = False

    # ------------------------------------------------------------------
    def enable(self) -> "HotPathProfiler":
        """Install timing wrappers (idempotent)."""
        if self.enabled:
            return self
        for target in self.targets:
            owner, attr, original = _resolve(target)
            patch = _Patch(owner, attr, original)

            @functools.wraps(original)
            def wrapper(*args: Any, _patch: _Patch = patch, **kwargs: Any) -> Any:
                start = time.perf_counter()
                try:
                    return _patch.original(*args, **kwargs)
                finally:
                    _patch.seconds += time.perf_counter() - start
                    _patch.calls += 1

            setattr(owner, attr, wrapper)
            self._patches[target] = patch
        self.enabled = True
        return self

    def disable(self) -> None:
        """Restore every patched attribute (idempotent)."""
        for patch in self._patches.values():
            setattr(patch.owner, patch.attr, patch.original)
        self.enabled = False

    def __enter__(self) -> "HotPathProfiler":
        return self.enable()

    def __exit__(self, *exc_info: Any) -> None:
        self.disable()

    # ------------------------------------------------------------------
    def stats(self) -> list[FunctionStat]:
        """Per-target stats, hottest first."""
        stats = [FunctionStat(target=t, calls=p.calls,
                              cumulative_seconds=p.seconds)
                 for t, p in self._patches.items()]
        return sorted(stats, key=lambda s: s.cumulative_seconds, reverse=True)

    def report(self) -> str:
        """A monospace table of where the time went."""
        lines = [f"{'target':<44s} {'calls':>8s} {'cum (s)':>10s} {'mean (ms)':>10s}",
                 "-" * 76]
        for s in self.stats():
            lines.append(f"{s.target:<44s} {s.calls:>8d} "
                         f"{s.cumulative_seconds:>10.4f} "
                         f"{s.mean_seconds * 1e3:>10.4f}")
        return "\n".join(lines)
