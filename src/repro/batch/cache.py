"""Content-addressed experiment results on the shared cache tier.

Every registered experiment is a pure function of its keyword arguments
(all RNG use is seeded through them), so a completed result can be
reused whenever ``(experiment_id, kwargs, seed, package version)`` is
unchanged.  The cache key is the SHA-256 of that tuple's canonical JSON
form — the seed rides inside ``kwargs``, and the package version folds
in so a code change invalidates every entry at once.

:class:`ResultCache` is only the experiment codec over a
:class:`~repro.batch.shared_cache.SharedCache` (no expiry): entry
``<experiment_id>-<cache_key>`` holds a :func:`repro.io.result_to_dict`
payload, stored by the single-flight loop ``run_batch`` calls
(:meth:`ResultCache.get_or_compute_many`), so concurrent runs sharing a
directory compute each entry once.  A hit rebuilds the result with
:func:`repro.io.result_from_dict`, whose re-serialisation is
byte-identical to the stored payload — so warmed ``run all --json`` /
``report`` invocations are bit-reproducible.  Anything unreadable,
mismatched or unserialisable degrades to a miss (or a skipped store):
the cache can lose entries, never corrupt results.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import __version__
from repro.batch.shared_cache import SharedCache
from repro.experiments.base import ExperimentResult
from repro.experiments.export import jsonable
from repro.io import result_from_dict, result_to_dict

__all__ = ["ResultCache", "cache_key", "default_cache_dir"]


def cache_key(experiment_id: str, kwargs: dict[str, Any]) -> str:
    """The content address of one experiment invocation.

    Module-level so other subsystems (e.g. the run-history store) can
    key telemetry compatibly with cached results without holding a
    :class:`ResultCache`: the SHA-256 of the canonical JSON form of
    ``(experiment_id, kwargs, package version)``.
    """
    canonical = json.dumps(
        {"experiment_id": experiment_id, "kwargs": jsonable(kwargs),
         "version": __version__},
        sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """Where cached results live unless overridden.

    ``$REPRO_CACHE_DIR`` wins; otherwise the platform cache home
    (``$XDG_CACHE_HOME`` or ``~/.cache``) under ``repro-hetero``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-hetero"


class ResultCache:
    """A directory of content-addressed experiment results.

    Safe under concurrent writers: :class:`SharedCache` publishes
    atomically, and two processes computing one key write the same.
    """

    def __init__(self, root: str | Path) -> None:
        self.store = SharedCache(root)

    def key(self, experiment_id: str, kwargs: dict[str, Any]) -> str:
        """The content address of one experiment invocation."""
        return cache_key(experiment_id, kwargs)

    def _entry(self, experiment_id: str, kwargs: dict[str, Any]) -> str:
        return f"{experiment_id}-{self.key(experiment_id, kwargs)}"

    def get(self, experiment_id: str, kwargs: dict[str, Any]
            ) -> ExperimentResult | None:
        """The cached result, or None on any kind of miss.

        Corrupt, unreadable, stale-schema or key-mismatched entries all
        count as misses — a damaged cache degrades to recomputation.
        """
        return _decode(self.store.get(self._entry(experiment_id, kwargs)))

    def put(self, experiment_id: str, kwargs: dict[str, Any],
            result: ExperimentResult) -> bool:
        """Store a result; returns False when it cannot be serialised.

        Results whose metadata defies JSON are simply not cached —
        callers lose the speedup, never the result.
        """
        value = _encode(result)
        return value is not None and self.store.put(
            self._entry(experiment_id, kwargs), value)

    def get_or_compute_many(
            self, kwargs_by_id: Mapping[str, dict[str, Any]],
            compute: Callable[[list[str]], Mapping[str, ExperimentResult]]
            ) -> dict[str, tuple[ExperimentResult | None, str]]:
        """``{experiment_id: (result, outcome)}``, each computed once.

        :meth:`SharedCache.get_or_compute_many` on the result entries:
        ``compute(ids)`` maps the ids this caller leads to results; an
        id it leaves out failed and comes back ``(None, "local")``.  A
        damaged entry is never served: it is recomputed, unstored.
        """
        ids = {self._entry(experiment_id, kwargs): experiment_id
               for experiment_id, kwargs in kwargs_by_id.items()}
        fresh: dict[str, ExperimentResult] = {}

        def encode(entries: list[str]) -> dict[str, Any]:
            fresh.update(compute([ids[entry] for entry in entries]))
            encoded = {entry: _encode(fresh[ids[entry]])
                       for entry in entries if ids[entry] in fresh}
            return {entry: value for entry, value in encoded.items()
                    if value is not None}

        out: dict[str, tuple[ExperimentResult | None, str]] = {}
        damaged = []
        for entry, (value, outcome) in self.store.get_or_compute_many(
                ids, encode).items():
            experiment_id = ids[entry]
            result = (fresh[experiment_id] if experiment_id in fresh
                      else _decode(value))
            out[experiment_id] = (result, outcome)
            if result is None and outcome in ("hit", "follower"):
                damaged.append(experiment_id)
        if damaged:
            fresh.update(compute(damaged))
            out.update((experiment_id, (fresh.get(experiment_id), "local"))
                       for experiment_id in damaged)
        return out


def _encode(result: ExperimentResult) -> dict[str, Any] | None:
    try:
        return result_to_dict(result)
    except (TypeError, ValueError):
        return None


def _decode(value: Any) -> ExperimentResult | None:
    if value is None:
        return None
    try:
        return result_from_dict(value)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
