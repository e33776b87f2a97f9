"""Parallel batch execution: worker pools, shard fan-out, result cache.

The subsystem behind ``repro-hetero run all --jobs N``:

* :mod:`repro.batch.engine` — a process-pool executor that runs
  registered experiments (and, for experiments declaring a
  :class:`~repro.experiments.base.ShardSpec`, their independent trial
  shards) across cores, deterministically: ``--jobs N`` is row-for-row
  identical to ``--jobs 1``.
* :mod:`repro.batch.cache` — the experiment codec for the result
  cache, keyed by ``(experiment_id, kwargs, seed, package version)`` so
  repeated or concurrent ``run all`` / ``report`` invocations and
  ``serve`` dispatches compute each entry once.
* :mod:`repro.batch.shared_cache` — the one on-disk tier underneath:
  atomic publishes plus claim-file single-flight dedup, so processes
  sharing a directory compute each answer once.

See ``docs/BATCH.md`` for the execution model, the seeding scheme and
the observability-merge semantics.
"""

from repro.batch.cache import ResultCache, cache_key, default_cache_dir
from repro.batch.engine import BatchItem, BatchReport, run_batch
from repro.batch.shared_cache import SharedCache

__all__ = ["BatchItem", "BatchReport", "ResultCache", "SharedCache",
           "cache_key", "default_cache_dir",
           "run_batch"]
