"""Unit tests for the batch execution engine (repro.batch.engine)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.batch import ResultCache, run_batch
from repro.errors import InvalidParameterError
from repro.experiments import base
from repro.obs import MetricsRegistry, Observation, Tracer, observe

#: A fast subset covering both execution shapes: unshardable (table3,
#: table4) and sharded (majorization).
_FAST_IDS = ["table3", "table4", "majorization"]
_FAST_KWARGS = {"majorization": {"trials_per_size": 30, "seed": 5}}
_SRC = str(Path(repro.__file__).resolve().parents[1])


class TestSequential:
    def test_runs_in_input_order(self):
        report = run_batch(_FAST_IDS, kwargs_by_id=_FAST_KWARGS, jobs=1)
        assert not report.failures
        assert [r.experiment_id for r in report.results] == _FAST_IDS
        assert report.jobs == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(InvalidParameterError):
            run_batch(["table3"], jobs=0)

    def test_unknown_experiment_is_an_item_error(self):
        report = run_batch(["no-such-experiment"], jobs=1)
        assert [i.experiment_id for i in report.failures] == ["no-such-experiment"]
        assert report.results == []


class TestPool:
    def test_parallel_matches_sequential(self):
        seq = run_batch(_FAST_IDS, kwargs_by_id=_FAST_KWARGS, jobs=1)
        par = run_batch(_FAST_IDS, kwargs_by_id=_FAST_KWARGS, jobs=2)
        assert not par.failures
        for a, b in zip(seq.results, par.results):
            assert a.experiment_id == b.experiment_id
            assert a.rows == b.rows

    def test_sharded_item_reports_shard_count_and_obs(self):
        report = run_batch(["majorization"], kwargs_by_id=_FAST_KWARGS, jobs=2)
        item, = report.items
        assert item.shards > 1
        obs = item.result.metadata["obs"]
        assert obs["shards"] == item.shards
        assert obs["wall_seconds"] >= 0.0

    def test_worker_failure_is_isolated(self, monkeypatch):
        def boom():
            raise RuntimeError("kaboom")
        monkeypatch.setitem(base._REGISTRY, "boom", boom)
        report = run_batch(["table3", "boom", "table4"], jobs=2)
        assert [i.experiment_id for i in report.failures] == ["boom"]
        assert "kaboom" in report.failures[0].error
        assert [r.experiment_id for r in report.results] == ["table3", "table4"]

    def test_worker_metrics_merge_into_ambient_registry(self):
        registry = MetricsRegistry()
        with observe(Observation(registry=registry)):
            run_batch(_FAST_IDS, kwargs_by_id=_FAST_KWARGS, jobs=2)
        from repro.obs.export import prometheus_text
        text = prometheus_text(registry)
        assert 'experiment_runs_total{experiment="table3"}' in text
        assert 'experiment_runs_total{experiment="majorization"}' in text
        assert "experiment_shards_total" in text

    def test_worker_traces_ingest_into_ambient_tracer(self):
        tracer = Tracer(keep_records=True)
        with observe(Observation(tracer=tracer, registry=MetricsRegistry())):
            run_batch(["table3", "majorization"],
                      kwargs_by_id=_FAST_KWARGS, jobs=2)
        names = {r["name"] for r in tracer.records}
        assert "experiment:table3" in names
        assert any(n.startswith("shard:majorization[") for n in names)
        pids = {r["attrs"]["worker_pid"] for r in tracer.records
                if "worker_pid" in r.get("attrs", {})}
        assert pids  # worker records are attributed to their process


class TestCacheIntegration:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_batch(_FAST_IDS, kwargs_by_id=_FAST_KWARGS, jobs=1,
                          cache=cache)
        assert first.cache_hits == 0
        assert first.cache_misses == len(_FAST_IDS)
        second = run_batch(_FAST_IDS, kwargs_by_id=_FAST_KWARGS, jobs=1,
                           cache=cache)
        assert second.cache_hits == len(_FAST_IDS)
        assert all(item.cached for item in second.items)
        for a, b in zip(first.results, second.results):
            # Cached rows come back as tuples (JSON fidelity); values match.
            assert [tuple(r) for r in a.rows] == [tuple(r) for r in b.rows]

    def test_cached_failures_are_not_stored(self, tmp_path, monkeypatch):
        def boom():
            raise RuntimeError("kaboom")
        monkeypatch.setitem(base._REGISTRY, "boom", boom)
        cache = ResultCache(tmp_path)
        run_batch(["boom"], jobs=1, cache=cache)
        assert list(tmp_path.glob("*.json")) == []
        assert list(tmp_path.glob("*.claim")) == []
        # The released claim passes straight to the next batch, which
        # meets its own error instead of outwaiting a dead claim.
        start = time.monotonic()
        report = run_batch(["boom"], jobs=1, cache=cache)
        assert time.monotonic() - start < 1.0
        item, = report.items
        assert "kaboom" in item.error
        assert item.outcome == "local"

    def test_concurrent_batches_compute_each_entry_once(self, tmp_path):
        start_at = time.time() + 3.0  # both children are imported by then
        code = (
            "import json, sys, time\n"
            "from repro.batch import ResultCache, run_batch\n"
            "from repro.io import result_to_dict\n"
            f"time.sleep(max(0.0, {start_at!r} - time.time()))\n"
            "report = run_batch(['majorization', 'table3'], kwargs_by_id={\n"
            "    'majorization': {'trials_per_size': 5000, 'seed': 5}},\n"
            f"    jobs=1, cache=ResultCache({str(tmp_path)!r}))\n"
            "json.dump({i.experiment_id: [i.outcome,\n"
            "           result_to_dict(i.result)['rows']]\n"
            "           for i in report.items}, sys.stdout)\n")
        env = dict(os.environ, PYTHONPATH=_SRC)
        children = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                     stdout=subprocess.PIPE)
                    for _ in range(2)]
        reports = [json.loads(child.communicate(timeout=120)[0])
                   for child in children]
        for experiment_id in ("majorization", "table3"):
            outcomes = sorted(r[experiment_id][0] for r in reports)
            assert outcomes.count("leader") == 1, outcomes
            assert set(outcomes) <= {"leader", "hit", "follower"}, outcomes
            assert reports[0][experiment_id][1] == reports[1][experiment_id][1]

    def test_cache_respects_kwargs(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs_a = {"majorization": {"trials_per_size": 30, "seed": 5}}
        kwargs_b = {"majorization": {"trials_per_size": 30, "seed": 6}}
        run_batch(["majorization"], kwargs_by_id=kwargs_a, jobs=1, cache=cache)
        report = run_batch(["majorization"], kwargs_by_id=kwargs_b, jobs=1,
                           cache=cache)
        assert report.cache_hits == 0  # different seed, different key


class TestObsMetadata:
    def test_sharded_result_rss_is_a_delta_not_inherited(self):
        """A later sharded run must not inherit the session's RSS peak."""
        report = run_batch(["majorization"], kwargs_by_id=_FAST_KWARGS, jobs=2)
        rss = report.items[0].result.metadata["obs"]["peak_rss_bytes"]
        if rss is not None:  # platforms without resource report None
            # A 30-trial study cannot plausibly allocate half the footprint
            # of a warmed-up test session; inherited ru_maxrss would.
            import resource
            session_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            assert rss <= session_peak
