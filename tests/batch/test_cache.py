"""Unit tests for the content-addressed result cache (repro.batch.cache)."""

import json

from repro.batch.cache import ResultCache, default_cache_dir
from repro.experiments.base import ExperimentResult


def _result(**overrides) -> ExperimentResult:
    fields = dict(experiment_id="table3", title="t",
                  headers=("a", "b"), rows=((1, 2.5), (3, None)),
                  notes=("a note",), metadata={"k": "v"})
    fields.update(overrides)
    return ExperimentResult(**fields)


class TestKey:
    def test_stable_across_calls(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert (cache.key("table3", {"seed": 1})
                == cache.key("table3", {"seed": 1}))

    def test_sensitive_to_id_kwargs_and_order_insensitive(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key("table3", {"seed": 1, "trials_per_size": 10})
        assert cache.key("table4", {"seed": 1, "trials_per_size": 10}) != base
        assert cache.key("table3", {"seed": 2, "trials_per_size": 10}) != base
        # Canonical JSON: kwarg insertion order must not matter.
        assert cache.key("table3", {"trials_per_size": 10, "seed": 1}) == base

    def test_folds_in_package_version(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        before = cache.key("table3", {})
        monkeypatch.setattr("repro.batch.cache.__version__", "999.0.0")
        assert cache.key("table3", {}) != before


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("table3", {"seed": 1}) is None
        assert cache.put("table3", {"seed": 1}, _result()) is True
        got = cache.get("table3", {"seed": 1})
        assert got is not None
        assert got.rows == ((1, 2.5), (3, None))
        assert got.metadata == {"k": "v"}

    def test_different_kwargs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("table3", {"seed": 1}, _result(title="one"))
        cache.put("table3", {"seed": 2}, _result(title="two"))
        assert cache.get("table3", {"seed": 1}).title == "one"
        assert cache.get("table3", {"seed": 2}).title == "two"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("table3", {}, _result())
        entry, = tmp_path.glob("table3-*.json")
        entry.write_text("{not json")
        assert cache.get("table3", {}) is None

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("table3", {}, _result())
        entry, = tmp_path.glob("table3-*.json")
        payload = json.loads(entry.read_text())
        payload["schema_version"] = 0
        entry.write_text(json.dumps(payload))
        assert cache.get("table3", {}) is None

    def test_nonfinite_metadata_round_trips(self, tmp_path):
        # Non-finite floats serialise as {"__nonfinite__": ...} sentinels
        # and come back as the floats they were — caching them is safe.
        cache = ResultCache(tmp_path)
        result = _result(metadata={"inf": float("inf"), "nan": float("nan")},
                         rows=((1, float("-inf")),))
        assert cache.put("table3", {}, result) is True
        got = cache.get("table3", {})
        assert got.metadata["inf"] == float("inf")
        assert got.metadata["nan"] != got.metadata["nan"]  # NaN
        assert got.rows == ((1, float("-inf")),)

    def test_unserialisable_result_is_skipped_not_fatal(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise ValueError("no string form")

        cache = ResultCache(tmp_path)
        bad = _result(metadata={"bad": Unprintable()})
        assert cache.put("table3", {}, bad) is False
        assert list(tmp_path.glob("*.json")) == []

    def test_unwritable_root_degrades_to_no_store(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should go")
        cache = ResultCache(target)
        assert cache.put("table3", {}, _result()) is False
        assert cache.get("table3", {}) is None


class TestAtomicWrites:
    """Entries are published through the shared tier's atomic writes."""

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put("table3", {}, _result()) is True
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_failed_replace_leaves_no_partial_entry(self, tmp_path,
                                                    monkeypatch):
        cache = ResultCache(tmp_path)

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.util.fsio.os.replace", explode)
        assert cache.put("table3", {}, _result()) is False
        # Neither a destination entry nor an orphaned temp file: the
        # failure degrades to "not cached", never to a torn document.
        assert list(tmp_path.iterdir()) == []
        assert cache.get("table3", {}) is None

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        titles = ("alpha", "beta")
        stop = threading.Event()

        def writer(title: str) -> None:
            while not stop.is_set():
                cache.put("table3", {}, _result(title=title))

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in titles]
        for t in threads:
            t.start()
        try:
            reads = 0
            while reads < 200:
                entries = list(tmp_path.glob("table3-*.json"))
                if not entries:
                    continue
                # Raw read + parse: a torn write would fail json.loads,
                # which cache.get would silently mask as a miss.
                try:
                    text = entries[0].read_text()
                except OSError:
                    continue  # entry replaced mid-stat; retry
                document = json.loads(text)
                assert document["value"]["title"] in titles
                reads += 1
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)


class TestGetOrCompute:
    def test_leader_then_hit_compute_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def compute(ids):
            calls.append(ids)
            return {"table3": _result(title="fresh")}

        got = cache.get_or_compute_many({"table3": {"seed": 1}}, compute)
        first, outcome = got["table3"]
        assert (first.title, outcome) == ("fresh", "leader")
        got = cache.get_or_compute_many({"table3": {"seed": 1}}, compute)
        second, outcome = got["table3"]
        assert (second.title, outcome) == ("fresh", "hit")
        assert calls == [["table3"]]
        # One entry, readable through get() too: one store, one format.
        assert len(list(tmp_path.glob("table3-*.json"))) == 1
        assert cache.get("table3", {"seed": 1}).title == "fresh"

    def test_shares_entries_with_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("table3", {}, _result(title="stored"))
        got = cache.get_or_compute_many(
            {"table3": {}, "table4": {}},
            lambda ids: {i: _result(experiment_id=i, title="recomputed")
                         for i in ids})
        assert [(r.title, o) for r, o in got.values()] == [
            ("stored", "hit"), ("recomputed", "leader")]

    def test_entry_with_null_expires_field_is_a_hit(self, tmp_path):
        # Entries written by older versions carry "expires": null next
        # to the value; they still read, and single-flight, as hits.
        cache = ResultCache(tmp_path)
        cache.put("table3", {}, _result(title="stored"))
        entry, = tmp_path.glob("table3-*.json")
        document = json.loads(entry.read_text())
        entry.write_text(json.dumps({**document, "expires": None},
                                    separators=(",", ":")))
        assert cache.get("table3", {}).title == "stored"
        got = cache.get_or_compute_many(
            {"table3": {}}, lambda ids: {"table3": _result(title="recomputed")})
        result, outcome = got["table3"]
        assert (result.title, outcome) == ("stored", "hit")

    def test_damaged_entry_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store.put(cache._entry("table3", {}), {"not": "a result"})
        got = cache.get_or_compute_many(
            {"table3": {}}, lambda ids: {"table3": _result(title="recomputed")})
        result, outcome = got["table3"]
        assert (result.title, outcome) == ("recomputed", "local")

    def test_failed_id_is_not_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        got = cache.get_or_compute_many({"table3": {}}, lambda ids: {})
        assert got == {"table3": (None, "local")}
        assert list(tmp_path.iterdir()) == []  # no entry, claim released

    def test_entry_is_named_by_experiment_and_full_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("table3", {}, _result())
        entry, = tmp_path.glob("table3-*.json")
        assert entry.name == f"table3-{cache.key('table3', {})}.json"


class TestDefaultDir:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "mine"))
        assert default_cache_dir() == tmp_path / "mine"

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-hetero"


class TestBitReproducibility:
    def test_warmed_hit_reserialises_byte_identically(self, tmp_path):
        from repro.experiments import run_table3
        from repro.io import result_to_dict
        cache = ResultCache(tmp_path)
        fresh = run_table3()
        cache.put("table3", {}, fresh)
        warmed = cache.get("table3", {})
        assert (json.dumps(result_to_dict(warmed), sort_keys=True)
                == json.dumps(result_to_dict(fresh), sort_keys=True))
