"""Unit tests for the response cache (repro.service.respcache): its byte
budget, second-sight admission through a probation segment, and request
keys that do not grow with the cluster."""

import random
import sys
import threading

import pytest

from repro.core.params import PAPER_TABLE1
from repro.errors import InvalidParameterError
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, ServiceThread
from repro.service.app import parse_eval_payload
from repro.service.coalescer import BatchSolver, request_key
from repro.service.respcache import ENTRY_OVERHEAD, ResponseCache


def _payload(kind="x", **body):
    """A validated request payload, as the handler keys it."""
    return parse_eval_payload(kind, {"profile": [1.0, 0.5], **body})


def _deep_size(obj) -> int:
    """Bytes an object and everything its tuples hold occupy."""
    if isinstance(obj, tuple):
        return sys.getsizeof(obj) + sum(map(_deep_size, obj))
    return sys.getsizeof(obj)


def _charged(segment) -> int:
    return sum(len(body) + ENTRY_OVERHEAD
               for body in segment.entries.values())


def _check_charges(cache: ResponseCache) -> None:
    """Each segment's charge is its entries' and within its cap; the two
    caps share the budget."""
    probation, main = cache._probation, cache._main
    assert probation.charged == _charged(probation)
    assert main.charged == _charged(main)
    assert probation.charged <= cache.largest_body + ENTRY_OVERHEAD
    assert cache.resident_bytes == probation.charged + main.charged
    assert cache.resident_bytes <= cache.max_bytes
    assert probation.max_bytes + main.max_bytes <= cache.max_bytes


def _admit(cache: ResponseCache, key, body: bytes) -> None:
    """Store a body and read it once, so it reaches the main segment."""
    cache.put(key, body)
    assert cache.get(key) == body
    assert key in cache._main.entries


class TestResponseCache:
    def test_hit_and_miss(self):
        cache = ResponseCache(4096)
        key = cache.key("x", _payload())
        assert cache.get(key) is None
        cache.put(key, b'{"x":1}')
        assert cache.get(key) == b'{"x":1}'
        assert cache.hits == 1 and cache.misses == 1

    def test_keys_are_content_addresses(self):
        a = ResponseCache.key("x", _payload())
        b = ResponseCache.key("x", _payload())
        c = ResponseCache.key("x", _payload(profile=[1.0, 0.25]))
        d = ResponseCache.key("hecr", _payload("hecr"))
        assert a == b
        assert len({a, c, d}) == 3

    def test_key_folds_in_version(self, monkeypatch):
        before = ResponseCache.key("x", _payload())
        monkeypatch.setattr("repro.service.respcache.__version__", "999.0")
        assert ResponseCache.key("x", _payload()) != before

    def test_lru_eviction_past_cap(self):
        # Main has room for two 64-byte bodies, not three.
        cache = ResponseCache(1388)
        assert cache._main.max_bytes == 3 * (64 + ENTRY_OVERHEAD) - 1
        one, two, three = (bytes([i]) * 64 for i in range(3))
        _admit(cache, "a", one)
        _admit(cache, "b", two)
        assert cache.get("a") == one   # refresh a
        _admit(cache, "c", three)      # evicts b (LRU) from main
        assert cache.get("b") is None
        assert cache.get("a") == one
        assert cache.get("c") == three

    def test_disabled_when_zero_sized(self):
        cache = ResponseCache(0)
        assert not cache.enabled
        cache.put("k", b"v")
        assert cache.get("k") is None
        assert len(cache) == 0


class TestByteBudget:
    BUDGET = 64 << 10

    def test_flood_of_distinct_bodies_stays_within_budget(self):
        cache = ResponseCache(self.BUDGET)
        rng = random.Random(7)
        for i in range(2000):
            cache.put(i, b"x" * rng.randrange(0, cache.largest_body + 1))
            assert cache.resident_bytes <= self.BUDGET
            assert cache.resident_bytes == (_charged(cache._probation)
                                            + _charged(cache._main))
        assert 0 < len(cache) < 2000

    def test_flood_of_tiny_bodies_is_bounded_by_entry_overhead(self):
        cache = ResponseCache(self.BUDGET)
        for i in range(10_000):
            _admit(cache, i, b"1")
        assert len(cache._main.entries) == (cache._main.max_bytes
                                            // (1 + ENTRY_OVERHEAD))
        assert len(cache) == len(cache._main.entries)  # probation empty
        assert len(cache) <= self.BUDGET // (1 + ENTRY_OVERHEAD)

    def test_oversize_body_is_not_stored(self):
        cache = ResponseCache(self.BUDGET)
        _admit(cache, "small", b"s")
        _admit(cache, "edge", b"e" * cache.largest_body)
        cache.put("big", b"b" * (cache.largest_body + 1))
        assert len(cache._probation.entries) == 0
        assert cache.get("big") is None
        assert cache.get("edge") is not None and cache.get("small") == b"s"
        _check_charges(cache)

    def test_replacing_a_key_recharges_it(self):
        cache = ResponseCache(self.BUDGET)
        _admit(cache, "k", b"a" * 100)
        cache.put("k", b"b" * 10)  # replaced where it is: in main
        assert len(cache) == 1 and cache._main.entries["k"] == b"b" * 10
        assert cache.resident_bytes == 10 + ENTRY_OVERHEAD
        cache.put("p", b"c" * 100)  # and a key on probation, in probation
        cache.put("p", b"d" * 10)
        assert cache._probation.entries["p"] == b"d" * 10
        assert cache.resident_bytes == 2 * (10 + ENTRY_OVERHEAD)

    def test_refreshed_small_entry_survives_large_flood(self):
        cache = ResponseCache(self.BUDGET)
        _admit(cache, "hot", b'{"x":1}')
        large = b"L" * cache.largest_body
        for i in range(100):  # 100 budget-eighths: main turns over
            _admit(cache, i, large)
            assert cache.get("hot") == b'{"x":1}'
        assert len(cache) < 100
        assert "hot" in cache._main.entries

    def test_config_budget_and_off_switch(self):
        assert ServiceConfig().cache_bytes == 4 << 20
        with pytest.raises(InvalidParameterError):
            ServiceConfig(cache_bytes=-1)
        config = ServiceConfig(port=0, cache_bytes=0, no_store=True,
                               no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            with server.client() as client:
                for _ in range(2):
                    client.x([1.0, 0.5])
            assert not server.service.cache.enabled
            assert server.service.cache.hits == 0
            assert len(server.service.cache) == 0

    def test_oversize_answer_is_served_not_stored(self):
        # A 2 KiB budget stores bodies up to 256 bytes; an n = 64 FIFO
        # answer is several KB.
        config = ServiceConfig(port=0, cache_bytes=2048, no_store=True,
                               no_result_cache=True)
        profile = [1.0 - i / 128 for i in range(64)]
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            with server.client() as client:
                first = client.allocate(profile, lifespan=100.0)
                again = client.allocate(profile, lifespan=100.0)
                client.x(profile)
                metrics = client.metrics_text()
            cache = server.service.cache
        assert first == again and len(first["allocation"]["w"]) == 64
        assert len(cache) == 1 and cache.hits == 0  # only the x answer
        assert "svc_response_cache_entries 1" in metrics
        assert f"svc_response_cache_bytes {cache.resident_bytes}" in metrics


class TestProbation:
    """First-sight bodies wait in a probation segment of one largest body;
    a read there promotes them to main."""

    BUDGET = 64 << 10

    def test_probation_charge_never_exceeds_one_largest_body(self):
        cache = ResponseCache(self.BUDGET)
        rng = random.Random(11)
        for i in range(3000):
            cache.put(i, b"p" * rng.randrange(0, cache.largest_body + 1))
            assert (cache._probation.charged
                    <= cache.largest_body + ENTRY_OVERHEAD)
        assert cache._probation.max_bytes == (cache.largest_body
                                              + ENTRY_OVERHEAD)

    def test_flood_of_first_sight_bodies_leaves_main_empty(self):
        cache = ResponseCache(self.BUDGET)
        _admit(cache, "hot", b'{"x":1}')
        main_before = dict(cache._main.entries)
        for i in range(5000):
            cache.put(i, b"f" * (i % 200))
        assert cache._main.entries == main_before
        fresh = ResponseCache(self.BUDGET)
        for i in range(5000):
            fresh.put(i, b"f" * (i % 200))
        assert len(fresh._main.entries) == 0 and fresh._main.charged == 0
        assert 0 < len(fresh) == len(fresh._probation.entries)
        assert fresh.resident_bytes <= fresh.largest_body + ENTRY_OVERHEAD

    def test_probation_hit_promotes(self):
        cache = ResponseCache(self.BUDGET)
        cache.put("k", b"v" * 50)
        assert "k" in cache._probation.entries
        assert cache.get("k") == b"v" * 50
        assert "k" not in cache._probation.entries
        assert cache._main.entries["k"] == b"v" * 50
        assert cache.get("k") == b"v" * 50  # a main hit stays in main
        assert len(cache) == 1 and cache.hits == 2 and cache.misses == 0
        assert cache._main.charged == 50 + ENTRY_OVERHEAD
        assert cache._probation.charged == 0

    def test_first_sight_answer_is_readable_at_once(self):
        # A herd's second request is a hit, not a second solve.
        cache = ResponseCache(self.BUDGET)
        cache.put("herd", b"answer")
        assert [cache.get("herd") for _ in range(11)] == [b"answer"] * 11
        assert cache.hits == 11

    @pytest.mark.parametrize("budget", [100, 700, 2048, 64 << 10, 4 << 20])
    def test_segments_stay_within_budget_at_every_step(self, budget):
        cache = ResponseCache(budget)
        rng = random.Random(budget)
        keys = list(range(400))
        for _ in range(4000):
            key = rng.choice(keys)
            if rng.random() < 0.5:
                size = rng.choice((0, 1, 40, cache.largest_body,
                                   rng.randrange(0, cache.largest_body + 1)))
                cache.put(key, bytes([key % 256]) * size)
            else:
                body = cache.get(key)
                assert body is None or body[:1] in (b"", bytes([key % 256]))
            _check_charges(cache)
            assert len(cache) == (len(cache._probation.entries)
                                  + len(cache._main.entries))
            assert not (cache._probation.entries.keys()
                        & cache._main.entries.keys())

    def test_threads_keep_the_charges_exact(self):
        # get now moves entries between segments: a lost update under
        # concurrent put/get would break the charge bookkeeping.
        cache = ResponseCache(16 << 10)
        errors, gets = [], []
        start = threading.Barrier(8)

        def worker(seed):
            rng = random.Random(seed)
            try:
                start.wait(timeout=10.0)
                for _ in range(3000):
                    key = rng.randrange(64)
                    if rng.random() < 0.5:
                        cache.put(key, b"t" * rng.randrange(0, 2048))
                    else:
                        cache.get(key)
                        gets.append(1)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        _check_charges(cache)
        assert cache.hits + cache.misses == len(gets)

    def test_tiny_budget_stores_nothing_it_cannot_hold(self):
        # 100 bytes cannot hold one entry's overhead: every answer is
        # served and dropped, and nothing is evicted for it.
        cache = ResponseCache(100)
        cache.put("k", b"v" * cache.largest_body)
        assert cache.get("k") is None and len(cache) == 0
        assert cache.resident_bytes == 0
        # At 600 bytes main holds one tiny entry but not a largest body:
        # promoting one drops it and leaves main's entry alone.
        cache = ResponseCache(600)
        _admit(cache, "small", b"s")
        cache.put("large", b"L" * cache.largest_body)
        assert cache.get("large") == b"L" * cache.largest_body
        assert list(cache._main.entries) == ["small"]
        assert "large" not in cache._probation.entries
        _check_charges(cache)

    def test_gauges_count_both_segments(self):
        config = ServiceConfig(port=0, no_store=True, no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            with server.client() as client:
                client.x([1.0, 0.5])
                client.x([1.0, 0.5])   # promoted to main
                client.x([1.0, 0.25])  # stays on probation
                metrics = client.metrics_text()
            cache = server.service.cache
        assert len(cache._main.entries) == 1
        assert len(cache._probation.entries) == 1
        assert "svc_response_cache_entries 2" in metrics
        assert f"svc_response_cache_bytes {cache.resident_bytes}" in metrics
        assert cache.resident_bytes == (_charged(cache._probation)
                                        + _charged(cache._main))


class TestFixedSizeKeys:
    @staticmethod
    def _profile(n):
        return [0.05 + 0.95 * ((i * 7919) % n) / n for i in range(n)]

    def test_key_sizes_do_not_grow_with_n(self):
        sizes = set()
        for n in (16, 20_000):
            profile = self._profile(n)
            order = list(reversed(range(n)))
            payload = parse_eval_payload("allocate", {
                "profile": profile, "lifespan": 100.0, "protocol": "lp",
                "startup_order": order, "finishing_order": order})
            solver = BatchSolver()
            solver.solve([("x", parse_eval_payload("x",
                                                   {"profile": profile}))])
            (xpool_key,) = solver.xpool._entries
            sizes.add((len(ResponseCache.key("allocate", payload)),
                       _deep_size(request_key("allocate", payload)),
                       _deep_size(xpool_key)))
        assert len(sizes) == 1
        ((cache_key, solver_key, xpool_key),) = sizes
        assert cache_key == 32 and solver_key < 1024 and xpool_key < 512

    @pytest.mark.parametrize("kind, body", [
        ("x", {}),
        ("work", {"lifespan": 50.0}),
        ("allocate", {"lifespan": 50.0, "protocol": "fifo",
                      "startup_order": [1, 0]}),
        ("allocate", {"lifespan": 50.0, "protocol": "lp",
                      "startup_order": [1, 0], "finishing_order": [0, 1]}),
    ])
    def test_parsed_and_hand_built_payloads_key_equal(self, kind, body):
        parsed = parse_eval_payload(kind, {"profile": [1, 0.5], **body})
        hand = {"profile": (1.0, 0.5), "params": PAPER_TABLE1,
                **{name: tuple(value) if isinstance(value, list) else value
                   for name, value in body.items()}}
        if body.get("protocol") == "lp":
            hand["enforce_separation"] = True
        assert request_key(kind, parsed) == request_key(kind, hand)
        assert (ResponseCache.key(kind, parsed)
                == ResponseCache.key(kind, hand))

    def test_different_orders_miss(self):
        def lp(startup, finishing):
            return parse_eval_payload("allocate", {
                "profile": [1.0, 0.5, 0.25], "lifespan": 50.0,
                "protocol": "lp", "startup_order": startup,
                "finishing_order": finishing})

        def fifo(startup):
            return parse_eval_payload("allocate", {
                "profile": [1.0, 0.5, 0.25], "lifespan": 50.0,
                "startup_order": startup})

        payloads = [lp([0, 1, 2], [0, 1, 2]), lp([0, 1, 2], [2, 1, 0]),
                    lp([2, 1, 0], [0, 1, 2]), fifo(None), fifo([0, 1, 2]),
                    fifo([2, 1, 0])]
        keys = {ResponseCache.key("allocate", p) for p in payloads}
        assert len(keys) == len(payloads)
        cache = ResponseCache(4096)
        cache.put(ResponseCache.key("allocate", payloads[0]), b"{}")
        for payload in payloads[1:]:
            assert cache.get(ResponseCache.key("allocate", payload)) is None

    def test_hand_built_float_order_never_keys_as_an_int_order(self):
        base = {"profile": (1.0, 0.5), "params": PAPER_TABLE1,
                "lifespan": 50.0, "protocol": "fifo"}
        truncated = {**base, "startup_order": (1.7, 0.2)}
        valid = {**base, "startup_order": (1, 0)}
        assert (request_key("allocate", truncated)
                != request_key("allocate", valid))
