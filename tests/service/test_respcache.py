"""Unit tests for the response cache (repro.service.respcache): its byte
budget, and request keys that do not grow with the cluster."""

import random
import sys

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


def _charged(cache: ResponseCache) -> int:
    return sum(len(body) + ENTRY_OVERHEAD
               for body in cache._entries.values())


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
        # Room for two 64-byte bodies, not three.
        cache = ResponseCache(3 * (64 + ENTRY_OVERHEAD) - 1)
        one, two, three = (bytes([i]) * 64 for i in range(3))
        cache.put("a", one)
        cache.put("b", two)
        assert cache.get("a") == one   # refresh a
        cache.put("c", three)          # evicts b (LRU)
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
            assert cache.resident_bytes == _charged(cache)
        assert 0 < len(cache) < 2000

    def test_flood_of_tiny_bodies_is_bounded_by_entry_overhead(self):
        cache = ResponseCache(self.BUDGET)
        for i in range(10_000):
            cache.put(i, b"1")
        assert len(cache) == self.BUDGET // (1 + ENTRY_OVERHEAD)

    def test_oversize_body_is_not_stored(self):
        cache = ResponseCache(self.BUDGET)
        cache.put("small", b"s")
        cache.put("edge", b"e" * cache.largest_body)
        cache.put("big", b"b" * (cache.largest_body + 1))
        assert cache.get("big") is None
        assert cache.get("edge") is not None and cache.get("small") == b"s"
        assert cache.resident_bytes == _charged(cache)

    def test_replacing_a_key_recharges_it(self):
        cache = ResponseCache(self.BUDGET)
        cache.put("k", b"a" * 100)
        cache.put("k", b"b" * 10)
        assert len(cache) == 1
        assert cache.resident_bytes == 10 + ENTRY_OVERHEAD

    def test_refreshed_small_entry_survives_large_flood(self):
        cache = ResponseCache(self.BUDGET)
        cache.put("hot", b'{"x":1}')
        large = b"L" * cache.largest_body
        for i in range(100):  # 100 budget-eighths: the cache turns over
            cache.put(i, large)
            assert cache.get("hot") == b'{"x":1}'
        assert len(cache) < 100

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
