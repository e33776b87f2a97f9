"""Unit tests for the LRU response cache (repro.service.respcache)."""

from repro.service.app import parse_eval_payload
from repro.service.respcache import ResponseCache


def _payload(kind="x", **body):
    """A validated request payload, as the handler keys it."""
    return parse_eval_payload(kind, {"profile": [1.0, 0.5], **body})


class TestResponseCache:
    def test_hit_and_miss(self):
        cache = ResponseCache(4)
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
        cache = ResponseCache(2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.get("a") == b"1"  # refresh a
        cache.put("c", b"3")           # evicts b (LRU)
        assert cache.get("b") is None
        assert cache.get("a") == b"1"
        assert cache.get("c") == b"3"

    def test_disabled_when_zero_sized(self):
        cache = ResponseCache(0)
        assert not cache.enabled
        cache.put("k", b"v")
        assert cache.get("k") is None
        assert len(cache) == 0
