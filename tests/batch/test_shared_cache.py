"""Unit tests for the process-shared cache tier (repro.batch.shared_cache)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.batch.shared_cache import SharedCache
from repro.errors import InvalidParameterError

_SRC = str(Path(repro.__file__).resolve().parents[1])


class TestPublishedTier:
    def test_miss_then_hit(self, tmp_path):
        cache = SharedCache(tmp_path)
        assert cache.get("k") is None
        assert cache.put("k", {"answer": 42}) is True
        assert cache.get("k") == {"answer": 42}

    def test_entries_carry_no_expiry(self, tmp_path):
        cache = SharedCache(tmp_path)
        cache.put("k", "v")
        assert "expires" not in json.loads(
            cache._entry_path("k").read_text())

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SharedCache(tmp_path)
        cache.put("k", "v")
        cache._entry_path("k").write_text("{not json")
        assert cache.get("k") is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = SharedCache(tmp_path)
        cache.put("k", "v")
        # Simulate a renamed/collided file: key inside != key asked for.
        doc = json.loads(cache._entry_path("k").read_text())
        cache._entry_path("other").write_text(json.dumps(doc))
        assert cache.get("other") is None

    def test_unjsonable_value_is_not_published(self, tmp_path):
        cache = SharedCache(tmp_path)
        assert cache.put("k", float("inf")) is False
        assert cache.get("k") is None

    def test_exotic_keys_become_safe_filenames(self, tmp_path):
        cache = SharedCache(tmp_path)
        key = "a/b:c d\x00e"
        cache.put(key, "v")
        assert cache.get(key) == "v"
        assert all(p.parent == tmp_path for p in tmp_path.iterdir())

    def test_validation(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            SharedCache(tmp_path, stale_claim=0)
        with pytest.raises(InvalidParameterError):
            SharedCache(tmp_path, poll_interval=-1)


class TestClaims:
    def test_first_claimant_wins(self, tmp_path):
        a, b = SharedCache(tmp_path), SharedCache(tmp_path)
        token = a.try_claim("k")
        assert token is not None
        assert b.try_claim("k") is None
        a.release_claim("k", token)
        assert b.try_claim("k") is not None

    def test_release_requires_matching_token(self, tmp_path):
        cache = SharedCache(tmp_path)
        token = cache.try_claim("k")
        cache.release_claim("k", "not-the-token")
        assert cache.try_claim("k") is None  # still held
        cache.release_claim("k", token)
        assert cache.try_claim("k") is not None

    def test_dead_pid_claim_is_stale(self, tmp_path):
        cache = SharedCache(tmp_path)
        cache._claim_path("k").write_text(json.dumps(
            {"pid": 2 ** 22 + 1, "token": "x", "time": time.time()}))
        assert cache._claim_is_stale("k") is True

    def test_live_claim_is_not_stale(self, tmp_path):
        cache = SharedCache(tmp_path)
        cache.try_claim("k")  # our own pid, fresh
        assert cache._claim_is_stale("k") is False

    def test_blocked_root_raises_instead_of_reading_as_held(self, tmp_path):
        root = tmp_path / "blocked"
        root.write_text("a file where the cache dir should go")
        with pytest.raises(OSError):
            SharedCache(root).try_claim("k")

    def test_old_claim_is_stale_even_if_unparseable(self, tmp_path):
        cache = SharedCache(tmp_path, stale_claim=0.05)
        path = cache._claim_path("k")
        path.write_text("garbage")
        old = time.time() - 1.0
        os.utime(path, (old, old))
        assert cache._claim_is_stale("k") is True


class TestGetOrCompute:
    def test_leader_computes_and_publishes(self, tmp_path):
        cache = SharedCache(tmp_path)
        value, outcome = cache.get_or_compute("k", lambda: {"n": 1})
        assert (value, outcome) == ({"n": 1}, "leader")
        assert cache.get("k") == {"n": 1}
        assert not cache._claim_path("k").exists()  # claim released

    def test_second_call_is_a_hit(self, tmp_path):
        cache = SharedCache(tmp_path)
        cache.get_or_compute("k", lambda: "v")
        calls = []
        value, outcome = cache.get_or_compute(
            "k", lambda: calls.append(1) or "recomputed")
        assert (value, outcome) == ("v", "hit")
        assert calls == []

    def test_follower_awaits_the_leader(self, tmp_path):
        leader_cache = SharedCache(tmp_path)
        follower_cache = SharedCache(tmp_path, poll_interval=0.002)
        gate = threading.Event()
        computes = []

        def slow_compute():
            computes.append(1)
            gate.wait(5.0)
            return "computed-once"

        results = {}

        def leader():
            results["leader"] = leader_cache.get_or_compute("k", slow_compute)

        def follower():
            results["follower"] = follower_cache.get_or_compute(
                "k", slow_compute)

        t_leader = threading.Thread(target=leader)
        t_leader.start()
        while not computes:  # leader holds the claim now
            time.sleep(0.001)
        t_follower = threading.Thread(target=follower)
        t_follower.start()
        time.sleep(0.05)  # follower is polling against the claim
        gate.set()
        t_leader.join(10)
        t_follower.join(10)
        assert computes == [1]
        assert results["leader"] == ("computed-once", "leader")
        assert results["follower"] == ("computed-once", "follower")

    def test_leader_exception_releases_the_claim(self, tmp_path):
        cache = SharedCache(tmp_path)
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", lambda: (_ for _ in ()).throw(
                RuntimeError("compute failed")))
        # The claim must not wedge the key forever.
        value, outcome = cache.get_or_compute("k", lambda: "second-try")
        assert (value, outcome) == ("second-try", "leader")

    def test_leader_error_reaches_the_leader_only(self, tmp_path):
        leader_cache = SharedCache(tmp_path)
        follower_cache = SharedCache(tmp_path, poll_interval=0.002)
        gate = threading.Event()
        started = threading.Event()
        results = {}

        def failing_compute():
            started.set()
            gate.wait(5.0)
            raise RuntimeError("compute failed")

        def leader():
            try:
                leader_cache.get_or_compute("k", failing_compute)
            except RuntimeError as exc:
                results["leader"] = exc

        def follower():
            results["follower"] = follower_cache.get_or_compute(
                "k", lambda: "recomputed")

        t_leader = threading.Thread(target=leader)
        t_leader.start()
        assert started.wait(5.0)  # leader holds the claim now
        t_follower = threading.Thread(target=follower)
        t_follower.start()
        time.sleep(0.05)  # follower is polling against the claim
        gate.set()
        t_leader.join(10)
        t_follower.join(10)
        assert not t_leader.is_alive() and not t_follower.is_alive()
        assert isinstance(results["leader"], RuntimeError)
        # The released claim passes to the follower, which computes
        # its own answer instead of inheriting the failure.
        assert results["follower"] == ("recomputed", "leader")

    def test_crashed_claimant_is_taken_over(self, tmp_path):
        cache = SharedCache(tmp_path)
        # A claim from a process that no longer exists (pid beyond
        # pid_max) with a fresh timestamp: dead-pid takeover, not age.
        cache._claim_path("k").write_text(json.dumps(
            {"pid": 2 ** 22 + 1, "token": "x", "time": time.time()}))
        value, outcome = cache.get_or_compute("k", lambda: "rescued")
        assert (value, outcome) == ("rescued", "leader")
        assert cache.stats.takeovers == 1

    def test_wait_timeout_degrades_to_local_compute(self, tmp_path):
        holder = SharedCache(tmp_path)
        waiter = SharedCache(tmp_path, poll_interval=0.002)
        holder.try_claim("k")  # a live claim that never publishes
        value, outcome = waiter.get_or_compute("k", lambda: "gave-up",
                                               wait_timeout=0.05)
        assert (value, outcome) == ("gave-up", "local")

    def test_blocked_root_computes_at_once(self, tmp_path):
        root = tmp_path / "blocked"
        root.write_text("a file where the cache dir should go")
        cache = SharedCache(root)
        start = time.monotonic()
        # Default wait_timeout: a root that cannot hold a claim must not
        # be mistaken for a held claim and outwaited.
        value, outcome = cache.get_or_compute("k", lambda: "v")
        assert (value, outcome) == ("v", "local")
        assert time.monotonic() - start < 0.5

    def test_stats_accumulate(self, tmp_path):
        cache = SharedCache(tmp_path)
        cache.get_or_compute("k", lambda: "v")
        cache.get_or_compute("k", lambda: "v")
        stats = cache.stats.as_dict()
        assert stats["leads"] == 1
        assert stats["hits"] == 1


class TestGetOrComputeMany:
    def test_leads_every_missing_key_in_one_call(self, tmp_path):
        cache = SharedCache(tmp_path)
        cache.put("a", "published")
        calls = []

        def compute(claimed):
            calls.append(claimed)
            return {key: key.upper() for key in claimed}

        got = cache.get_or_compute_many(["a", "b", "c"], compute)
        assert got == {"a": ("published", "hit"), "b": ("B", "leader"),
                       "c": ("C", "leader")}
        assert calls == [["b", "c"]]
        assert list(tmp_path.glob("*.claim")) == []

    def test_failed_key_is_released_unpublished(self, tmp_path):
        cache = SharedCache(tmp_path)
        got = cache.get_or_compute_many(["ok", "bad"],
                                        lambda claimed: {"ok": 1})
        assert got == {"ok": (1, "leader"), "bad": (None, "local")}
        assert cache.get("bad") is None
        assert not cache._claim_path("bad").exists()
        assert cache.get_or_compute("bad", lambda: 2) == (2, "leader")

    def test_follows_keys_another_process_holds(self, tmp_path):
        holder = SharedCache(tmp_path)
        token = holder.try_claim("b")

        def publish_later():
            time.sleep(0.05)
            holder.put("b", "theirs")
            holder.release_claim("b", token)

        thread = threading.Thread(target=publish_later)
        thread.start()
        calls = []
        got = SharedCache(tmp_path, poll_interval=0.002).get_or_compute_many(
            ["a", "b"], lambda claimed: calls.append(claimed) or {
                key: "mine" for key in claimed})
        thread.join(10)
        assert got == {"a": ("mine", "leader"), "b": ("theirs", "follower")}
        assert calls == [["a"]]

    def test_oversubscribed_claimants_compute_each_key_once(self, tmp_path):
        keys = [f"k{i}" for i in range(5)]
        log = tmp_path / "computes.log"
        claimants = 6  # more than the cores of a small runner
        barrier = threading.Barrier(claimants)
        results = [None] * claimants

        def compute(claimed):
            fd = os.open(log, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, "".join(f"{k}\n" for k in claimed).encode())
            finally:
                os.close(fd)
            time.sleep(0.005)
            return {key: key.upper() for key in claimed}

        def claimant(i):
            cache = SharedCache(tmp_path / "root", poll_interval=0.001)
            order = keys[i % len(keys):] + keys[:i % len(keys)]
            barrier.wait()
            results[i] = cache.get_or_compute_many(order, compute,
                                                   wait_timeout=30.0)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=claimant, args=(i,))
                       for i in range(claimants)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert sorted(log.read_text().split()) == keys  # once each
        for key in keys:
            outcomes = [r[key][1] for r in results]
            assert outcomes.count("leader") == 1, (key, outcomes)
            assert {r[key][0] for r in results} == {key.upper()}


def _child(code: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.Popen([sys.executable, "-c", code], env=env)


def _wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "child never got there"
        time.sleep(0.01)


def _kill(child: subprocess.Popen) -> None:
    os.kill(child.pid, signal.SIGKILL)
    child.wait(10)  # reap it: a zombie still answers kill(pid, 0)


class TestCrashConsistency:
    """Real processes killed with SIGKILL mid-claim and mid-publish."""

    def test_sigkilled_leader_is_taken_over(self, tmp_path):
        child = _child(
            "import time\n"
            "from repro.batch.shared_cache import SharedCache\n"
            f"SharedCache({str(tmp_path)!r}).get_or_compute(\n"
            "    'k', lambda: time.sleep(3600))\n")
        cache = SharedCache(tmp_path, poll_interval=0.002)
        claim = cache._claim_path("k")

        def child_holds_claim() -> bool:
            try:
                return json.loads(claim.read_text())["pid"] == child.pid
            except (OSError, ValueError, KeyError):
                return False

        try:
            _wait_for(child_holds_claim)
        finally:
            _kill(child)
        start = time.monotonic()
        value, outcome = cache.get_or_compute("k", lambda: "rescued",
                                              wait_timeout=30.0)
        assert time.monotonic() - start < 2.0
        assert (value, outcome) == ("rescued", "leader")
        assert cache.stats.takeovers == 1
        # The taken-over value is published for everyone after.
        assert SharedCache(tmp_path).get_or_compute(
            "k", lambda: "again") == ("rescued", "hit")

    def test_sigkill_mid_put_never_tears_an_entry(self, tmp_path):
        size = 1 << 20
        child = _child(
            "from repro.batch.shared_cache import SharedCache\n"
            f"cache = SharedCache({str(tmp_path)!r})\n"
            "n = 0\n"
            "while True:\n"
            f"    cache.put('k', {{'n': n, 'blob': str(n % 10) * {size}}})\n"
            "    n += 1\n")
        cache = SharedCache(tmp_path)
        try:
            # Several complete publishes, then kill it mid-stream.
            _wait_for(lambda: (cache.get("k") or {"n": 0})["n"] >= 3)
        finally:
            _kill(child)
        value = cache.get("k")
        assert value is not None
        assert value["blob"] == str(value["n"] % 10) * size
        # Whatever the kill orphaned is garbage beside the entry: no
        # reader ever parses it, and the entry is still whole.
        for orphan in tmp_path.glob("*.tmp"):
            assert orphan.name.startswith(cache._entry_path("k").name)
        assert cache.get("k") == value
