"""Seeded inputs of the six workloads.

Every function here is a pure function of its seed: the same seed gives
byte-identical request bodies, schedules and files.  The server only
ever sees what these functions produce.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Iterator

LIFESPAN = 3600.0

#: trickle: open-loop Poisson arrivals, one fresh question each.
TRICKLE_RATE = 84.0
#: The trickle mix cycles through these (kind, n); LP_SHARE of the
#: requests are LP allocations at n = LP_N instead.
EVAL_MIX = tuple((kind, n) for n in (16, 64, 256)
                 for kind in ("x", "hecr", "work", "fifo"))
LP_SHARE, LP_N = 0.1, 16

#: hot: open-loop Poisson arrivals, mostly repeats of a few questions.
HOT_RATE = 200.0
HOT_QUESTIONS, HOT_ZIPF, HOT_FRESH = 16, 1.2, 0.1

#: saturate: each closed-loop client alternates these two requests.
SATURATE_CLIENTS, SATURATE_LP_N, SATURATE_FIFO_N = 2, 32, 512

#: stream: synthetic_trace of a drifting 32-worker cluster, posted in
#: fixed-size chunks.
STREAM_WORKERS, STREAM_WINDOW, STREAM_CHUNK = 32, 10.0, 64
STREAM_DRIFT_WORKER, STREAM_DRIFT_FACTOR, STREAM_DRIFT_WINDOW = 3, 2.0, 3000
STREAM_JITTER = 0.05
#: Trace length in windows: more than a run at the prepared rate posts.
STREAM_WINDOWS = 30_000

#: dispatch: one fresh seed, then this many repeats of computed seeds.
DISPATCH_EXPERIMENT = "variance-trials"
DISPATCH_REPEATS = 3
DISPATCH_KWARGS = {"trials_per_size": 100,
                   "sizes": [4, 8, 16, 32, 64, 128, 256]}

#: cli: profile size for `hecr` and window count of the `stream` source.
CLI_PROFILE_N, CLI_TRACE_WINDOWS = 8, 40


def _rng(*parts: object) -> random.Random:
    # String seeds hash with SHA-512: stable across processes and runs.
    return random.Random("/".join(str(part) for part in parts))


def _dumps(obj: object) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _profile(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.05, 1.0) for _ in range(n)]


def _permutation(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def eval_request(rng: random.Random, kind: str, n: int) -> tuple[str, bytes]:
    """One ``/v1/*`` evaluation ``(path, body)`` on a fresh profile.

    ``kind`` is ``x``, ``hecr``, ``work``, ``fifo`` or ``lp`` (the last
    two are ``/v1/allocate``; LP gets random start and finish orders).
    """
    body: dict = {"profile": _profile(rng, n)}
    if kind in ("x", "hecr"):
        return f"/v1/{kind}", _dumps(body)
    body["lifespan"] = LIFESPAN
    if kind == "work":
        return "/v1/work", _dumps(body)
    body["protocol"] = kind
    if kind == "lp":
        body["startup_order"] = _permutation(rng, n)
        body["finishing_order"] = _permutation(rng, n)
    return "/v1/allocate", _dumps(body)


def _mix_request(rng: random.Random, index: int) -> tuple[str, bytes]:
    if rng.random() < LP_SHARE:
        return eval_request(rng, "lp", LP_N)
    return eval_request(rng, *EVAL_MIX[index % len(EVAL_MIX)])


def arrivals(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Poisson arrival offsets in ``[0, seconds)``, ``rate × seconds`` of them.

    Sorted uniform draws: a Poisson process conditioned on its count, so
    every run of a given length sends the same number of requests.
    """
    return sorted(rng.uniform(0.0, seconds)
                  for _ in range(round(rate * seconds)))


def trickle(seed: int, seconds: float
            ) -> tuple[list[float], list[tuple[str, bytes]]]:
    """Arrival offsets and requests: every request a fresh question."""
    times = arrivals(_rng("trickle-arrivals", seed), TRICKLE_RATE, seconds)
    rng = _rng("trickle", seed)
    return times, [_mix_request(rng, i) for i in range(len(times))]


def hot(seed: int, seconds: float
        ) -> tuple[list[float], list[tuple[str, bytes]]]:
    """Arrival offsets and requests: Zipf repeats of a few questions."""
    times = arrivals(_rng("hot-arrivals", seed), HOT_RATE, seconds)
    questions_rng = _rng("hot-questions", seed)
    questions = [_mix_request(questions_rng, i) for i in range(HOT_QUESTIONS)]
    weights = [rank ** -HOT_ZIPF for rank in range(1, HOT_QUESTIONS + 1)]
    rng = _rng("hot", seed)
    asks = []
    for i in range(len(times)):
        if rng.random() < HOT_FRESH:
            asks.append(_mix_request(rng, i))
        else:
            asks.append(rng.choices(questions, weights)[0])
    return times, asks


def saturate(seed: int, client: int) -> Iterator[tuple[str, bytes]]:
    """One closed-loop client's endless request list."""
    rng = _rng("saturate", seed, client)
    for i in itertools.count():
        if i % 2 == 0:
            yield eval_request(rng, "lp", SATURATE_LP_N)
        else:
            yield eval_request(rng, "fifo", SATURATE_FIFO_N)


def stream_posts(seed: int) -> Iterator[bytes]:
    """Bodies for ``POST /v1/stream/events``, ``STREAM_CHUNK`` events each.

    The events are a ``synthetic_trace`` of a seeded cluster.  The first
    body opens a fresh session: ``reset``, ``window`` and a seeded
    ``what_if`` shadow profile ride along with its events.
    """
    from repro.stream import event_to_dict, synthetic_trace

    rng = _rng("stream", seed)
    declared = _profile(rng, STREAM_WORKERS)
    what_if = _profile(rng, STREAM_WORKERS)
    trace = synthetic_trace(
        profile=declared, windows=STREAM_WINDOWS, window=STREAM_WINDOW,
        drift_worker=STREAM_DRIFT_WORKER, drift_factor=STREAM_DRIFT_FACTOR,
        drift_window=STREAM_DRIFT_WINDOW, jitter=STREAM_JITTER, seed=seed)
    header = {"reset": True, "window": STREAM_WINDOW, "what_if": what_if}
    while True:
        chunk = [event_to_dict(event)
                 for event in itertools.islice(trace, STREAM_CHUNK)]
        if len(chunk) < STREAM_CHUNK:
            return
        yield _dumps({**header, "events": chunk})
        header = {}


def dispatch(seed: int) -> Iterator[tuple[str, int, bytes]]:
    """Endless ``(class, experiment seed, body)`` dispatches.

    Each cycle sends one fresh experiment seed (``cold``) and then
    ``DISPATCH_REPEATS`` seeds drawn from those already sent (``hit``).
    """
    rng = _rng("dispatch", seed)
    done: list[int] = []
    for i in itertools.count():
        fresh = seed * 1_000_003 + i
        done.append(fresh)
        yield "cold", fresh, _dumps({"kwargs": dispatch_kwargs(fresh)})
        for _ in range(DISPATCH_REPEATS):
            again = rng.choice(done)
            yield "hit", again, _dumps({"kwargs": dispatch_kwargs(again)})


def dispatch_kwargs(experiment_seed: int) -> dict:
    return {"seed": experiment_seed, **DISPATCH_KWARGS}


def cli(seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """``(ledger name, repro.cli arguments)`` of the four timed commands.

    Writes the ``stream`` command's event source into ``workdir``.
    """
    from repro.stream import write_trace

    rng = _rng("cli", seed)
    profile = _profile(rng, CLI_PROFILE_N)
    source = workdir / "cli-trace.jsonl"
    with open(source, "w", encoding="utf-8") as fh:
        write_trace(fh, profile=_profile(rng, CLI_PROFILE_N),
                    windows=CLI_TRACE_WINDOWS, window=STREAM_WINDOW,
                    jitter=STREAM_JITTER, seed=seed)
    return [("list", ["list"]),
            ("hecr", ["hecr", "--profile", ",".join(map(repr, profile))]),
            ("run-table3", ["run", "table3"]),
            ("stream", ["stream", "--source", str(source)])]
