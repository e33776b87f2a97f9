"""The per-layer ledger: span self times and the metrics built on them.

A span is a tuple ``(name, start, end, span_id, parent_id, request)``
with ``perf_counter`` stamps, as ``traced_serve.py`` records them.  A
layer's self time is its span's duration minus the part of that
interval its child spans cover; a request's ``other`` is its
client-observed latency minus the self time of every timed layer, so a
request's layers and ``other`` add up to its latency.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterable

#: Layers of the ``/v1/*`` evaluation path, outermost first.  ``handler``
#: is the server's own request handling outside every other layer
#: (routing, metrics, bookkeeping), so that ``other`` is only the client
#: and the transport.
SERVICE_LAYERS = ("http.read", "handler", "admit", "validate", "respcache",
                  "coalescer.wait", "solve", "solve.lp", "solve.fifo",
                  "solve.x", "encode", "store")
#: Layers of ``POST /v1/stream/events`` beyond the shared HTTP ones.
STREAM_LAYERS = ("stream.parse", "stream.window", "stream.calibrate",
                 "stream.evaluate", "stream.store")
#: Layers of ``POST /v1/experiments/{id}``.
DISPATCH_LAYERS = ("batch.run", "resultcache.get", "resultcache.put",
                   "encode.result")
LAYERS = SERVICE_LAYERS + STREAM_LAYERS + DISPATCH_LAYERS + ("other",)

#: Counts and ratios, with their unit and direction.
COUNTERS = {
    "coalescer.batch_size_mean": ("count", "higher"),
    "coalescer.collapsed_ratio": ("ratio", "higher"),
    "respcache.hit_ratio": ("ratio", "higher"),
    "xpool.hit_ratio": ("ratio", "higher"),
    "admission.shed": ("count", "lower"),
    "stream.windows_per_post": ("count", "higher"),
    "stream.late_ratio": ("ratio", "lower"),
    "batch.cached_ratio": ("ratio", "higher"),
    "batch.shards": ("count", "higher"),
}

#: The CLI commands the ``cli`` workload times, by ledger name.
CLI_COMMANDS = ("list", "hecr", "run-table3", "stream")
CLI_METRICS = ("interp_ms",) + tuple(
    f"{cmd}.{part}" for cmd in CLI_COMMANDS
    for part in ("import_ms", "import_scipy_ms", "exec_ms"))


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    names = []
    for layer in LAYERS:
        names.append((f"{layer}.p50_ms", "ms", "lower"))
        names.append((f"{layer}.share", "ratio", "lower"))
    names += [(name, unit, better)
              for name, (unit, better) in COUNTERS.items()]
    names += [(name, "ms", "lower") for name in CLI_METRICS]
    return names


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[tuple]) -> dict[str, dict[str, float]]:
    """Per request, the self seconds of each layer it passed through."""
    by_request: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_request[span[5]].append(span)
    out: dict[str, dict[str, float]] = {}
    for request, group in by_request.items():
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, _, parent, _ in group:
            if parent is not None:
                children[parent].append((start, end))
        layers: dict[str, float] = defaultdict(float)
        for name, start, end, span_id, _, _ in group:
            layers[name] += (end - start) - _covered(
                children.get(span_id, []), start, end)
        out[request] = dict(layers)
    return out


def layer_metrics(spans: Iterable[tuple], latency: dict[str, float],
                  subsets: dict[str, set[str]] | None = None
                  ) -> dict[str, float]:
    """``<layer>.p50_ms`` and ``<layer>.share`` for every layer.

    ``latency`` maps each measured request id to its client-observed
    seconds; spans of other requests (warm-up, health checks) are
    ignored.  A layer's p50 is taken over the requests that entered it,
    restricted to ``subsets[layer]`` where given (e.g. cache hits only);
    its share is its self time summed over all requests, divided by
    their summed latency.  Layers no request entered read 0.
    """
    selfs = self_times(s for s in spans if s[5] in latency)
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    sums = dict.fromkeys(LAYERS, 0.0)
    for request, seconds in latency.items():
        layers = dict(selfs.get(request, {}))
        layers["other"] = seconds - sum(layers.values())
        for layer, value in layers.items():
            if layer not in sums:
                raise ValueError(f"span {layer!r} is not a ledger layer")
            sums[layer] += value
            if subsets is None or request in subsets.get(layer, (request,)):
                samples[layer].append(value)
    total = sum(latency.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        values = samples[layer]
        metrics[f"{layer}.p50_ms"] = (statistics.median(values) * 1e3
                                      if values else 0.0)
        metrics[f"{layer}.share"] = sums[layer] / total if total else 0.0
    return metrics


def counter_metrics(counts: Iterable[tuple], requests: set[str]
                    ) -> dict[str, float]:
    """The server-side counts, summed over ``requests``.

    ``counts`` are ``(name, value, request)`` records from the traced
    server: one ``respcache.hit`` per cache lookup (1 on a hit), one
    ``batch_size``/``collapsed``/``xpool.hit``/``xpool.miss`` set per
    solved micro-batch, one ``shed`` per refused admission and one
    ``shards`` per dispatch that ran its experiment.
    """
    sums: dict[str, float] = defaultdict(float)
    seen: dict[str, int] = defaultdict(int)
    for name, value, request in counts:
        if request in requests:
            sums[name] += value
            seen[name] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "coalescer.batch_size_mean": ratio(sums["batch_size"],
                                           seen["batch_size"]),
        "coalescer.collapsed_ratio": ratio(sums["collapsed"],
                                           sums["batch_size"]),
        "respcache.hit_ratio": ratio(sums["respcache.hit"],
                                     seen["respcache.hit"]),
        "xpool.hit_ratio": ratio(sums["xpool.hit"],
                                 sums["xpool.hit"] + sums["xpool.miss"]),
        "admission.shed": sums["shed"],
        "batch.shards": ratio(sums["shards"], seen["shards"]),
    }
