"""Percentiles, self-time accounting, import parsing and verdicts."""

import pytest

import ledger
import workloads
from harness import InsufficientSamples, min_samples, percentile
from run import judge


def test_percentile_refuses_unsupported_tails():
    assert min_samples(0.99) == 1000
    assert min_samples(0.5) == 20
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 999, 0.99)
    values = [float(i) for i in range(1, 1001)]
    assert percentile(values, 0.99) == 990.0
    assert percentile(values, 0.5) == 500.0
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 19, 0.5)


#: One request's spans: a read [-1, 0], then a handler [0, 10] holding a
#: wait [1, 6] whose solve [2, 5] holds a kernel [2.5, 3.5], and two
#: overlapping store writes [7, 8] and [7.5, 8.5].
TREE = [
    ("http.read", -1.0, 0.0, 1, None, "r"),
    ("handler", 0.0, 10.0, 2, None, "r"),
    ("coalescer.wait", 1.0, 6.0, 3, 2, "r"),
    ("solve", 2.0, 5.0, 4, 3, "r"),
    ("solve.lp", 2.5, 3.5, 5, 4, "r"),
    ("store", 7.0, 8.0, 6, 2, "r"),
    ("store", 7.5, 8.5, 7, 2, "r"),
    ("solve", 0.0, 1.0, 8, None, "other-request"),
]


def test_self_time_subtracts_the_union_of_children():
    selfs = ledger.self_times(TREE)
    assert selfs["r"] == {
        "http.read": 1.0,
        # 10 minus the wait (5) and the union of the store spans, [7, 8.5].
        "handler": 3.5,
        "coalescer.wait": 2.0,
        "solve": 2.0,
        "solve.lp": 1.0,
        "store": 2.0,
    }
    assert selfs["other-request"] == {"solve": 1.0}


def test_layer_metrics_add_up_to_latency():
    metrics = ledger.layer_metrics(TREE, {"r": 12.0})
    assert metrics["other.p50_ms"] == pytest.approx(500.0)  # 12 - 11.5 s
    assert metrics["handler.p50_ms"] == pytest.approx(3500.0)
    assert metrics["stream.parse.p50_ms"] == 0.0
    shares = sum(metrics[f"{layer}.share"] for layer in ledger.LAYERS)
    assert shares == pytest.approx(1.0)


def test_layer_metrics_restrict_p50_to_a_subset():
    spans = [("batch.run", 0.0, 1.0, 1, None, "cold"),
             ("batch.run", 0.0, 0.1, 2, None, "hit")]
    latency = {"cold": 1.0, "hit": 0.1}
    metrics = ledger.layer_metrics(spans, latency, {"batch.run": {"cold"}})
    assert metrics["batch.run.p50_ms"] == pytest.approx(1000.0)
    assert metrics["batch.run.share"] == pytest.approx(1.0)


def test_layer_metrics_reject_unknown_span_names():
    with pytest.raises(ValueError):
        ledger.layer_metrics([("mystery", 0.0, 1.0, 1, None, "r")],
                             {"r": 1.0})


def test_counter_metrics_ignore_unmeasured_requests():
    counts = [("batch_size", 2, "a"), ("collapsed", 1, "a"),
              ("batch_size", 1, "b"), ("collapsed", 0, "b"),
              ("respcache.hit", True, "a"), ("respcache.hit", False, "b"),
              ("xpool.hit", 3, "a"), ("xpool.miss", 1, "a"),
              ("shed", 1, "warm-up"), ("shards", 7, "a")]
    metrics = ledger.counter_metrics(counts, {"a", "b"})
    assert metrics["coalescer.batch_size_mean"] == 1.5
    assert metrics["coalescer.collapsed_ratio"] == pytest.approx(1 / 3)
    assert metrics["respcache.hit_ratio"] == 0.5
    assert metrics["xpool.hit_ratio"] == 0.75
    assert metrics["admission.shed"] == 0
    assert metrics["batch.shards"] == 7


def test_import_times_sums_top_level_entries():
    stderr = (
        b"import time: self [us] | cumulative | imported package\n"
        b"import time:       140 |        140 |   _io\n"
        b"import time:       300 |        800 | encodings\n"
        b"import time:       500 |       9000 |     scipy.optimize\n"
        b"import time:      1000 |      20000 | repro\n"
        b"recorded run abc\n")
    assert workloads.import_times(stderr) == (20.8, 9.0)


@pytest.mark.parametrize("base, head, verdict", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0] * 10, [10.5] * 10, "within-bound"),
    ([10.0] * 10, [12.0] * 10, "regressed"),
    ([5.0, 15.0] * 5, [10.0] * 10, "unresolved"),
])
def test_judge(base, head, verdict):
    assert judge(base, head, "lower", 0.1)[1] == verdict


def test_judge_absolute_bound_of_zero():
    assert judge([0.0] * 10, [0.0] * 10, "lower", 0.0, True)[1] \
        == "within-bound"
    assert judge([0.0] * 10, [0.1] * 10, "lower", 0.0, True)[1] \
        == "regressed"
