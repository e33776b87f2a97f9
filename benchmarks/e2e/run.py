"""End-to-end benchmark of the service, the stream twin, dispatch and the CLI.

Run every workload (or some), optionally with the traced layer ledger::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out PATH]

Each end-to-end metric prints as ``workload metric value unit n=<samples>``
and the same data goes to ``--out`` as JSON.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics.  Exit status: 0 success, 1 failed
requests or wrong answers, 2 an invalid run (a late generator or too few
samples for a percentile), 3 no source tree to benchmark.

Compare sets of ``--out`` files from two commits::

    python benchmarks/e2e/run.py compare BASE.json ... -- HEAD.json ...
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import ledger
import workloads
from harness import ROOT, SRC, BenchmarkError, quartiles

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".e2e-work"
DEFAULT_SECONDS = 12

#: End-to-end metrics only some workloads report (BENCHMARK.json lists
#: those every workload reports), with their direction and regression
#: bound for ``compare``.  ``error_pct`` has an absolute bound of 0.
EXTRA_BOUNDS = {
    "p99_ms": ("lower", 0.25, False),
    "cold.p50_ms": ("lower", 0.25, False),
    "hit.p50_ms": ("lower", 0.25, False),
    "error_pct": ("lower", 0.0, True),
}

#: Counts printed for each workload family (all go to the JSON line).
PRINTED_COUNTERS = {
    "service": ("coalescer.batch_size_mean", "coalescer.collapsed_ratio",
                "respcache.hit_ratio", "xpool.hit_ratio", "admission.shed"),
    "stream": ("stream.windows_per_post", "stream.late_ratio",
               "admission.shed"),
    "dispatch": ("batch.cached_ratio", "batch.shards", "admission.shed"),
}


def _benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def _print_line(workload: str, metric: str, value: float, unit: str,
                n: int | None = None) -> None:
    tail = f" n={n}" if n is not None else ""
    print(f"{workload} {metric} {value!r} {unit}{tail}", flush=True)


def _report(workload: str, result: dict, traced: bool) -> None:
    print(f"{workload}{' (traced)' if traced else ''} sent={result['sent']} "
          f"ok={result['ok']} failed={result['failed']} "
          f"mismatched={result['mismatches']}", flush=True)
    for metric, entry in result["end_to_end"].items():
        _print_line(workload, metric, entry["value"], entry["unit"],
                    entry["n"])
    for problem in result["problems"]:
        print(f"{workload} INVALID {problem}", flush=True)
    if not traced:
        return
    units = {name: unit for name, unit, _ in ledger.per_layer_names()}
    layers = result["per_layer"]
    n = result["ok"]
    if workload == "cli":
        shown = ledger.CLI_METRICS
    else:
        family = workload if workload in PRINTED_COUNTERS else "service"
        shown = [metric for layer in ledger.LAYERS
                 if layers[f"{layer}.p50_ms"]
                 for metric in (f"{layer}.p50_ms", f"{layer}.share")]
        shown += PRINTED_COUNTERS[family]
    for metric in shown:
        _print_line(workload, metric, layers[metric], units[metric], n)


def _parse_run_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=workloads.WORKLOADS, metavar="NAME",
                        help=f"one or more of {', '.join(workloads.WORKLOADS)}"
                             " (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run against the traced server and report "
                             "the per-layer ledger")
    parser.add_argument("--out", default=str(WORK_ROOT / "last.json"),
                        help="where to write the results as JSON")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(workloads.WORKLOADS)
    return args


def run_main(argv: list[str]) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    args = _parse_run_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every server is reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    document = {"seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "workloads": {}}
    try:
        for workload in args.workload:
            runs = {}
            for traced in (False, True)[:1 + args.trace]:
                key = "traced" if traced else "plain"
                runs[key] = workloads.run_workload(
                    workload, seed=args.seed, seconds=args.seconds,
                    traced=traced, workdir=workdir)
                _report(workload, runs[key], traced)
            if args.trace:
                plain = runs["plain"]["end_to_end"].get("p50_ms")
                traced_p50 = runs["traced"]["end_to_end"].get("p50_ms")
                if plain and traced_p50:
                    _print_line(workload, "trace_overhead_pct", 100.0 * (
                        traced_p50["value"] / plain["value"] - 1.0), "%")
            document["workloads"][workload] = runs
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2) + "\n")
    return _summary(document, args.trace)


def _summary(document: dict, trace: int) -> int:
    """Print the one-line JSON result; return the exit status."""
    spec = _benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    results = document["workloads"]
    single = len(results) == 1
    units = {name: unit for name, unit, _ in ledger.per_layer_names()}
    metrics, attempted, failed, problems = {}, 0, 0, False
    for workload, runs in results.items():
        for result in runs.values():
            attempted += result["sent"]
            failed += result["failed"] + result["mismatches"]
            problems |= bool(result["problems"])
        if trace:
            values = {name: {"value": value, "unit": units[name]}
                      for name, value in runs["traced"]["per_layer"].items()}
        else:
            values = runs["plain"]["end_to_end"]
        for name in names:
            if name in values:
                key = name if single else f"{workload}.{name}"
                metrics[key] = {"value": values[name]["value"],
                                "unit": values[name]["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 2 if problems else 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def judge(base: list[float], head: list[float], better: str, bound: float,
          absolute: bool = False) -> tuple[float, str]:
    """``(head's pairwise win share, verdict)`` for one metric.

    ``improved``: head wins at least 9 pairs in 10 (ties count for
    neither) and the medians differ by more than the spread between
    quartiles.  ``regressed``: head's median is worse than base's by
    more than the bound.  ``unresolved``: the spread is wider than the
    bound and not every head run beats every base run.  Otherwise
    ``within-bound``.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, head))
    share = sum(sign * (h - b) < 0 for b, h in pairs) / len(pairs)
    b1, bmed, b3 = quartiles(base)
    h1, hmed, h3 = quartiles(head)
    spread = max(b3 - b1, h3 - h1)
    worse = sign * (hmed - bmed)
    limit = bound if absolute else bound * abs(bmed)
    if share >= 0.9 and -worse > spread:
        return share, "improved"
    if worse > limit:
        return share, "regressed"
    if spread > limit and not all(sign * (h - b) < 0
                                  for h in head for b in base):
        return share, "unresolved"
    return share, "within-bound"


def _values(documents: list[dict], workload: str, metric: str) -> list[float]:
    return [doc["workloads"][workload]["plain"]["end_to_end"][metric]["value"]
            for doc in documents
            if metric in doc["workloads"].get(workload, {}).get(
                "plain", {}).get("end_to_end", {})]


def compare_main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare BASE.json ... -- HEAD.json ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = [[json.loads(Path(p).read_text()) for p in paths]
             for paths in (argv[:split], argv[split + 1:])]
    if not all(sides):
        print("compare needs at least one file on each side",
              file=sys.stderr)
        return 2
    base, head = sides
    rules = {m["name"]: (m["better"], m["bound"], False)
             for m in _benchmark_spec()["end_to_end"]}
    rules.update(EXTRA_BOUNDS)
    print(f"{'workload':<9} {'metric':<12} {'base q1/median/q3':>30} "
          f"{'head q1/median/q3':>30} {'wins':>5}  verdict")
    regressed = False
    for workload in sorted(set(base[0]["workloads"]) & set(head[0]["workloads"])):
        for metric, (better, bound, absolute) in rules.items():
            b = _values(base, workload, metric)
            h = _values(head, workload, metric)
            if not b or not h:
                continue
            share, verdict = judge(b, h, better, bound, absolute)
            regressed |= verdict == "regressed"
            cells = ["/".join(f"{v:.4g}" for v in quartiles(side))
                     for side in (b, h)]
            print(f"{workload:<9} {metric:<12} {cells[0]:>30} {cells[1]:>30} "
                  f"{share:>5.2f}  {verdict}")
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
