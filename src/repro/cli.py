"""Command-line interface: ``python -m repro`` / ``repro-hetero``.

Subcommands
-----------
``list``
    Show every registered experiment (``--json`` for machine-readable).
``run <experiment-id> [...]``
    Run one experiment (or ``all``) and print its report.
``hecr --profile 1,0.5,0.25``
    Quick HECR/X computation for an ad-hoc profile.
``serve``
    Start the JSON-over-HTTP serving layer (see ``docs/SERVICE.md``).
``stream``
    Run the streaming digital twin over a JSONL event trace: event-time
    windows, per-window re-evaluation, online (τ, π, δ, ρ) calibration
    (see ``docs/STREAM.md``).
``obs``
    Inspect the persistent run-history store: ``summary``, ``runs``,
    ``tail``, ``top``, ``compare`` (drift watchdog), ``export``
    (Perfetto), ``prune`` (see ``docs/OBSERVABILITY.md``).

Examples
--------
::

    repro-hetero list
    repro-hetero run table3
    repro-hetero run variance-trials --trials 200 --seed 7
    repro-hetero hecr --profile 1,0.5,0.333,0.25
    repro-hetero serve --port 8023
    repro-hetero stream --source trace.jsonl --window 10 --what-if 1,1,0.5
    repro-hetero obs tail
    repro-hetero obs compare <baseline-run> <candidate-run>
    repro-hetero obs export --perfetto trace.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.hecr import hecr
from repro.core.measure import work_rate, x_measure
from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import CLIENT_ERRORS, FAULT_ERRORS, error_class

__all__ = ["main", "build_parser"]

def _add_batch_flags(parser: argparse.ArgumentParser) -> None:
    """The batch-engine knobs shared by ``run`` and ``report``."""
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for batch execution "
                             "(default: 1 = in-process sequential)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run all/report: always recompute, skipping "
                             "the result cache (run <id> never uses it)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="run all/report result-cache directory (default: "
                             "$REPRO_CACHE_DIR or the platform cache home)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="declare a batch worker task hung past this "
                             "many wall-clock seconds (pool respawned, task "
                             "retried; default: no timeout)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="re-executions granted to a failed batch task "
                             "(error, timeout, or pool crash; default: 1)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-hetero",
        description="Reproduction of Rosenberg & Chiang, 'Toward Understanding "
                    "Heterogeneity in Computing' (IPDPS 2010)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list the registered experiments")
    list_cmd.add_argument("--json", action="store_true",
                          help="emit the registry as a JSON array of "
                               "{id, description, shardable} objects")

    run = sub.add_parser("run", help="run an experiment and print its report")
    run.add_argument("experiment", help="experiment id, or 'all'")
    run.add_argument("--trials", type=int, default=None,
                     help="trials per size for sampling experiments")
    run.add_argument("--seed", type=int, default=None,
                     help="RNG seed for sampling experiments")
    run.add_argument("--format", choices=("text", "json", "csv"),
                     default="text", help="output format (default: text)")
    run.add_argument("--json", action="store_true",
                     help="shorthand for --format json; with 'all', emits "
                          "one JSON array of every result")
    run.add_argument("--output", default=None, metavar="PATH",
                     help="write the report to a file instead of stdout; "
                          "with 'all' in csv mode, one file per experiment "
                          "(id suffixed)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="stream a JSONL span/event trace of the run to PATH")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="write a Prometheus-format metrics dump to PATH")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="fault scenario for fault-aware experiments, e.g. "
                          "'outage:1@10+5,slow:0@2+20x3,loss:0.05,seed:7' "
                          "(see docs/FAULTS.md for the grammar)")
    run.add_argument("--scheme", default=None, metavar="SPEC",
                     help="redundancy scheme for coded experiments: "
                          "'replication:<r>' or 'mds:<k>/<n>' (see "
                          "docs/FAULTS.md § Proactive redundancy)")
    run.add_argument("--no-store", action="store_true",
                     help="do not record this run in the run-history store "
                          "($REPRO_OBS_DIR or the platform state home)")
    _add_batch_flags(run)

    report = sub.add_parser(
        "report", help="run every experiment and write one markdown report")
    report.add_argument("--output", default="reproduction_report.md",
                        metavar="PATH", help="report destination")
    report.add_argument("--trials", type=int, default=None,
                        help="trials per size for sampling experiments")
    _add_batch_flags(report)

    hecr_cmd = sub.add_parser("hecr", help="compute HECR/X for a profile")
    hecr_cmd.add_argument("--profile", required=True,
                          help="comma-separated rho values, e.g. 1,0.5,0.25")
    hecr_cmd.add_argument("--tau", type=float, default=PAPER_TABLE1.tau)
    hecr_cmd.add_argument("--pi", type=float, default=PAPER_TABLE1.pi)
    hecr_cmd.add_argument("--delta", type=float, default=PAPER_TABLE1.delta)

    serve = sub.add_parser(
        "serve", help="start the JSON-over-HTTP serving layer")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023,
                       help="bind port; 0 asks the OS for an ephemeral port "
                            "(default: 8023)")
    serve.add_argument("--max-inflight", type=int, default=64, metavar="N",
                       help="admitted-request ceiling; excess is shed with "
                            "503 + Retry-After (default: 64)")
    serve.add_argument("--rate", type=float, default=0.0, metavar="RPS",
                       help="token-bucket admission rate in requests/second; "
                            "0 disables rate limiting (default: 0)")
    serve.add_argument("--burst", type=float, default=64.0, metavar="N",
                       help="token-bucket capacity (default: 64)")
    serve.add_argument("--deadline", type=float, default=0.0,
                       metavar="SECONDS",
                       help="default per-request deadline; 0 = none; a "
                            "request may override via X-Repro-Deadline-Ms "
                            "(default: 0)")
    serve.add_argument("--cache-bytes", type=int, default=4 << 20,
                       metavar="N",
                       help="response-cache byte budget per worker; an "
                            "answer is kept on its first request only in a "
                            "probation segment of N/8 and promoted on its "
                            "second; a body over N/8 is not stored; 0 "
                            "disables the cache (default: 4194304)")
    serve.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="worker processes for experiment dispatch "
                            "(default: 1)")
    serve.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk experiment result cache "
                            "and with it cross-worker dispatch dedup")
    serve.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="experiment result-cache directory, where "
                            "dispatch dedup claims live too (default: "
                            "$REPRO_CACHE_DIR or the platform cache home)")
    serve.add_argument("--log-level",
                       choices=("debug", "info", "warning", "error"),
                       default="warning",
                       help="stderr logging threshold; 'info' emits one "
                            "JSON access-log line per request "
                            "(default: warning)")
    serve.add_argument("--no-store", action="store_true",
                       help="do not persist requests/dispatches to the "
                            "run-history store")
    serve.add_argument("--store-dir", default=None, metavar="PATH",
                       help="run-history store directory (default: "
                            "$REPRO_OBS_DIR or the platform state home)")
    serve.add_argument("--slo-latency", type=float, default=0.25,
                       metavar="SECONDS",
                       help="per-route SLO latency threshold behind the "
                            "svc_slo_burn_rate gauges; 0 disables them "
                            "(default: 0.25)")
    serve.add_argument("--slo-objective", type=float, default=0.99,
                       metavar="FRACTION",
                       help="SLO success objective in (0,1); the error "
                            "budget is 1 - objective (default: 0.99)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker processes sharing the port via a "
                            "pre-fork supervisor (SO_REUSEPORT); --rate/"
                            "--max-inflight/--burst are cluster totals "
                            "split across workers (default: 1)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="on SIGTERM/SIGINT, seconds to finish in-flight "
                            "requests after the listener closes; new "
                            "requests during the drain answer 503 + "
                            "Retry-After (default: 5)")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="N",
                       help="with --workers > 1, serve an aggregate "
                            "/metrics + /healthz for the whole fleet on "
                            "this port (0 = ephemeral; default: disabled)")

    obs = sub.add_parser(
        "obs", help="inspect the persistent run-history store")
    obs.add_argument("--store-dir", default=None, metavar="PATH",
                     help="run-history store directory (default: "
                          "$REPRO_OBS_DIR or the platform state home)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_sub.add_parser("summary", help="store-wide counts and extent")
    obs_runs = obs_sub.add_parser("runs", help="list recent stored runs")
    obs_runs.add_argument("--kind", default=None,
                          help="filter by run kind (run, experiment, request)")
    obs_runs.add_argument("--limit", type=int, default=20, metavar="N")
    obs_tail = obs_sub.add_parser(
        "tail", help="print a stored run's span records (latest by default)")
    obs_tail.add_argument("run_id", nargs="?", default=None,
                          help="run id or unambiguous prefix "
                               "(default: the most recent run)")
    obs_tail.add_argument("--follow", "-f", action="store_true",
                          help="poll for new spans/runs until interrupted")
    obs_tail.add_argument("--interval", type=float, default=0.5,
                          metavar="SECONDS",
                          help="--follow poll interval (default: 0.5)")
    obs_top = obs_sub.add_parser(
        "top", help="hottest span names of a stored run, by total time")
    obs_top.add_argument("run_id", nargs="?", default=None)
    obs_top.add_argument("--limit", type=int, default=15, metavar="N")
    obs_compare = obs_sub.add_parser(
        "compare",
        help="drift watchdog: compare two runs (or BENCH_*.json files); "
             "exits 1 when a latency-like metric regresses past the "
             "threshold")
    obs_compare.add_argument("baseline",
                             help="run id/prefix, or path to a JSON "
                                  "metrics/benchmark document")
    obs_compare.add_argument("candidate",
                             help="run id/prefix or JSON path "
                                  "(default semantics: newer run)")
    obs_compare.add_argument("--threshold", type=float, default=0.25,
                             metavar="FRACTION",
                             help="relative increase that counts as a "
                                  "regression (default: 0.25)")
    obs_compare.add_argument("--keys", default=None, metavar="REGEX",
                             help="override the metric-name filter "
                                  "(default: latency/seconds/ratio-like "
                                  "keys)")
    obs_export = obs_sub.add_parser(
        "export", help="export a stored run's spans as Perfetto trace JSON")
    obs_export.add_argument("run_id", nargs="?", default=None,
                            help="run id or prefix (default: latest run "
                                 "with spans)")
    obs_export.add_argument("--perfetto", default="trace.perfetto.json",
                            metavar="PATH",
                            help="output path (default: trace.perfetto.json)")
    obs_export.add_argument("--input", default=None, metavar="JSONL",
                            help="convert a run --trace JSONL file instead "
                                 "of reading the store")
    obs_prune = obs_sub.add_parser(
        "prune", help="apply retention to the store")
    obs_prune.add_argument("--max-runs", type=int, default=None, metavar="N",
                           help="keep at most the N most recent runs")
    obs_prune.add_argument("--max-age-days", type=float, default=None,
                           metavar="DAYS",
                           help="drop runs started more than DAYS ago")

    stream = sub.add_parser(
        "stream", help="run the streaming digital twin over an event trace")
    stream.add_argument("--source", default="-", metavar="PATH",
                        help="JSONL event source: a file path, or '-' for "
                             "stdin (default: -)")
    stream.add_argument("--window", type=float, default=10.0,
                        metavar="SPAN",
                        help="event-time window size, in the trace's time "
                             "units (default: 10)")
    stream.add_argument("--what-if", default=None, metavar="PROFILE",
                        help="shadow profile evaluated alongside the real "
                             "cluster each window, e.g. 1,1,0.5")
    stream.add_argument("--calibrate", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="fit (tau, pi, delta, rho) online from observed "
                             "completions (default: --calibrate)")
    stream.add_argument("--tau", type=float, default=PAPER_TABLE1.tau)
    stream.add_argument("--pi", type=float, default=PAPER_TABLE1.pi)
    stream.add_argument("--delta", type=float, default=PAPER_TABLE1.delta)
    stream.add_argument("--forget", type=float, default=0.35,
                        metavar="FACTOR",
                        help="calibrator retention per window in (0, 1]; "
                             "smaller forgets faster (default: 0.35)")
    stream.add_argument("--drift-threshold", type=float, default=0.1,
                        metavar="FRACTION",
                        help="relative rho deviation that counts as drift in "
                             "the summary's speeds: clauses (default: 0.1)")
    stream.add_argument("--replay", default=None, metavar="RUN_ID",
                        help="replay the recorded events of a stored stream "
                             "run (id or prefix) instead of reading --source")
    stream.add_argument("--output", default=None, metavar="PATH",
                        help="write window-record JSONL to PATH instead of "
                             "stdout")
    stream.add_argument("--no-store", action="store_true",
                        help="do not record this stream run (disables later "
                             "--replay of it)")
    stream.add_argument("--store-dir", default=None, metavar="PATH",
                        help="run-history store directory (default: "
                             "$REPRO_OBS_DIR or the platform state home)")

    compare_cmd = sub.add_parser(
        "compare", help="compare two clusters with every measure/predictor")
    compare_cmd.add_argument("--first", required=True,
                             help="first profile, e.g. 0.9,0.1")
    compare_cmd.add_argument("--second", required=True,
                             help="second profile, e.g. 0.5,0.5")
    compare_cmd.add_argument("--tau", type=float, default=PAPER_TABLE1.tau)
    compare_cmd.add_argument("--pi", type=float, default=PAPER_TABLE1.pi)
    compare_cmd.add_argument("--delta", type=float, default=PAPER_TABLE1.delta)
    return parser


#: Experiments that accept the sampling overrides.
_SAMPLING_EXPERIMENTS = ("variance-trials", "variance-threshold",
                         "moment-ablation")

#: Experiments that accept a ``--faults`` scenario.
_FAULT_EXPERIMENTS = ("failure-resilience", "coded-resilience")

#: Experiments that accept a ``--scheme`` redundancy spec.
_SCHEME_EXPERIMENTS = ("coded-resilience",)


def _experiment_kwargs(experiment_id: str, args: argparse.Namespace) -> dict:
    kwargs = {}
    if args.trials is not None and experiment_id in _SAMPLING_EXPERIMENTS:
        kwargs["trials_per_size"] = args.trials
    if args.seed is not None and experiment_id in _SAMPLING_EXPERIMENTS:
        kwargs["seed"] = args.seed
    if getattr(args, "faults", None) and experiment_id in _FAULT_EXPERIMENTS:
        kwargs["faults"] = args.faults
    if getattr(args, "scheme", None) and experiment_id in _SCHEME_EXPERIMENTS:
        kwargs["scheme"] = args.scheme
    return kwargs


def _render_result(result, fmt: str) -> str:
    from repro.experiments.export import result_to_csv, result_to_json
    if fmt == "json":
        return result_to_json(result)
    if fmt == "csv":
        return result_to_csv(result)
    return result.render() + "\n"


def _emit(text: str, fmt: str, label: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {label} ({fmt}) to {output}")
    else:
        print(text)


def _suffixed_path(output: str, experiment_id: str) -> str:
    """``out.csv`` -> ``out.<experiment_id>.csv`` (id before the suffix)."""
    from pathlib import Path
    path = Path(output)
    return str(path.with_name(f"{path.stem}.{experiment_id}{path.suffix}"))


def _emit_many(rendered: list[tuple[str, str]], fmt: str,
               output: str | None) -> None:
    """Emit several experiments' reports without clobbering each other.

    To stdout: print in order, as before.  To a file: text becomes one
    concatenated document; csv becomes one file per experiment with the
    id spliced into the name (concatenated CSV would repeat headers and
    parse as garbage).
    """
    if not output:
        for _, text in rendered:
            print(text)
        return
    if fmt == "csv":
        for experiment_id, text in rendered:
            _emit(text, fmt, experiment_id, _suffixed_path(output, experiment_id))
        return
    document = "\n".join(text if text.endswith("\n") else text + "\n"
                         for _, text in rendered)
    with open(output, "w", encoding="utf-8") as fh:
        fh.write(document)
    print(f"wrote {len(rendered)} experiments ({fmt}) to {output}")


def _warn_ignored_sampling_flags(args: argparse.Namespace) -> None:
    """Satellite fix: say so instead of silently dropping ``--seed``/
    ``--trials`` for experiments that take neither."""
    if args.experiment == "all" or args.experiment in _SAMPLING_EXPERIMENTS:
        return
    for flag, value in (("--trials", args.trials), ("--seed", args.seed)):
        if value is not None:
            print(f"warning: {flag} ignored — experiment "
                  f"{args.experiment!r} is not a sampling experiment "
                  f"(sampling: {', '.join(_SAMPLING_EXPERIMENTS)})",
                  file=sys.stderr)


def _warn_ignored_faults_flag(args: argparse.Namespace) -> None:
    if not getattr(args, "faults", None):
        return
    if args.experiment == "all" or args.experiment in _FAULT_EXPERIMENTS:
        return
    print(f"warning: --faults ignored — experiment {args.experiment!r} is "
          f"not fault-aware (fault-aware: {', '.join(_FAULT_EXPERIMENTS)})",
          file=sys.stderr)


def _warn_ignored_scheme_flag(args: argparse.Namespace) -> None:
    if not getattr(args, "scheme", None):
        return
    if args.experiment == "all" or args.experiment in _SCHEME_EXPERIMENTS:
        return
    print(f"warning: --scheme ignored — experiment {args.experiment!r} "
          f"takes no redundancy scheme (coded: "
          f"{', '.join(_SCHEME_EXPERIMENTS)})", file=sys.stderr)


def _failure_exit_code(batch) -> int:
    """0 clean; 3 when every failure is in the fault/simulation family
    (so scripts can distinguish 'the scenario broke the run' from an
    ordinary experiment bug); 1 otherwise."""
    if not batch.failures:
        return 0
    if all(issubclass(error_class(item.error or ""), FAULT_ERRORS)
           for item in batch.failures):
        return 3
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    """The ``run`` subcommand: exit 0 on success, 1 on experiment
    failure, 2 for an unknown experiment id, 3 for fault/simulation
    errors (a bad ``--faults`` spec included)."""
    from contextlib import nullcontext

    from repro.batch import ResultCache, default_cache_dir, run_batch
    from repro.experiments.base import list_experiments
    from repro.io import results_to_json
    from repro.obs import (JsonlTraceWriter, Observation, Tracer,
                           default_registry, observe, write_metrics)

    fmt = "json" if args.json else args.format
    known = list_experiments()
    if args.experiment == "all":
        experiment_ids = known
    elif args.experiment in known:
        experiment_ids = [args.experiment]
    else:
        print(f"error: unknown experiment {args.experiment!r}; "
              f"known: {', '.join(known)}", file=sys.stderr)
        return 2
    _warn_ignored_sampling_flags(args)
    _warn_ignored_faults_flag(args)
    _warn_ignored_scheme_flag(args)
    if args.scheme:
        # A malformed --scheme is invalid input, not a fault-family
        # failure: report and exit 2 before any work starts.
        from repro.coded import parse_scheme
        from repro.errors import CodedSchemeError
        try:
            parse_scheme(args.scheme)
        except CodedSchemeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.faults:
        # Validate the spec before any work: a malformed clause raises
        # FaultSpecError, which main() maps to exit code 3.
        from repro.faults.spec import parse_faults
        parse_faults(args.faults)

    try:
        trace_writer = JsonlTraceWriter(args.trace) if args.trace else None
    except OSError as exc:
        print(f"error: cannot open trace file {args.trace!r}: {exc}",
              file=sys.stderr)
        return 1
    obs_ctx = None
    tracer = None
    span_buffer: list[dict] = []
    if args.trace or args.metrics:
        if trace_writer is not None:
            def sink(record: dict, _writer=trace_writer) -> None:
                _writer(record)
                span_buffer.append(record)
            tracer = Tracer(sink=sink, keep_records=False)
        obs_ctx = Observation(tracer=tracer, registry=default_registry())

    cache = None
    if args.experiment == "all" and not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    kwargs_by_id = {experiment_id: _experiment_kwargs(experiment_id, args)
                    for experiment_id in experiment_ids}

    try:
        with observe(obs_ctx) if obs_ctx is not None else nullcontext():
            batch = run_batch(experiment_ids, kwargs_by_id=kwargs_by_id,
                              jobs=args.jobs, cache=cache,
                              task_timeout=args.task_timeout,
                              retries=args.retries)
    finally:
        if trace_writer is not None:
            trace_writer.close()

    for item in batch.failures:
        print(f"error: experiment {item.experiment_id!r} failed: "
              f"{item.error}", file=sys.stderr)
    results = batch.results
    if fmt == "json" and args.experiment == "all":
        _emit(results_to_json(results), fmt, "all experiments", args.output)
    elif args.experiment == "all":
        _emit_many([(r.experiment_id, _render_result(r, fmt)) for r in results],
                   fmt, args.output)
    elif results:
        _emit(_render_result(results[0], fmt), fmt, results[0].experiment_id,
              args.output)
    if args.experiment == "all":
        cache_note = (f", {batch.cache_hits} cached" if cache is not None else "")
        print(f"ran {len(results)}/{len(experiment_ids)} experiments with "
              f"--jobs {args.jobs} in {batch.wall_seconds:.2f}s{cache_note}",
              file=sys.stderr)
    if args.metrics:
        try:
            write_metrics(default_registry(), args.metrics)
        except OSError as exc:
            print(f"error: cannot write metrics file {args.metrics!r}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    if args.trace:
        print(f"wrote {trace_writer.records_written} trace records to "
              f"{args.trace}", file=sys.stderr)
    exit_code = _failure_exit_code(batch)
    if not args.no_store:
        _store_cli_run(args, batch, experiment_ids, kwargs_by_id, tracer,
                       span_buffer, exit_code)
    return exit_code


def _store_cli_run(args, batch, experiment_ids, kwargs_by_id, tracer,
                   span_buffer, exit_code) -> None:
    """Persist one ``run`` invocation to the run-history store.

    Best-effort by design: a broken state directory must not change the
    run's output or exit code.
    """
    try:
        from repro.batch.cache import cache_key
        from repro.obs import RunStore, default_store_path, default_registry

        store = RunStore(default_store_path())
        run_id = store.record_run(
            kind="run", label=args.experiment,
            trace_id=tracer.trace_id if tracer is not None else None,
            cache_key=(cache_key(experiment_ids[0],
                                 kwargs_by_id[experiment_ids[0]])
                       if len(experiment_ids) == 1 else None),
            status="ok" if exit_code == 0 else "failed",
            wall_seconds=batch.wall_seconds,
            metrics=default_registry().snapshot(),
            extra={"jobs": args.jobs, "cache_hits": batch.cache_hits,
                   "cache_misses": batch.cache_misses,
                   "experiments": list(experiment_ids),
                   "failures": [item.experiment_id
                                for item in batch.failures],
                   "faults": getattr(args, "faults", None),
                   "exit_code": exit_code},
            spans=span_buffer or None)
        store.close()
        if run_id is not None:
            print(f"recorded run {run_id[:12]} in the run-history store "
                  f"(inspect: repro-hetero obs tail {run_id[:12]})",
                  file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - telemetry is best-effort
        print(f"warning: could not record run in the run-history store: "
              f"{exc}", file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: exit 0 on clean shutdown, 1 when the
    bind fails, 2 for an invalid configuration (e.g. ``--workers 2`` on
    a platform without ``SO_REUSEPORT``), 4 when a worker's respawn
    budget is exhausted under ``--workers``."""
    import logging

    from repro.errors import InvalidParameterError
    from repro.obs import default_registry
    from repro.service import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host, port=args.port, max_inflight=args.max_inflight,
        rate=args.rate, burst=args.burst, deadline=args.deadline,
        cache_bytes=args.cache_bytes, jobs=args.jobs,
        no_result_cache=args.no_cache,
        result_cache_dir=args.cache_dir,
        no_store=args.no_store, store_dir=args.store_dir,
        slo_latency=args.slo_latency, slo_objective=args.slo_objective,
        log_level=args.log_level,
        workers=args.workers, drain_timeout=args.drain_timeout,
        metrics_port=args.metrics_port)
    supervisor = None
    if config.workers > 1:
        from repro.service.supervisor import Supervisor
        try:
            supervisor = Supervisor(config)
        except InvalidParameterError as exc:
            print(f"error: InvalidParameterError: {exc}", file=sys.stderr)
            return 2

    # Structured request logging: the access logger emits one bare JSON
    # line per request at INFO; lifecycle/warning messages share the
    # same stderr stream.  Workers inherit this via fork.
    svc_logger = logging.getLogger("repro.service")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    svc_logger.addHandler(handler)
    svc_logger.setLevel(getattr(logging, args.log_level.upper()))

    if supervisor is not None:
        try:
            return supervisor.run()
        except OSError as exc:
            print(f"error: cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 1

    def announce(service) -> None:
        print(f"repro-hetero serving on http://{service.host}:{service.port} "
              f"(max in-flight {args.max_inflight})", file=sys.stderr)

    try:
        run_service(config, registry=default_registry(), ready=announce)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# the stream subcommand: the streaming digital twin (docs/STREAM.md)
# ---------------------------------------------------------------------------


def _stream_store(args):
    """Open the run-history store for ``stream``, best-effort.

    Returns None (with a warning) when the state directory is broken —
    telemetry must never take the stream down.  ``--replay`` needs the
    store to *read*, so that path raises instead.
    """
    from pathlib import Path

    from repro.obs import RunStore, default_store_path

    path = (Path(args.store_dir) / "runs.sqlite3" if args.store_dir
            else default_store_path())
    try:
        return RunStore(path)
    except Exception as exc:  # noqa: BLE001 - telemetry is best-effort
        if args.replay:
            raise
        print(f"warning: run-history store unavailable ({exc}); "
              "stream run will not be recorded", file=sys.stderr)
        return None


def _cmd_stream(args: argparse.Namespace) -> int:
    """The ``stream`` subcommand: exit 0 on success, 1 on I/O failure,
    2 for malformed events (line + char offset on stderr), bad
    profiles, or an unknown ``--replay`` run."""
    from contextlib import ExitStack

    from repro.errors import StreamError, StreamEventError
    from repro.obs import default_registry
    from repro.stream import (StreamProcessor, file_source, record_to_line,
                              stdin_source, store_source)

    params = ModelParams(tau=args.tau, pi=args.pi, delta=args.delta)
    what_if = None
    if args.what_if:
        try:
            what_if = [float(part) for part in args.what_if.split(",")
                       if part.strip()]
        except ValueError:
            print(f"error: could not parse what-if profile "
                  f"{args.what_if!r}", file=sys.stderr)
            return 2

    store = None
    if not args.no_store or args.replay:
        try:
            store = _stream_store(args)
        except Exception as exc:  # noqa: BLE001 - surfaced as bad input
            print(f"error: cannot open run-history store for --replay: "
                  f"{exc}", file=sys.stderr)
            return 2

    with ExitStack() as stack:
        if store is not None:
            stack.callback(store.close)
        try:
            if args.replay:
                events = store_source(store, args.replay)
                label = f"replay:{args.replay[:12]}"
            elif args.source == "-":
                events = stdin_source(sys.stdin)
                label = "stdin"
            else:
                events = file_source(args.source)
                label = args.source
        except StreamError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot open event source {args.source!r}: {exc}",
                  file=sys.stderr)
            return 1

        try:
            processor = StreamProcessor(
                args.window, params=params, calibrate=args.calibrate,
                what_if=what_if, forget=args.forget,
                drift_threshold=args.drift_threshold,
                registry=default_registry(),
                store=None if args.no_store else store, label=label)
        except StreamError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        if args.output:
            try:
                out = stack.enter_context(
                    open(args.output, "w", encoding="utf-8"))
            except OSError as exc:
                print(f"error: cannot open output file {args.output!r}: "
                      f"{exc}", file=sys.stderr)
                return 1
        else:
            out = sys.stdout

        try:
            for record in processor.process(events):
                out.write(record_to_line(record) + "\n")
                out.flush()
            for record in processor.finish():
                out.write(record_to_line(record) + "\n")
                out.flush()
        except StreamEventError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: reading event source failed: {exc}",
                  file=sys.stderr)
            return 1

        windows = processor.windows
        print(f"processed {windows.events_total} events into "
              f"{windows.windows_closed} windows "
              f"({windows.late_total} late)", file=sys.stderr)
        if processor.run_id is not None:
            print(f"recorded stream run {processor.run_id[:12]} "
                  f"(replay: repro-hetero stream --replay "
                  f"{processor.run_id[:12]})", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# the obs subcommand: run-history inspection + the drift watchdog
# ---------------------------------------------------------------------------

#: Metric-name fragments ``obs compare`` treats as "regressions when they
#: grow": wall clocks, latencies, per-op costs and overhead ratios.
_DRIFT_KEY_PATTERN = (r"(seconds|latency|_ms\b|_ns\b|duration|ratio"
                      r"|overhead|wall|p50|p95|p99|mean_|_mean)")


def _flatten_numeric(doc, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested JSON document as ``dotted.path: value``."""
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(_flatten_numeric(value, f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        for index, value in enumerate(doc):
            out.update(_flatten_numeric(value, f"{prefix}{index}."))
    elif isinstance(doc, bool):
        pass
    elif isinstance(doc, (int, float)) and doc == doc \
            and abs(doc) != float("inf"):
        out[prefix[:-1]] = float(doc)
    return out


def _load_compare_side(store, ref: str) -> tuple[str, dict[str, float]]:
    """Resolve one ``obs compare`` operand to ``(label, flat metrics)``.

    A path to a readable JSON file wins (committed ``BENCH_*.json``
    baselines); otherwise the ref is treated as a stored run id/prefix
    whose metrics snapshot (plus wall seconds) is compared.
    """
    import json
    import os

    if os.path.exists(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            return ref, _flatten_numeric(json.load(fh))
    run = store.get_run(ref) if store is not None else None
    if run is None:
        raise FileNotFoundError(
            f"{ref!r} is neither a JSON file nor a stored run id/prefix")
    doc = dict(run.get("metrics") or {})
    if run.get("wall_seconds") is not None:
        doc["wall_seconds"] = run["wall_seconds"]
    return f"run {run['run_id'][:12]}", _flatten_numeric(doc)


def _cmd_obs_compare(store, args) -> int:
    """The drift watchdog: non-zero exit on a past-threshold regression."""
    import re

    try:
        base_label, base = _load_compare_side(store, args.baseline)
        cand_label, cand = _load_compare_side(store, args.candidate)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pattern = re.compile(args.keys or _DRIFT_KEY_PATTERN)
    # Histogram bucket/count series are cardinality, not cost — only the
    # _sum (and plain scalar) keys are meaningful drift signals.
    noise = re.compile(r"_bucket\{|_count(\{|$)")
    shared = sorted(k for k in base.keys() & cand.keys()
                    if pattern.search(k) and not noise.search(k))
    if not shared:
        print("error: no comparable latency-like metrics shared by "
              f"{base_label} and {cand_label}", file=sys.stderr)
        return 2
    regressions = []
    print(f"comparing {cand_label} against {base_label} "
          f"(threshold +{args.threshold:.0%})")
    for key in shared:
        b, c = base[key], cand[key]
        if b <= 0:
            continue
        change = (c - b) / b
        marker = ""
        if change > args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((key, change))
        print(f"  {key:<56s} {b:>12.6g} -> {c:>12.6g}  "
              f"{change:+7.1%}{marker}")
    if regressions:
        worst = max(regressions, key=lambda kv: kv[1])
        print(f"DRIFT: {len(regressions)} metric(s) regressed past "
              f"+{args.threshold:.0%} (worst: {worst[0]} {worst[1]:+.1%})",
              file=sys.stderr)
        return 1
    print(f"ok: no metric regressed past +{args.threshold:.0%} "
          f"across {len(shared)} compared keys")
    return 0


def _resolve_obs_run(store, run_id):
    """Latest run when no id given; exact/prefix match otherwise."""
    if run_id is None:
        return store.latest()
    return store.get_run(run_id)


def _stream_window_suffix(attrs: dict) -> str:
    """Per-window digest appended to ``stream:window`` span rows."""
    parts = [f"w{attrs.get('window')}",
             f"workers={attrs.get('workers')}",
             f"events={attrs.get('events')}"]
    if attrs.get("late"):
        parts.append(f"late={attrs['late']}")
    if attrs.get("work_rate") is not None:
        parts.append(f"rate={attrs['work_rate']:.4g}")
    calibration = attrs.get("calibration") or {}
    if calibration.get("mape") is not None:
        parts.append(f"mape={100.0 * calibration['mape']:.2f}%")
    return "  [" + " ".join(parts) + "]"


def _print_span_rows(spans, *, offset: int = 0) -> int:
    for record in spans[offset:]:
        kind = record.get("type", "span")
        dur = record.get("dur")
        dur_text = f"{dur * 1000:9.3f}ms" if dur is not None else " " * 11
        indent = "  " * int(record.get("depth") or 0)
        attrs = record.get("attrs") or {}
        pid = attrs.get("worker_pid")
        extra = f" [pid {pid}]" if pid else ""
        if record.get("name") == "stream:window" and attrs:
            extra += _stream_window_suffix(attrs)
        print(f"  {record.get('ts', 0.0):10.6f}s {dur_text}  "
              f"{indent}{record.get('name', '?')} ({kind}){extra}")
    return len(spans)


def _print_stream_series(run: dict) -> None:
    """Show a stream run's ``stream_*`` metric series under ``obs tail``."""
    metrics = run.get("metrics") or {}
    series = {}
    for name in sorted(metrics):
        if name.startswith("stream_"):
            series.update(metrics[name].get("series") or {})
    if not series:
        return
    print("  stream series:")
    for key in sorted(series):
        print(f"    {key:<52s} {series[key]:.6g}")


def _cmd_obs(args: argparse.Namespace) -> int:
    """Dispatch ``repro-hetero obs <subcommand>``."""
    from pathlib import Path

    from repro.obs import RunStore, default_store_path

    path = (Path(args.store_dir) / "runs.sqlite3" if args.store_dir
            else default_store_path())
    if args.obs_command != "export" or not getattr(args, "input", None):
        store = RunStore(path)
    else:
        store = None

    try:
        if args.obs_command == "summary":
            summary = store.summary()
            print(f"run-history store: {path}")
            for key, value in summary.items():
                print(f"  {key:<24s} {value}")
            return 0

        if args.obs_command == "runs":
            rows = store.runs(kind=args.kind, limit=args.limit)
            if not rows:
                print("(no stored runs)")
                return 0
            print(f"{'run id':<14s} {'kind':<11s} {'label':<26s} "
                  f"{'status':<8s} {'wall':>9s}  started")
            for row in rows:
                wall = (f"{row['wall_seconds']:.3f}s"
                        if row.get("wall_seconds") is not None else "-")
                print(f"{row['run_id'][:12]:<14s} {row['kind']:<11s} "
                      f"{(row['label'] or '-')[:26]:<26s} "
                      f"{(row['status'] or '-'):<8s} {wall:>9s}  "
                      f"{row['started_iso']}")
            return 0

        if args.obs_command == "tail":
            run = _resolve_obs_run(store, args.run_id)
            if run is None:
                print("error: no matching stored run", file=sys.stderr)
                return 2
            print(f"run {run['run_id'][:12]} ({run['kind']}: "
                  f"{run['label'] or '-'}, status {run['status']})")
            if run.get("kind") == "stream":
                _print_stream_series(run)
            seen = _print_span_rows(store.spans(run["run_id"]))
            if not seen:
                print("  (no span records stored; re-run with --trace to "
                      "capture spans)")
            if not args.follow:
                return 0
            import time as _time
            try:
                while True:
                    _time.sleep(max(0.05, args.interval))
                    if args.run_id is None:
                        newest = store.latest()
                        if newest is not None \
                                and newest["run_id"] != run["run_id"]:
                            run = newest
                            seen = 0
                            print(f"run {run['run_id'][:12]} ({run['kind']}: "
                                  f"{run['label'] or '-'}, status "
                                  f"{run['status']})")
                    seen = _print_span_rows(store.spans(run["run_id"]),
                                            offset=seen)
            except KeyboardInterrupt:
                return 0

        if args.obs_command == "top":
            run = _resolve_obs_run(store, args.run_id)
            if run is None:
                print("error: no matching stored run", file=sys.stderr)
                return 2
            totals: dict[str, list[float]] = {}
            for record in store.spans(run["run_id"]):
                if record.get("type") != "span":
                    continue
                cell = totals.setdefault(record["name"], [0, 0.0, 0.0])
                dur = float(record.get("dur") or 0.0)
                cell[0] += 1
                cell[1] += dur
                cell[2] = max(cell[2], dur)
            if not totals:
                print("(no span records stored for this run)")
                return 0
            print(f"hot spans of run {run['run_id'][:12]}:")
            print(f"  {'span':<40s} {'count':>6s} {'total':>11s} "
                  f"{'mean':>11s} {'max':>11s}")
            ranked = sorted(totals.items(), key=lambda kv: kv[1][1],
                            reverse=True)
            for name, (count, total, peak) in ranked[:args.limit]:
                print(f"  {name[:40]:<40s} {count:>6d} {total*1000:>9.3f}ms "
                      f"{total/count*1000:>9.3f}ms {peak*1000:>9.3f}ms")
            return 0

        if args.obs_command == "compare":
            return _cmd_obs_compare(store, args)

        if args.obs_command == "export":
            from repro.obs import read_jsonl, write_perfetto
            if args.input:
                try:
                    records = read_jsonl(args.input)
                except (OSError, ValueError) as exc:
                    print(f"error: cannot read {args.input!r}: {exc}",
                          file=sys.stderr)
                    return 2
            else:
                run = _resolve_obs_run(store, args.run_id)
                if run is None:
                    print("error: no matching stored run", file=sys.stderr)
                    return 2
                records = store.spans(run["run_id"])
                if not records:
                    print(f"error: run {run['run_id'][:12]} has no stored "
                          "span records (re-run with --trace)",
                          file=sys.stderr)
                    return 2
            try:
                write_perfetto(records, args.perfetto)
            except OSError as exc:
                print(f"error: cannot write {args.perfetto!r}: {exc}",
                      file=sys.stderr)
                return 1
            print(f"wrote {len(records)} trace events to {args.perfetto} "
                  f"(open in ui.perfetto.dev)")
            return 0

        if args.obs_command == "prune":
            dropped = store.prune(max_runs=args.max_runs,
                                  max_age_days=args.max_age_days)
            print(f"pruned {dropped} run(s)")
            return 0
    finally:
        if store is not None:
            store.close()
    return 2  # pragma: no cover - argparse enforces the choices


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success; 1 experiment failure (or a ``serve`` bind
    failure); 2 unknown experiment or invalid input
    (:data:`~repro.errors.CLIENT_ERRORS`); 3 fault/simulation errors
    (:data:`~repro.errors.FAULT_ERRORS`, malformed ``--faults`` specs
    included) — reported as one stderr line, not a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except FAULT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except CLIENT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    if args.command == "list":
        from repro.experiments.base import experiment_index, list_experiments
        if args.json:
            import json

            print(json.dumps(experiment_index(), indent=2))
        else:
            for experiment_id in list_experiments():
                print(experiment_id)
        return 0

    if args.command == "run":
        return _cmd_run(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "obs":
        return _cmd_obs(args)

    if args.command == "stream":
        return _cmd_stream(args)

    if args.command == "report":
        from repro.batch import ResultCache, default_cache_dir, run_batch
        from repro.experiments.base import list_experiments
        experiment_ids = list_experiments()
        kwargs_by_id = {}
        for experiment_id in experiment_ids:
            kwargs = {}
            if args.trials is not None and experiment_id in _SAMPLING_EXPERIMENTS:
                kwargs["trials_per_size"] = args.trials
            kwargs_by_id[experiment_id] = kwargs
        cache = (None if args.no_cache
                 else ResultCache(args.cache_dir or default_cache_dir()))
        batch = run_batch(experiment_ids, kwargs_by_id=kwargs_by_id,
                          jobs=args.jobs, cache=cache,
                          task_timeout=args.task_timeout,
                          retries=args.retries)
        for item in batch.failures:
            print(f"error: experiment {item.experiment_id!r} failed: "
                  f"{item.error}", file=sys.stderr)
        lines = ["# Reproduction report",
                 "",
                 "Generated by `repro-hetero report`: every registered "
                 "experiment, rendered.", ""]
        for result in batch.results:
            lines += [f"## {result.experiment_id}", "", "```",
                      result.render(), "```", ""]
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        print(f"wrote {len(batch.results)} experiments to {args.output}")
        return 1 if batch.failures else 0

    if args.command == "hecr":
        try:
            rho = [float(part) for part in args.profile.split(",") if part.strip()]
        except ValueError:
            print(f"error: could not parse profile {args.profile!r}", file=sys.stderr)
            return 2
        profile = Profile(rho)
        params = ModelParams(tau=args.tau, pi=args.pi, delta=args.delta)
        print(f"profile: {profile!r}")
        print(f"X(P)      = {x_measure(profile, params):.6g}")
        print(f"work rate = {work_rate(profile, params):.6g} work units/time unit")
        print(f"HECR      = {hecr(profile, params):.6g}")
        return 0

    if args.command == "compare":
        from repro.core.compare import compare_clusters
        from repro.experiments.tables import render_table
        try:
            first = Profile([float(x) for x in args.first.split(",") if x.strip()])
            second = Profile([float(x) for x in args.second.split(",") if x.strip()])
        except ValueError:
            print("error: could not parse profiles", file=sys.stderr)
            return 2
        params = ModelParams(tau=args.tau, pi=args.pi, delta=args.delta)
        comparison = compare_clusters(first, second, params)
        print(render_table(
            ("quantity", "first", "second"),
            [("profile", str(list(first)), str(list(second))),
             ("X", round(comparison.x1, 6), round(comparison.x2, 6)),
             ("HECR", round(comparison.hecr1, 6), round(comparison.hecr2, 6)),
             ("work ratio first/second",
              round(comparison.work_ratio_1_over_2, 6), "")],
            title="cluster comparison"))
        print()
        print(render_table(("lens", "call", "agrees with truth"),
                           comparison.verdict_rows()))
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
