"""Unit tests for the CLI (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "fig4" in out

    def test_list_json_is_machine_readable(self, capsys):
        import json

        from repro.experiments.base import list_experiments
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in payload] == list_experiments()
        for entry in payload:
            assert set(entry) == {"id", "description", "shardable"}
            assert isinstance(entry["shardable"], bool)
            assert "\n" not in entry["description"]
        by_id = {entry["id"]: entry for entry in payload}
        assert by_id["variance-trials"]["shardable"] is True
        assert by_id["table3"]["description"]


class TestRun:
    def test_run_table3(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "HECR" in out

    def test_run_with_overrides(self, capsys):
        assert main(["run", "variance-trials", "--trials", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "good %" in out

    def test_run_unknown_experiment_exit_code_2(self, capsys):
        assert main(["run", "bogus-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_failing_experiment_exit_code_1(self, capsys, monkeypatch):
        from repro.experiments import base

        def boom():
            raise RuntimeError("kaboom")
        monkeypatch.setitem(base._REGISTRY, "boom", boom)
        assert main(["run", "boom"]) == 1
        assert "kaboom" in capsys.readouterr().err

    def test_run_json_format(self, capsys):
        import json
        assert main(["run", "table3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "table3"

    def test_run_csv_format(self, capsys):
        assert main(["run", "table4", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("i,")

    def test_run_output_file(self, capsys, tmp_path):
        target = tmp_path / "t3.json"
        assert main(["run", "table3", "--format", "json",
                     "--output", str(target)]) == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out


class TestRunObservability:
    def test_json_flag_is_format_shorthand(self, capsys):
        import json
        assert main(["run", "table3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "table3"
        assert payload["metadata"]["obs"]["wall_seconds"] >= 0.0

    def test_run_all_json_is_one_array(self, capsys, monkeypatch):
        import json
        from repro.experiments import base
        # Shrink the registry so 'all' stays fast.
        monkeypatch.setattr(base, "_REGISTRY", {
            k: base._REGISTRY[k] for k in ("table3", "table4")})
        assert main(["run", "all", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["experiment_id"] for p in payload] == ["table3", "table4"]

    def test_trace_metrics_json_in_one_run(self, capsys, tmp_path):
        import json
        trace = tmp_path / "t.jsonl"
        prom = tmp_path / "m.prom"
        assert main(["run", "table3", "--trace", str(trace),
                     "--metrics", str(prom), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "table3"
        records = [json.loads(line) for line in
                   trace.read_text().strip().splitlines()]
        assert any(r["name"] == "experiment:table3" for r in records)
        text = prom.read_text()
        assert "# TYPE experiment_runs_total counter" in text
        assert 'experiment_runs_total{experiment="table3"}' in text

    def test_trace_captures_simulation_events(self, tmp_path, capsys):
        import json
        trace = tmp_path / "sim.jsonl"
        assert main(["run", "failure-resilience", "--trace", str(trace)]) == 0
        capsys.readouterr()
        names = {json.loads(line)["name"]
                 for line in trace.read_text().strip().splitlines()}
        assert {"sim.run", "sim.event", "sim.transit"} <= names


class TestRunAllOutput:
    """Regression tests for the `run all --output` clobbering bug: the
    old loop reopened the file in "w" mode per experiment, so only the
    last report survived."""

    @pytest.fixture()
    def small_registry(self, monkeypatch):
        from repro.experiments import base
        monkeypatch.setattr(base, "_REGISTRY", {
            k: base._REGISTRY[k] for k in ("table3", "table4", "fig3")})

    def test_text_output_contains_every_report(self, capsys, tmp_path,
                                               small_registry):
        target = tmp_path / "all.txt"
        assert main(["run", "all", "--output", str(target),
                     "--no-cache"]) == 0
        text = target.read_text()
        for marker in ("Table 3", "Table 4", "Fig. 3"):
            assert marker in text, f"{marker!r} clobbered from {target}"

    def test_csv_output_writes_one_file_per_experiment(self, capsys, tmp_path,
                                                       small_registry):
        target = tmp_path / "out.csv"
        assert main(["run", "all", "--format", "csv",
                     "--output", str(target), "--no-cache"]) == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["out.fig3.csv", "out.table3.csv", "out.table4.csv"]
        assert not target.exists()  # the unsuffixed name is never written

    def test_json_output_is_one_array_document(self, capsys, tmp_path,
                                               small_registry):
        import json
        target = tmp_path / "all.json"
        assert main(["run", "all", "--json", "--output", str(target),
                     "--no-cache"]) == 0
        payload = json.loads(target.read_text())
        assert [p["experiment_id"] for p in payload] == [
            "fig3", "table3", "table4"]

    def test_summary_line_on_stderr(self, capsys, small_registry):
        assert main(["run", "all", "--no-cache", "--jobs", "2"]) == 0
        err = capsys.readouterr().err
        assert "ran 3/3 experiments with --jobs 2" in err


class TestSamplingFlagWarning:
    """`--seed`/`--trials` are sampling-only knobs; passing them to a
    closed-form experiment must warn instead of silently ignoring."""

    def test_warns_and_result_is_unchanged(self, capsys):
        assert main(["run", "table3"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "table3", "--seed", "7", "--trials", "50"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert captured.err.count("warning:") == 2
        assert "--seed ignored" in captured.err
        assert "--trials ignored" in captured.err
        assert "not a sampling experiment" in captured.err

    def test_no_warning_for_sampling_experiment(self, capsys):
        assert main(["run", "variance-trials", "--trials", "10",
                     "--seed", "1"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_no_warning_for_all(self, capsys, monkeypatch):
        from repro.experiments import base
        monkeypatch.setattr(base, "_REGISTRY", {
            "table3": base._REGISTRY["table3"]})
        assert main(["run", "all", "--seed", "7", "--no-cache"]) == 0
        assert "warning" not in capsys.readouterr().err


class TestReport:
    def test_writes_markdown(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert main(["report", "--trials", "20", "--output", str(target),
                     "--no-cache"]) == 0
        text = target.read_text()
        assert text.startswith("# Reproduction report")
        assert "## table3" in text
        assert "## fig4" in text

    def test_parallel_report_matches_sequential(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.experiments import base
        monkeypatch.setattr(base, "_REGISTRY", {
            k: base._REGISTRY[k] for k in ("table3", "majorization")})
        seq, par = tmp_path / "seq.md", tmp_path / "par.md"
        assert main(["report", "--trials", "30", "--output", str(seq),
                     "--no-cache", "--jobs", "1"]) == 0
        assert main(["report", "--trials", "30", "--output", str(par),
                     "--no-cache", "--jobs", "2"]) == 0
        assert par.read_text() == seq.read_text()

    def test_warmed_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        from repro.experiments import base
        monkeypatch.setattr(base, "_REGISTRY", {
            "table3": base._REGISTRY["table3"]})
        target = tmp_path / "report.md"
        argv = ["report", "--output", str(target),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = target.read_text()
        assert main(argv) == 0
        assert target.read_text() == cold


class TestHecr:
    def test_computes(self, capsys):
        assert main(["hecr", "--profile", "1,0.5,0.25"]) == 0
        out = capsys.readouterr().out
        assert "HECR" in out
        assert "X(P)" in out

    def test_custom_params(self, capsys):
        assert main(["hecr", "--profile", "1,0.5", "--tau", "0.01",
                     "--pi", "0.001", "--delta", "0.5"]) == 0

    def test_bad_profile_returns_error_code(self, capsys):
        # Unparseable, then parseable but invalid (a negative rho).
        for profile in ("1,abc", "1,-1"):
            assert main(["hecr", "--profile", profile]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error")
            assert err.count("\n") == 1  # one-line diagnostic, no traceback

    def test_invalid_serve_config_is_one_line_exit_2(self, capsys):
        assert main(["serve", "--port", "0", "--max-inflight", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError: max_inflight")
        assert err.count("\n") == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run(self):
        args = build_parser().parse_args(["run", "table4"])
        assert args.command == "run"
        assert args.experiment == "table4"
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_parses_batch_flags(self):
        args = build_parser().parse_args(
            ["run", "all", "-j", "4", "--no-cache", "--cache-dir", "/tmp/c"])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/c"

    def test_report_takes_batch_flags(self):
        args = build_parser().parse_args(["report", "--jobs", "2"])
        assert args.jobs == 2


class TestFaultFlags:
    def test_parses_fault_and_hardening_flags(self):
        args = build_parser().parse_args(
            ["run", "failure-resilience", "--faults", "crash:0@5",
             "--task-timeout", "2.5", "--retries", "3"])
        assert args.faults == "crash:0@5"
        assert args.task_timeout == 2.5
        assert args.retries == 3

    def test_run_with_faults_succeeds(self, capsys):
        assert main(["run", "failure-resilience",
                     "--faults", "crash:0@5,seed:3"]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out

    def test_malformed_faults_spec_exit_code_3(self, capsys):
        assert main(["run", "failure-resilience",
                     "--faults", "bogus:xyz"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: FaultSpecError:")
        assert err.count("\n") == 1  # one-line diagnostic

    def test_faults_flag_on_faultless_experiment_warns(self, capsys):
        assert main(["run", "table3", "--faults", "crash:0@5"]) == 0
        assert "--faults" in capsys.readouterr().err

    def test_fault_family_batch_failure_exit_code_3(self, capsys, monkeypatch):
        from repro.errors import SimulationError
        from repro.experiments import base

        def sim_boom():
            raise SimulationError("channel wedged")
        monkeypatch.setitem(base._REGISTRY, "sim-boom", sim_boom)
        assert main(["run", "sim-boom"]) == 3
        assert "channel wedged" in capsys.readouterr().err

    def test_mixed_failures_keep_generic_exit_code_1(self, capsys, monkeypatch):
        from repro.experiments import base

        def boom():
            raise RuntimeError("plain failure")
        monkeypatch.setitem(base._REGISTRY, "boom2", boom)
        assert main(["run", "boom2"]) == 1
        capsys.readouterr()

    def test_jobs1_and_jobs2_fault_runs_match(self, capsys):
        spec = "crash~0.02,loss:0.05,seed:7"
        assert main(["run", "failure-resilience", "--faults", spec,
                     "--jobs", "1"]) == 0
        seq = capsys.readouterr().out
        assert main(["run", "failure-resilience", "--faults", spec,
                     "--jobs", "2"]) == 0
        par = capsys.readouterr().out
        assert seq == par


class TestEngineSelection:
    """The run picks its own engine: a fault-free untraced run takes the
    analytic fast path, and ``--trace`` (an ambient tracer) runs the
    event engine — with the same completed work."""

    def _probe_output(self, capsys, *flags):
        assert main(["run", "sim-probe", "--format", "csv", *flags]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "work,events"
        work, events = row.split(",")
        return float(work), int(events)

    def test_trace_runs_the_event_engine(self, capsys, monkeypatch,
                                          tmp_path):
        from repro.core.params import ModelParams
        from repro.core.profile import Profile
        from repro.experiments import base
        from repro.experiments.base import ExperimentResult
        from repro.protocols.fifo import fifo_allocation
        from repro.simulation.runner import simulate_allocation

        def sim_probe():
            alloc = fifo_allocation(
                Profile([1.0, 0.5, 0.25]),
                ModelParams(tau=1e-3, pi=1e-4, delta=1.0), 20.0)
            result = simulate_allocation(alloc)
            return ExperimentResult(
                experiment_id="sim-probe", title="engine probe",
                headers=("work", "events"),
                rows=[(repr(result.completed_work),
                       result.events_processed)])
        monkeypatch.setitem(base._REGISTRY, "sim-probe", sim_probe)

        auto_work, auto_events = self._probe_output(capsys)
        events_work, events_events = self._probe_output(
            capsys, "--trace", str(tmp_path / "t.jsonl"))
        assert auto_events == 0              # no event loop ran
        assert events_events > 0
        tol = 1e-9 * max(1.0, events_work)
        assert abs(auto_work - events_work) <= tol
