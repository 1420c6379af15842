"""Tests for the offline trace-checking CLI."""

import json

import pytest

from repro.cli import main
from repro.core.api import PMTestSession
from repro.core.traceio import TraceRecorder, dump_traces


def record_buggy_trace(path):
    recorder = TraceRecorder()
    session = PMTestSession(workers=0, sink=recorder)
    session.thread_init()
    session.start()
    session.write(0x10, 8)
    session.clwb(0x10, 8)
    session.sfence()
    session.write(0x50, 8)  # never flushed
    session.is_persist(0x10, 8)
    session.is_persist(0x50, 8)
    session.exit()
    dump_traces(recorder.traces, path)


def record_clean_hops_trace(path):
    recorder = TraceRecorder()
    session = PMTestSession(workers=0, sink=recorder)
    session.thread_init()
    session.start()
    session.write(0x10, 8)
    session.ofence()
    session.write(0x50, 8)
    session.dfence()
    session.is_ordered_before(0x10, 8, 0x50, 8)
    session.exit()
    dump_traces(recorder.traces, path)


class TestCheckCommand:
    def test_failing_trace_exits_1(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "1 FAIL" in out
        assert "not-persisted" in out

    def test_quiet_suppresses_reports(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        main(["check", str(path), "--quiet"])
        out = capsys.readouterr().out
        assert "not-persisted" not in out
        assert "FAIL" in out

    def test_clean_trace_exits_0(self, tmp_path):
        path = tmp_path / "hops.pmtrace"
        record_clean_hops_trace(path)
        assert main(["check", str(path), "--model", "hops"]) == 0

    def test_model_selection_matters(self, tmp_path):
        # The same x86 trace under eADR: the unflushed write IS durable
        # after its fence... but there is no fence after it, so it still
        # fails; the flushed one is fine and additionally warned about.
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main(["check", str(path), "--model", "eadr"]) == 1

    def test_workers_mode(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main(["check", str(path), "--workers", "2"]) == 1

    def test_max_reports_truncates(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        main(["check", str(path), "--max-reports", "0"])
        out = capsys.readouterr().out
        assert "more" in out

    def test_negative_max_reports_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main(["check", str(path), "--max-reports", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--max-reports" in captured.err
        assert "more" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["check", "/nonexistent.pmtrace"],
        ["serve", "--uds", "/nonexistent/d.sock"],
    ], ids=["check", "serve"])
    def test_transport_flag_is_gone(self, argv, capsys):
        """The process backend has one channel; --transport is refused
        by the parser."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--transport", "queue"])
        assert excinfo.value.code == 2
        assert "--transport" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent.pmtrace"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_format_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.pmtrace"
        path.write_text("not a trace\n")
        assert main(["check", str(path)]) == 2


class TestResilienceFlags:
    def test_check_timeout_and_retries_accepted(self, tmp_path):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main([
            "check", str(path), "--workers", "2", "--backend", "thread",
            "--check-timeout", "30", "--max-retries", "3",
        ]) == 1

    def test_no_fallback_accepted(self, tmp_path):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main(["check", str(path), "--no-fallback"]) == 1

    def test_negative_max_retries_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main(["check", str(path), "--max-retries", "-1"]) == 2
        assert "--max-retries" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_nonpositive_check_timeout_exits_2(self, tmp_path, capsys,
                                               timeout):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main([
            "check", str(path), "--workers", "2", "--check-timeout", timeout,
        ]) == 2
        captured = capsys.readouterr()
        assert "check_timeout must be > 0" in captured.err
        assert "watchdog" not in captured.out

    def test_chaos_seed_does_not_change_the_verdict(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main([
            "check", str(path), "--workers", "2", "--backend", "thread",
            "--chaos-seed", "3", "--check-timeout", "30",
        ]) == 1
        out = capsys.readouterr().out
        assert "1 FAIL" in out


class TestStatsCommand:
    def test_stats_output(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "traces:  1" in out
        assert "WRITE" in out
        assert "SFENCE" in out

    def test_stats_missing_file_exits_2(self, capsys):
        assert main(["stats", "/nonexistent.pmtrace"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_metrics_json_and_stats_breakdown(self, tmp_path, capsys):
        trace = tmp_path / "run.pmtrace"
        metrics = tmp_path / "metrics.json"
        record_buggy_trace(trace)
        assert main(
            ["check", str(trace), "--metrics-json", str(metrics), "--quiet"]
        ) == 1
        payload = json.loads(metrics.read_text())
        assert payload["format"] == "pmtest-metrics"
        assert payload["level"] == "full"  # forced even with metrics off
        assert payload["counters"]["engine.traces"] == 1
        capsys.readouterr()
        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        for stage in ("trace ingest", "shadow update",
                      "checker validate", "drain"):
            assert stage in out
        assert "metrics level: full" in out

    def test_trace_out_writes_chrome_trace(self, tmp_path):
        trace = tmp_path / "run.pmtrace"
        out = tmp_path / "spans.json"
        record_buggy_trace(trace)
        main(["check", str(trace), "--trace-out", str(out), "--quiet"])
        events = json.loads(out.read_text())
        names = [e["name"] for e in events]
        assert "submit" in names
        assert "drain" in names

    def test_metrics_json_with_workers(self, tmp_path):
        trace = tmp_path / "run.pmtrace"
        metrics = tmp_path / "metrics.json"
        record_buggy_trace(trace)
        assert main([
            "check", str(trace), "--workers", "2", "--backend", "thread",
            "--metrics-json", str(metrics), "--quiet",
        ]) == 1
        payload = json.loads(metrics.read_text())
        assert payload["counters"]["engine.traces"] == 1

    def test_metrics_json_unwritable_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "run.pmtrace"
        record_buggy_trace(trace)
        bad = tmp_path / "no" / "such" / "dir" / "m.json"
        assert main(
            ["check", str(trace), "--metrics-json", str(bad), "--quiet"]
        ) == 2
        assert "cannot write" in capsys.readouterr().err


class TestServeAndSubmitCommands:
    """The daemon subcommands: serve a UDS socket, submit a dump."""

    @pytest.fixture
    def serve_proc(self, tmp_path):
        """A `repro serve` subprocess on a UDS, killed at teardown."""
        import os
        import subprocess
        import sys
        import time

        import repro

        uds = os.path.join(str(tmp_path), "d.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--uds", uds,
             "--workers", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + 20.0
        while not os.path.exists(uds):
            if proc.poll() is not None or time.monotonic() > deadline:
                out, err = proc.communicate(timeout=5)
                raise RuntimeError(f"serve failed to start: {out} {err}")
            time.sleep(0.05)
        try:
            yield proc, uds
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

    def test_submit_matches_check_and_sigterm_drains(
        self, tmp_path, capsys, serve_proc
    ):
        import signal

        proc, uds = serve_proc
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main(["check", str(path), "--quiet"]) == 1
        check_out = capsys.readouterr().out
        assert main([
            "submit", str(path), "--connect", f"unix://{uds}",
            "--deadline", "60",
        ]) == 1
        submit_out = capsys.readouterr().out
        # same verdict through the daemon as in-process
        assert submit_out.split(": ", 1)[1].splitlines()[0] == \
            check_out.split(": ", 1)[1].splitlines()[0]
        assert submit_out.startswith("daemon: ")
        assert "not-persisted" in submit_out
        # SIGTERM: graceful drain, summary line, exit 0
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "drained: 1 session(s)" in out

    def test_submit_to_missing_daemon_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main([
            "submit", str(path),
            "--connect", str(tmp_path / "nowhere.sock"),
            "--deadline", "2",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_negative_max_reports_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.pmtrace"
        record_buggy_trace(path)
        assert main([
            "submit", str(path),
            "--connect", str(tmp_path / "nowhere.sock"),
            "--max-reports", "-1",
        ]) == 2
        assert "--max-reports" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_serve_nonpositive_check_timeout_exits_2(
        self, tmp_path, capsys, timeout
    ):
        uds = tmp_path / "d.sock"
        assert main([
            "serve", "--uds", str(uds), "--check-timeout", timeout,
        ]) == 2
        assert "check_timeout must be > 0" in capsys.readouterr().err
        assert not uds.exists()  # refused before listening

    def test_serve_requires_a_listener(self, capsys):
        assert main(["serve"]) == 2
        assert "--uds and/or --host" in capsys.readouterr().err

    def test_serve_rejects_unknown_chaos_point(self, capsys):
        assert main([
            "serve", "--uds", "/tmp/x.sock",
            "--chaos-seed", "3", "--chaos-points", "bogus.point",
        ]) == 2
        assert "unknown fault point" in capsys.readouterr().err

    def test_serve_chaos_points_require_seed(self, capsys):
        assert main([
            "serve", "--uds", "/tmp/x.sock", "--chaos-points", "daemon.shed",
        ]) == 2
        assert "--chaos-seed" in capsys.readouterr().err


class TestStandardLibraryOnly:
    """The package declares no runtime dependencies, and it must not
    pick one up implicitly either: importing the CLI and checking a
    dump (default path and the columnar engine over the array shadow)
    loads only the standard library and the package itself, even on a
    host where third-party array libraries are installed."""

    SCRIPT = """
import sys
import repro.cli
sys.path.insert(0, sys.argv[2])
from core.test_cli import record_buggy_trace
record_buggy_trace(sys.argv[1])
for extra in ([], ["--engine", "columnar", "--shadow", "array"]):
    assert repro.cli.main(["check", sys.argv[1], *extra]) == 1
assert "numpy" not in sys.modules
"""

    def test_import_and_check_stay_stdlib_only(self, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        tests_dir = os.path.dirname(os.path.dirname(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT,
             str(tmp_path / "run.pmtrace"), tests_dir],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
