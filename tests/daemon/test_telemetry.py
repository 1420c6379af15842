"""Tests for the live telemetry plane: flight recorder, stats
payloads, Prometheus exposition, the HTTP endpoint, and the
``stats``/``flight`` session frames."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.daemon import (
    CheckingClient,
    FlightRecorder,
    build_stats_payload,
    render_prometheus,
    start_in_thread,
)

from tests.daemon.conftest import library_verdict, make_traces, verdict_key


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestFlightRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_bounded_ring_drops_oldest(self):
        flight = FlightRecorder(3, clock=FakeClock())
        for i in range(5):
            flight.record("shed", session=i)
        assert len(flight) == 3
        assert flight.dropped == 2
        sessions = [e["session"] for e in flight.events()]
        assert sessions == [2, 3, 4]  # oldest first, oldest two gone

    def test_events_carry_seq_ts_kind(self):
        flight = FlightRecorder(8, clock=FakeClock())
        flight.record("chaos", point="daemon.accept")
        (event,) = flight.events()
        assert event["seq"] == 0
        assert event["ts"] == 1001.0
        assert event["kind"] == "chaos"
        assert event["point"] == "daemon.accept"

    def test_to_json_shape(self):
        flight = FlightRecorder(2, clock=FakeClock())
        for i in range(3):
            flight.record("slow_frame", session=i)
        payload = json.loads(flight.to_json())
        assert payload["capacity"] == 2
        assert payload["recorded"] == 3
        assert payload["dropped"] == 1
        assert len(payload["events"]) == 2


class TestPrometheusRendering:
    PAYLOAD = {
        "ts": 123.0,
        "sessions": {"active": 1, "served": 4, "aborted": 0, "rejected": 2},
        "traces_accepted": 40,
        "admission": {
            "frames_admitted": 9,
            "bytes_admitted": 4096,
            "frames_shed": 1,
            "bytes_shed": 512,
            "inflight_bytes": 0,
            "inflight_limit": 1 << 20,
        },
        "frame_ns": {"count": 9, "p50": 1000, "p99": 9000},
        "tenants": {
            "acme": {
                "frames_admitted": 9,
                "bytes_admitted": 4096,
                "frames_shed": 1,
                "bytes_shed": 512,
                "sessions_rejected": 2,
                "sessions": 1,
                "traces": 40,
                "queued_traces": 3,
                "frame_ns": {"count": 9, "p50": 1000, "p99": 9000},
            },
        },
    }

    def test_payload_series(self):
        text = render_prometheus(self.PAYLOAD)
        lines = text.splitlines()
        assert "pmtest_daemon_sessions_served 4" in lines
        assert "pmtest_daemon_traces_accepted 40" in lines
        assert "pmtest_daemon_frames_shed 1" in lines
        assert "pmtest_daemon_frame_ns_p99 9000" in lines
        assert 'pmtest_daemon_tenant_traces{tenant="acme"} 40' in lines
        assert (
            'pmtest_daemon_tenant_frame_ns_p50{tenant="acme"} 1000' in lines
        )
        assert text.endswith("\n")

    def test_registry_series_flatten_dots(self):
        registry = MetricsRegistry(MetricsLevel.FULL)
        registry.counter("daemon.sessions").inc(3)
        registry.histogram("stage.check_ns").record(1024)
        text = render_prometheus(self.PAYLOAD, registry)
        lines = text.splitlines()
        assert "pmtest_daemon_sessions 3" in lines
        assert "pmtest_stage_check_ns_count 1" in lines
        assert "pmtest_stage_check_ns_sum 1024" in lines
        assert any(
            line.startswith("pmtest_stage_check_ns_p99 ") for line in lines
        )

    def test_label_values_escaped(self):
        payload = {
            "sessions": {},
            "admission": {},
            "tenants": {'we"ird': {"traces": 1}},
        }
        text = render_prometheus(payload)
        assert 'tenant="we\\"ird"' in text


class TestStatsSessions:
    def test_stats_once_counts_tenants(self, uds_path):
        traces = make_traces(8)
        with start_in_thread(
            uds=uds_path, workers=0,
            metrics=MetricsRegistry(MetricsLevel.FULL),
        ):
            with CheckingClient(
                f"unix://{uds_path}", tenant="acme"
            ) as checking:
                for trace in traces:
                    checking.submit(trace)
                checking.drain()
                observer = CheckingClient(f"unix://{uds_path}")
                try:
                    payload = observer.stats_once()
                finally:
                    observer.abort()
        assert payload["tenants"]["acme"]["traces"] == 8
        assert payload["tenants"]["acme"]["sessions"] == 1
        assert payload["sessions"]["active"] >= 1
        assert payload["traces_accepted"] == 8
        # Full metrics -> the frame latency quantiles are present.
        assert payload["tenants"]["acme"]["frame_ns"]["count"] >= 1

    def test_stats_stream_yields_repeatedly(self, uds_path):
        with start_in_thread(
            uds=uds_path, workers=0, telemetry_interval_ms=20
        ):
            observer = CheckingClient(f"unix://{uds_path}")
            try:
                stream = observer.stats_stream(interval_ms=20)
                payloads = [next(stream), next(stream)]
            finally:
                observer.abort()
        assert payloads[1]["ts"] >= payloads[0]["ts"]
        assert all("admission" in p for p in payloads)

    def test_flight_fetch_sees_session_lifecycle(self, uds_path):
        traces = make_traces(4)
        with start_in_thread(
            uds=uds_path, workers=0,
            metrics=MetricsRegistry(MetricsLevel.BASIC),
        ):
            with CheckingClient(
                f"unix://{uds_path}", tenant="acme"
            ) as checking:
                for trace in traces:
                    checking.submit(trace)
            observer = CheckingClient(f"unix://{uds_path}")
            try:
                events = observer.fetch_flight()
            finally:
                observer.abort()
        kinds = {e["kind"] for e in events}
        assert "session_opened" in kinds
        assert "session_closed" in kinds
        closed = [e for e in events if e["kind"] == "session_closed"]
        assert any(e["tenant"] == "acme" for e in closed)

    def test_flight_empty_when_metrics_off(self, uds_path, monkeypatch):
        # metrics=None falls back to the env, so force it off for real.
        monkeypatch.setenv("PMTEST_METRICS", "off")
        with start_in_thread(uds=uds_path, workers=0, metrics=None):
            observer = CheckingClient(f"unix://{uds_path}")
            try:
                events = observer.fetch_flight()
            finally:
                observer.abort()
        assert events == []

    def test_verdict_identical_with_telemetry_on(self, uds_path):
        """The whole plane must be invisible to checking semantics."""
        from repro.core.tracing import Tracer

        traces = make_traces(10, broken_every=3)
        expected = verdict_key(library_verdict(traces, num_workers=0))
        with start_in_thread(
            uds=uds_path, workers=0,
            metrics=MetricsRegistry(MetricsLevel.FULL),
            tracer=Tracer(),
        ):
            client = CheckingClient(
                f"unix://{uds_path}",
                tracer=Tracer(),
                metrics=MetricsRegistry(MetricsLevel.FULL),
            )
            for trace in traces:
                client.submit(trace)
            result = client.close()
        assert verdict_key(result) == expected

    def test_client_merges_server_shipped_registry(self, uds_path):
        traces = make_traces(6)
        with start_in_thread(
            uds=uds_path, workers=0,
            metrics=MetricsRegistry(MetricsLevel.FULL),
        ):
            client = CheckingClient(
                f"unix://{uds_path}",
                metrics=MetricsRegistry(MetricsLevel.FULL),
                batch_size=2,
            )
            for trace in traces:
                client.submit(trace)
            client.drain()
            client.drain()  # checkpointed drains must not double-count
            snapshot = client.metrics_snapshot()
            client.close()
        assert snapshot is not None
        assert snapshot.counter_value("client.frames_sent") >= 3
        # Server-side engine counters rode back on the verdict, once.
        assert snapshot.counter_value("engine.traces") == 6


class TestHttpEndpoint:
    def _get(self, address, path):
        url = f"http://{address[0]}:{address[1]}{path}"
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode()

    def test_metrics_and_healthz(self, uds_path):
        traces = make_traces(5)
        with start_in_thread(
            uds=uds_path, workers=0,
            metrics=MetricsRegistry(MetricsLevel.FULL),
            http_host="127.0.0.1", http_port=0,
        ) as handle:
            address = handle.server.http_address
            assert address is not None
            with CheckingClient(
                f"unix://{uds_path}", tenant="acme"
            ) as client:
                for trace in traces:
                    client.submit(trace)
                client.drain()
                status, body = self._get(address, "/metrics")
                assert status == 200
                assert "pmtest_daemon_sessions_served" in body
                assert (
                    'pmtest_daemon_tenant_traces{tenant="acme"} 5' in body
                )
            # The session pool's registry merges into the server's at
            # close, so the engine counters appear on the next scrape.
            _, body = self._get(address, "/metrics")
            assert "pmtest_engine_traces 5" in body
            status, body = self._get(address, "/healthz")
            assert status == 200
            assert body == "ok\n"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(address, "/nope")
            assert excinfo.value.code == 404

    def test_metrics_reflect_session_once_close_returns(
        self, uds_path, monkeypatch
    ):
        """Read-your-writes: close() returns only after the daemon has
        closed the session pool and merged its registry, even when the
        pool is slow to close."""
        from repro.core.workers import WorkerPool

        original_close = WorkerPool.close

        def slow_close(pool):
            time.sleep(0.3)
            return original_close(pool)

        monkeypatch.setattr(WorkerPool, "close", slow_close)
        with start_in_thread(
            uds=uds_path, workers=0,
            metrics=MetricsRegistry(MetricsLevel.FULL),
            http_host="127.0.0.1", http_port=0,
        ) as handle:
            address = handle.server.http_address
            with CheckingClient(
                f"unix://{uds_path}", tenant="acme"
            ) as client:
                for trace in make_traces(5):
                    client.submit(trace)
            _, body = self._get(address, "/metrics")
            assert "pmtest_engine_traces 5" in body

    def test_three_surfaces_agree_once_close_returns(
        self, uds_path, capsys
    ):
        """Once close() returns, the /metrics scrape, ``repro stats
        --connect`` and the client's metrics_snapshot() report the same
        daemon and stage totals for the session."""
        from repro.cli import main

        traces = make_traces(7)
        with start_in_thread(
            uds=uds_path, workers=0,
            metrics=MetricsRegistry(MetricsLevel.FULL),
            http_host="127.0.0.1", http_port=0,
        ) as handle:
            client = CheckingClient(
                f"unix://{uds_path}", tenant="acme", batch_size=3,
                metrics=MetricsRegistry(MetricsLevel.FULL),
            )
            for trace in traces:
                client.submit(trace)
            client.close()
            snapshot = client.metrics_snapshot()
            _, body = self._get(handle.server.http_address, "/metrics")
            assert main(["stats", "--connect", f"unix://{uds_path}"]) == 0
            stats = json.loads(capsys.readouterr().out)

        scraped = {}
        for line in body.splitlines():
            name, value = line.rsplit(" ", 1)
            scraped.setdefault(name, set()).add(int(float(value)))

        def one(name):
            values = scraped[name]
            assert len(values) == 1, (name, values)
            return next(iter(values))

        acme = stats["tenants"]["acme"]
        assert (
            len(traces)
            == snapshot.counter_value("engine.traces")
            == one("pmtest_daemon_traces")
            == one("pmtest_daemon_traces_accepted")
            == one('pmtest_daemon_tenant_traces{tenant="acme"}')
            == stats["traces_accepted"]
            == acme["traces"]
        )
        assert (
            snapshot.counter_value("client.frames_sent")
            == one("pmtest_daemon_frames_admitted")
            == stats["admission"]["frames_admitted"]
            == acme["frames_admitted"]
        )
        assert (
            snapshot.counter_value("client.bytes_sent")
            == one("pmtest_daemon_bytes_admitted")
            == stats["admission"]["bytes_admitted"]
            == acme["bytes_admitted"]
        )
        assert (
            snapshot.counter_value("stage.drain.count")
            == one("pmtest_daemon_drains")
            == 1
        )
        # ``stats --connect`` is itself a session, still open while it
        # reads the payload.
        assert one("pmtest_daemon_sessions") == one(
            "pmtest_daemon_sessions_served"
        ) == 1
        assert stats["sessions"]["served"] - stats["sessions"]["active"] == 1
        stage = {
            name: value for name, value in snapshot.counters().items()
            if name.startswith("stage.")
        }
        assert stage
        assert {
            name: one("pmtest_" + name.replace(".", "_")) for name in stage
        } == stage
        assert {
            name for name in scraped if name.startswith("pmtest_stage_")
        } == {"pmtest_" + name.replace(".", "_") for name in stage}

    def test_http_listener_closes_with_server(self, uds_path):
        with start_in_thread(
            uds=uds_path, workers=0,
            metrics=MetricsRegistry(MetricsLevel.BASIC),
            http_host="127.0.0.1", http_port=0,
        ) as handle:
            address = handle.server.http_address
            status, _ = self._get(address, "/healthz")
            assert status == 200
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://{address[0]}:{address[1]}/healthz", timeout=2
            )


class TestStatsPayloadUnit:
    def test_build_payload_uses_injected_clock(self, uds_path):
        with start_in_thread(uds=uds_path, workers=0) as handle:
            payload = build_stats_payload(
                handle.server, clock=lambda: 77.0
            )
        assert payload["ts"] == 77.0
        assert payload["sessions"]["served"] == 0
        assert payload["tenants"] == {}
