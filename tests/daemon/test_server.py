"""End-to-end daemon tests: sessions, equality with library mode,
timeouts, graceful drain."""

import socket
import threading
import time

import pytest

from repro.core.api import PMTestSession
from repro.core.traceio import (
    BINARY_MAGIC,
    BINARY_VERSION,
    decode_message,
    encode_bye_message,
    encode_hello_message,
)
from repro.daemon import (
    AdmissionPolicy,
    CheckingClient,
    DaemonError,
    DaemonOverloaded,
    start_in_thread,
)
from repro.daemon.client import parse_address
from repro.daemon.protocol import read_frame, write_frame, frame_bytes

from tests.daemon.conftest import library_verdict, make_traces, verdict_key


class TestParseAddress:
    def test_forms(self):
        assert parse_address(("::1", 9000)) == (socket.AF_INET, ("::1", 9000))
        assert parse_address("tcp://h:12") == (socket.AF_INET, ("h", 12))
        assert parse_address("h:12") == (socket.AF_INET, ("h", 12))
        assert parse_address(":12") == (socket.AF_INET, ("127.0.0.1", 12))
        assert parse_address("unix:///tmp/x.sock") == (
            socket.AF_UNIX, "/tmp/x.sock"
        )
        assert parse_address("/tmp/x.sock") == (socket.AF_UNIX, "/tmp/x.sock")
        assert parse_address("./rel/x.sock") == (
            socket.AF_UNIX, "./rel/x.sock"
        )

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_address("just-a-hostname")
        with pytest.raises(ValueError):
            parse_address("host:notaport")


class TestSessions:
    def test_uds_verdict_identical_to_library(self, uds_path):
        traces = make_traces(12)
        expected = verdict_key(library_verdict(traces, num_workers=0))
        with start_in_thread(uds=uds_path, workers=0) as handle:
            client = CheckingClient(f"unix://{uds_path}", batch_size=5)
            for trace in traces:
                client.submit(trace)
            result = client.close()
        assert verdict_key(result) == expected
        assert handle.server.traces_accepted == 12

    def test_tcp_verdict_identical_to_library(self):
        traces = make_traces(12)
        expected = verdict_key(library_verdict(traces, num_workers=0))
        with start_in_thread(host="127.0.0.1", workers=0) as handle:
            host, port = handle.tcp_address
            client = CheckingClient((host, port), batch_size=4)
            for trace in traces:
                client.submit(trace)
            result = client.close()
        assert verdict_key(result) == expected

    def test_both_listeners_at_once(self, uds_path):
        traces = make_traces(4)
        expected = verdict_key(library_verdict(traces, num_workers=0))
        with start_in_thread(
            host="127.0.0.1", uds=uds_path, workers=0
        ) as handle:
            host, port = handle.tcp_address
            for address in (f"unix://{uds_path}", f"tcp://{host}:{port}"):
                client = CheckingClient(address)
                for trace in traces:
                    client.submit(trace)
                assert verdict_key(client.close()) == expected

    def test_intermediate_drain_is_cumulative(self, uds_path):
        traces = make_traces(8)
        expected = verdict_key(library_verdict(traces, num_workers=0))
        with start_in_thread(uds=uds_path, workers=0):
            client = CheckingClient(f"unix://{uds_path}", batch_size=3)
            for trace in traces[:4]:
                client.submit(trace)
            mid = client.drain()
            assert mid.traces_checked == 4
            for trace in traces[4:]:
                client.submit(trace)
            result = client.close()
        assert verdict_key(result) == expected

    def test_concurrent_sessions_are_isolated(self, uds_path):
        first = make_traces(6, offset=0)
        second = make_traces(6, offset=100, broken_every=0)
        expected_first = verdict_key(library_verdict(first, num_workers=0))
        expected_second = verdict_key(library_verdict(second, num_workers=0))
        assert expected_first != expected_second
        with start_in_thread(uds=uds_path, workers=0) as handle:
            a = CheckingClient(f"unix://{uds_path}", tenant="a")
            b = CheckingClient(f"unix://{uds_path}", tenant="b")
            # interleave frame-by-frame on one server
            for t_a, t_b in zip(first, second):
                a.submit(t_a)
                b.submit(t_b)
                a.flush()
                b.flush()
            assert handle.server.active_sessions == 2
            assert verdict_key(a.close()) == expected_first
            assert verdict_key(b.close()) == expected_second

    def test_session_with_thread_backend_workers(self, uds_path):
        traces = make_traces(10)
        expected = verdict_key(library_verdict(traces, num_workers=2))
        with start_in_thread(uds=uds_path, workers=2, backend="thread"):
            client = CheckingClient(f"unix://{uds_path}")
            for trace in traces:
                client.submit(trace)
            result = client.close()
        assert verdict_key(result) == expected

    def test_pmtest_session_accepts_client_as_sink(self, uds_path):
        with start_in_thread(uds=uds_path, workers=0):
            client = CheckingClient(f"unix://{uds_path}")
            with PMTestSession(sink=client) as session:
                session.write(0x2000, 64)
                session.clwb(0x2000, 64)
                session.sfence()
                session.is_persist(0x2000, 64)
            result = session.get_result()
            assert result.passed
            assert result.traces_checked == 1


class TestSessionErrors:
    def test_handshake_timeout(self, uds_path):
        with start_in_thread(uds=uds_path, workers=0,
                             handshake_timeout=0.1):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(uds_path)
            try:
                frame = read_frame(sock)
                assert frame is not None
                message = decode_message(frame)
                assert message[0] == "error"
                assert "handshake" in message[1]
            finally:
                sock.close()

    def test_idle_timeout_aborts_session(self, uds_path):
        with start_in_thread(uds=uds_path, workers=0,
                             idle_timeout=0.1) as handle:
            client = CheckingClient(f"unix://{uds_path}")
            time.sleep(0.5)
            with pytest.raises(DaemonError):
                client.submit(make_traces(1)[0])
                client.flush()
                client.drain()
            deadline = time.monotonic() + 5.0
            while handle.server.active_sessions and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.server.active_sessions == 0
            assert handle.server.sessions_aborted == 1

    def test_first_frame_must_be_hello(self, uds_path):
        with start_in_thread(uds=uds_path, workers=0):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(uds_path)
            try:
                write_frame(sock, encode_bye_message())
                message = decode_message(read_frame(sock))
                assert message[0] == "error"
                assert "expected hello" in message[1]
            finally:
                sock.close()

    @pytest.mark.parametrize("kind", [2, 3, 4, 5])
    def test_retired_kind_frames_get_error(self, uds_path, kind):
        """Kinds 2-5 (an old process-backend channel) are unassigned:
        as a handshake or a mid-session frame they draw an ERROR frame,
        never a hang, and the server keeps serving."""
        frame = BINARY_MAGIC + bytes([BINARY_VERSION, kind, 0, 0])
        with start_in_thread(uds=uds_path, workers=0):
            for handshake in (True, False):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(5.0)
                sock.connect(uds_path)
                try:
                    if not handshake:
                        write_frame(sock, encode_hello_message("t"))
                        assert decode_message(read_frame(sock))[0] == (
                            "welcome"
                        )
                    write_frame(sock, frame)
                    message = decode_message(read_frame(sock))
                    assert message[0] == "error"
                    assert "unknown binary message kind" in message[1]
                finally:
                    sock.close()
            client = CheckingClient(f"unix://{uds_path}")
            client.submit(make_traces(1)[0])
            assert client.close().traces_checked == 1

    def test_undecodable_frame_aborts_but_server_survives(self, uds_path):
        with start_in_thread(uds=uds_path, workers=0) as handle:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(uds_path)
            try:
                sock.sendall(frame_bytes(b"garbage-not-pmtb"))
                message = decode_message(read_frame(sock))
                assert message[0] == "error"
            finally:
                sock.close()
            # the server keeps serving fresh sessions afterwards
            traces = make_traces(3)
            client = CheckingClient(f"unix://{uds_path}")
            for trace in traces:
                client.submit(trace)
            assert client.close().traces_checked == 3
            assert handle.server.sessions_served == 1

    def test_session_limit_rejects_with_overloaded(self, uds_path):
        policy = AdmissionPolicy(max_sessions=1)
        with start_in_thread(uds=uds_path, workers=0, policy=policy):
            first = CheckingClient(f"unix://{uds_path}")
            with pytest.raises(DaemonOverloaded, match="session limit"):
                CheckingClient(f"unix://{uds_path}", connect_retries=0)
            first.close()
            # capacity is back once the first session ends
            CheckingClient(f"unix://{uds_path}").close()

    def test_mid_frame_disconnect_aborts_session(self, uds_path):
        from repro.daemon.protocol import FRAME_HEADER

        with start_in_thread(uds=uds_path, workers=0) as handle:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(uds_path)
            write_frame(sock, encode_hello_message("t"))
            assert decode_message(read_frame(sock))[0] == "welcome"
            # promise 100 bytes, send 3, vanish: a mid-stream kill
            sock.sendall(FRAME_HEADER.pack(100) + b"abc")
            sock.close()
            deadline = time.monotonic() + 5.0
            while handle.server.active_sessions and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.server.active_sessions == 0
            assert handle.server.sessions_aborted == 1
            [event] = handle.server.events
            assert "protocol error" in str(event)


class TestGracefulDrain:
    def test_shutdown_answers_inflight_sessions(self, uds_path):
        traces = make_traces(10)
        expected = verdict_key(library_verdict(traces, num_workers=0))
        handle = start_in_thread(uds=uds_path, workers=0, drain_timeout=30.0)
        client = CheckingClient(f"unix://{uds_path}")
        for trace in traces:
            client.submit(trace)
        client.flush()
        # SIGTERM arrives while the session is mid-stream
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        deadline = time.monotonic() + 5.0
        while not handle.server.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert handle.server.draining
        # the accepted session is still answered in full
        result = client.close()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()
        assert verdict_key(result) == expected

    def test_draining_server_refuses_new_sessions(self, uds_path):
        handle = start_in_thread(uds=uds_path, workers=0)
        held = CheckingClient(f"unix://{uds_path}")  # keeps drain pending
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        deadline = time.monotonic() + 5.0
        while not handle.server.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(DaemonError):
            CheckingClient(f"unix://{uds_path}", connect_retries=0)
        held.close()
        stopper.join(timeout=30.0)
        assert not stopper.is_alive()

    def test_stop_is_idempotent(self, uds_path):
        handle = start_in_thread(uds=uds_path, workers=0)
        handle.stop()
        handle.stop()

    def test_metrics_survive_session_close(self, uds_path):
        from repro.core.metrics import MetricsLevel, MetricsRegistry

        registry = MetricsRegistry(MetricsLevel.FULL)
        traces = make_traces(5)
        with start_in_thread(uds=uds_path, workers=0, metrics=registry) as h:
            client = CheckingClient(f"unix://{uds_path}")
            for trace in traces:
                client.submit(trace)
            client.close()
            deadline = time.monotonic() + 5.0
            while h.server.active_sessions and time.monotonic() < deadline:
                time.sleep(0.01)
            snapshot = h.server.metrics_snapshot()
        assert snapshot.counter_value("daemon.sessions") == 1
        assert snapshot.counter_value("daemon.traces") == 5
        # the session pool's engine counters were folded into the
        # server registry when the session closed
        assert snapshot.counter_value("engine.traces") == 5
        assert snapshot.histogram("daemon.frame_ns").count > 0
