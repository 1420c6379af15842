"""Overload behaviour and chaos differentials for the daemon.

The acceptance story: under sustained submission beyond the admission
budget the daemon sheds/queues per policy, keeps admitted-but-unchecked
bytes bounded, and never returns a wrong verdict — and a chaos-killed
session leaves the server healthy while surviving sessions' verdicts
stay byte-identical to library mode on every backend.
"""

import time

import pytest

from repro.core.faults import plan_from_seed
from repro.core.metrics import MetricsLevel, MetricsRegistry
from repro.core.recovery import RecoveryKind
from repro.daemon import (
    AdmissionPolicy,
    CheckingClient,
    DaemonError,
    start_in_thread,
)

from tests.daemon.conftest import library_verdict, make_traces, verdict_key


class TestOverload:
    def test_overload_sheds_and_stays_correct(self, uds_path):
        """Submission far beyond the tenant's admission rate: frames
        shed with retry-after, the inflight high-water stays bounded,
        and the final verdict is byte-identical to library mode."""
        traces = make_traces(40)
        expected = verdict_key(library_verdict(traces, num_workers=0))
        registry = MetricsRegistry(MetricsLevel.FULL)
        limit = 2048
        policy = AdmissionPolicy(
            max_inflight_bytes=limit,
            # the client can produce frames orders of magnitude faster
            # than this sustained rate: guaranteed overload
            tenant_rate_bytes=4096,
            tenant_burst_bytes=256,
            queue_timeout=0.02,
            retry_after_ms=5,
            max_sheds=1000,
            checkpoint_bytes=512,
        )
        with start_in_thread(
            uds=uds_path, workers=0, policy=policy, metrics=registry
        ) as handle:
            client = CheckingClient(
                f"unix://{uds_path}", batch_size=4, deadline=120
            )
            for trace in traces:
                client.submit(trace)
            result = client.close()
            admission = handle.server.admission
            assert verdict_key(result) == expected
            # overload was real and handled by shedding, not buffering
            assert client.sheds_seen > 0
            assert admission.frames_shed == client.sheds_seen
            assert admission.frames_admitted == 10  # 40 traces / batch 4
            assert handle.server.traces_accepted == 40
            shed_events = [
                e for e in admission.events if e.kind is RecoveryKind.SHED
            ]
            assert len(shed_events) == admission.frames_shed
            snapshot = handle.server.metrics_snapshot()
        # the RSS guardrail held: admitted-but-unchecked bytes never
        # exceeded the configured budget (frames here are < limit, so
        # the debt carve-out for oversized frames cannot kick in)
        high_water = snapshot.gauges().get("daemon.inflight_bytes", 0)
        assert 0 < high_water <= limit
        assert snapshot.counter_value("daemon.frames_shed") == len(shed_events)

    def test_two_tenants_one_noisy(self, uds_path):
        """A rate-limited noisy tenant sheds while a quiet tenant on the
        same daemon is untouched; both verdicts stay correct."""
        noisy_traces = make_traces(16, offset=0)
        quiet_traces = make_traces(4, offset=200)
        expected_noisy = verdict_key(
            library_verdict(noisy_traces, num_workers=0)
        )
        expected_quiet = verdict_key(
            library_verdict(quiet_traces, num_workers=0)
        )
        policy = AdmissionPolicy(
            tenant_rate_bytes=4096,
            tenant_burst_bytes=512,
            retry_after_ms=5,
            max_sheds=1000,
        )
        with start_in_thread(
            uds=uds_path, workers=0, policy=policy
        ) as handle:
            noisy = CheckingClient(
                f"unix://{uds_path}", tenant="noisy", batch_size=2,
                deadline=120,
            )
            quiet = CheckingClient(
                f"unix://{uds_path}", tenant="quiet", batch_size=2,
                deadline=120,
            )
            for trace in noisy_traces:
                noisy.submit(trace)
                noisy.flush()
            for trace in quiet_traces:
                quiet.submit(trace)
                quiet.flush()
            assert verdict_key(noisy.close()) == expected_noisy
            assert verdict_key(quiet.close()) == expected_quiet
            assert noisy.sheds_seen > 0
            assert quiet.sheds_seen == 0

    def test_forced_shed_chaos_is_transparent(self, uds_path):
        """A seeded daemon.shed fault forces sheds; the client retries
        and the verdict is unchanged."""
        traces = make_traces(10)
        expected = verdict_key(library_verdict(traces, num_workers=0))
        faults = plan_from_seed(11, points=["daemon.shed"])
        with start_in_thread(
            uds=uds_path, workers=0, faults=faults
        ) as handle:
            client = CheckingClient(
                f"unix://{uds_path}", batch_size=2, deadline=60
            )
            for trace in traces:
                client.submit(trace)
            result = client.close()
            forced = [
                e
                for e in handle.server.admission.events
                if e.kind is RecoveryKind.SHED and "chaos" in str(e)
            ]
        assert verdict_key(result) == expected
        assert client.sheds_seen == len(forced)


# One spawned worker per pool keeps the process rows fast on small hosts.
MATRIX = [
    pytest.param({"workers": 0}, id="inline"),
    pytest.param({"workers": 2, "backend": "thread"}, id="thread"),
    pytest.param({"workers": 1, "backend": "process"}, id="process"),
]


class TestChaosSessionKill:
    """Satellite: a chaos-seeded mid-stream session kill must leave the
    server drainable and not perturb other sessions' verdicts."""

    @pytest.mark.parametrize("config", MATRIX)
    def test_killed_session_leaves_survivors_identical(
        self, uds_path, config
    ):
        # the seeded plan crashes one session at its 2nd-4th frame
        faults = plan_from_seed(3, points=["daemon.session_decode"])
        survivor_traces = make_traces(8, offset=50)
        pool_kwargs = {
            "num_workers": config.get("workers", 0),
            "backend": config.get("backend"),
        }
        expected = verdict_key(
            library_verdict(survivor_traces, **pool_kwargs)
        )
        with start_in_thread(
            uds=uds_path, faults=faults, **config
        ) as handle:
            victim = CheckingClient(
                f"unix://{uds_path}", tenant="victim", batch_size=1,
                deadline=60,
            )
            with pytest.raises(DaemonError):
                for trace in make_traces(8, offset=0):
                    victim.submit(trace)
                victim.close()
            victim.abort()
            deadline = time.monotonic() + 10.0
            while (
                handle.server.active_sessions
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert handle.server.sessions_aborted == 1
            aborted = [
                e
                for e in handle.server.events
                if e.kind is RecoveryKind.SESSION_ABORTED
            ]
            assert len(aborted) == 1
            assert "chaos" in str(aborted[0])
            # the server is healthy: a fresh session checks the same
            # workload byte-identically to library mode
            survivor = CheckingClient(
                f"unix://{uds_path}", tenant="survivor", batch_size=3,
                deadline=60,
            )
            for trace in survivor_traces:
                survivor.submit(trace)
            result = survivor.close()
        assert verdict_key(result) == expected

    def test_killed_session_releases_inflight_budget(self, uds_path):
        """Bytes admitted by the killed session are returned to the
        budget, so later sessions are not starved."""
        faults = plan_from_seed(3, points=["daemon.session_decode"])
        policy = AdmissionPolicy(
            max_inflight_bytes=16 * 1024, checkpoint_bytes=1024 * 1024
        )
        with start_in_thread(
            uds=uds_path, workers=0, faults=faults, policy=policy
        ) as handle:
            victim = CheckingClient(
                f"unix://{uds_path}", batch_size=1, deadline=60
            )
            with pytest.raises(DaemonError):
                for trace in make_traces(8):
                    victim.submit(trace)
                victim.close()
            victim.abort()
            deadline = time.monotonic() + 10.0
            while (
                handle.server.active_sessions
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert handle.server.admission.budget.used == 0
