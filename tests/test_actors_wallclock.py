"""Unit tests for the wallclock execution backend (real actor lanes).

The wallclock engine must serve the exact ActorSystem API the virtual engine
does — submit/tick/drain/cancel/retire — from *real* thread completions while
preserving the semantics drivers rely on: per-actor FIFO body order, blocking
ticks, bounded waits that raise instead of hanging, and explicit quiescence.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.actors import wallclock
from repro.actors.actor import Actor, ActorFuture
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.actors.wallclock import WallClock
from repro.core.cost_model import (
    CalibratedLatencyProvider,
    LatencyRecorder,
    reconcile_timing,
)
from repro.errors import ActorError


#: Compress modelled seconds aggressively so the suite stays fast.
FAST = 0.01


class Recorder(Actor):
    """Appends (method, arg) markers; used to observe body execution order."""

    role = "recorder"

    def __init__(self) -> None:
        super().__init__()
        self.log: list[int] = []
        self.lock = threading.Lock()
        self.concurrent_bodies = 0
        self.max_concurrent_bodies = 0

    def mark(self, value: int) -> int:
        with self.lock:
            self.concurrent_bodies += 1
            self.max_concurrent_bodies = max(
                self.max_concurrent_bodies, self.concurrent_bodies
            )
        time.sleep(0.002)  # widen the race window for the turnstile check
        with self.lock:
            self.log.append(value)
            self.concurrent_bodies -= 1
        return value


class Sleeper(Actor):
    role = "sleeper"

    def nap(self, real_seconds: float) -> float:
        time.sleep(real_seconds)
        return real_seconds


def make_system(**kwargs) -> ActorSystem:
    kwargs.setdefault("backend", "wallclock")
    return ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1), **kwargs)


class TestWallClock:
    def test_reports_virtual_units(self):
        clock = WallClock(time_scale=0.5)
        before = clock.now_s
        time.sleep(0.05)
        elapsed = clock.now_s - before
        # 0.05 real seconds at 0.5 real-per-virtual = 0.1 virtual seconds.
        assert elapsed >= 0.09

    def test_advance_is_noop(self):
        clock = WallClock()
        clock.advance(100.0)
        clock.advance_to(1e6)
        assert clock.now_s < 10.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ActorError):
            WallClock(time_scale=0.0)


class TestSubmitAndTick:
    def test_bodies_run_fifo_and_serialized(self):
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Recorder, name="r", concurrency=4)
        futures = [handle.submit("mark", i) for i in range(16)]
        system.drain()
        recorder = handle.instance()
        assert recorder.log == list(range(16))
        assert recorder.max_concurrent_bodies == 1  # turnstile held
        assert [f.result() for f in futures] == list(range(16))

    def test_tick_blocks_for_real_completion(self):
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Sleeper, name="s")
        future = handle.submit("nap", 0.05)
        # The virtual-engine driver loop must terminate on real completions.
        while not future.done():
            if system.tick() == 0:
                break
        assert future.result() == 0.05

    def test_tick_returns_zero_when_idle(self):
        system = make_system(time_scale=FAST)
        system.create_actor(Recorder, name="r")
        assert system.tick() == 0

    def test_modelled_durations_overlap_across_lanes(self):
        # Two lanes, two calls of 20 modelled seconds each: the bodies are
        # instant, the modelled latency sleeps concurrently — wall time must
        # be well under the 40-second serial sum (scaled).
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Recorder, name="r", concurrency=2)
        t0 = time.monotonic()
        futures = [handle.submit_timed("mark", i, duration_s=20.0) for i in range(2)]
        system.drain()
        elapsed_real = time.monotonic() - t0
        assert all(f.done() for f in futures)
        assert elapsed_real < 2 * 20.0 * FAST * 0.9
        # Completion instants are published in virtual units, like virtual.
        for future in futures:
            assert future.available_at_s >= 20.0

    def test_single_lane_serializes_durations(self):
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Recorder, name="r", concurrency=1)
        t0 = time.monotonic()
        for i in range(2):
            handle.submit_timed("mark", i, duration_s=20.0)
        system.drain()
        assert time.monotonic() - t0 >= 2 * 20.0 * FAST * 0.8

    def test_earliest_start_is_honoured(self):
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Recorder, name="r")
        future = handle.submit_timed("mark", 1, earliest_start_s=30.0)
        system.drain()
        assert future.result() == 1
        assert future.available_at_s >= 30.0


class TestTimeoutParity:
    def test_result_timeout_raises_wallclock(self):
        system = make_system(time_scale=1.0)
        handle = system.create_actor(Sleeper, name="s")
        future = handle.submit("nap", 0.3)
        with pytest.raises(TimeoutError):
            future.result(timeout=0.05)
        system.drain()
        assert future.result() == 0.3

    def test_tick_backstop_raises_when_nothing_completes(self, monkeypatch):
        monkeypatch.setattr(wallclock, "TICK_TIMEOUT_S", 0.05)
        system = make_system(time_scale=1.0)
        handle = system.create_actor(Sleeper, name="s")
        future = handle.submit("nap", 0.3)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="no completion within 0.05s"):
            system.tick()
        assert time.monotonic() - started < 0.3  # raised before the nap ended
        assert future.result(timeout=5.0) == 0.3
        system.drain()

    def test_drain_backstop_raises_when_nothing_completes(self, monkeypatch):
        monkeypatch.setattr(wallclock, "TICK_TIMEOUT_S", 0.05)
        system = make_system(time_scale=1.0)
        future = system.create_actor(Sleeper, name="s").submit("nap", 0.3)
        with pytest.raises(TimeoutError, match="drain saw no completion within 0.05s"):
            system.drain()
        assert future.result(timeout=5.0) == 0.3
        system.drain()

    def test_quiesce_backstop_raises_while_a_call_runs(self, monkeypatch):
        monkeypatch.setattr(wallclock, "TICK_TIMEOUT_S", 0.05)
        system = make_system(time_scale=1.0)
        future = system.create_actor(Sleeper, name="s").submit("nap", 0.3)
        with pytest.raises(TimeoutError, match="quiesce of actor 's'"):
            system.engine.quiesce(["s"])
        assert future.result(timeout=5.0) == 0.3
        system.drain()

    def test_result_timeout_drives_virtual_engine(self):
        system = ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))
        handle = system.create_actor(Recorder, name="r")
        future = handle.submit_timed("mark", 7, duration_s=5.0)
        # No explicit tick: result(timeout=) drives the engine to completion.
        assert future.result(timeout=100.0) == 7

    def test_detached_future_timeout(self):
        future = ActorFuture("ghost", "noop")
        with pytest.raises(TimeoutError):
            future.result(timeout=0.02)

    def test_drain_backstop_raises_wallclock(self, monkeypatch):
        """A wedged lane cannot hang a drain: no completion within
        ``TICK_TIMEOUT_S`` raises."""
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Sleeper, name="s")
        monkeypatch.setattr(wallclock, "TICK_TIMEOUT_S", 0.05)
        handle.submit("nap", 0.2)
        with pytest.raises(TimeoutError):
            system.drain()
        monkeypatch.undo()
        system.drain()

    def test_drain_runs_serialized_virtual_work_to_the_end(self):
        system = ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))
        handle = system.create_actor(Recorder, name="r")
        for _ in range(4):
            handle.submit_timed("mark", 0, duration_s=100.0)
        assert system.drain() == 4
        assert system.clock.now_s >= 300.0


#: Retire/cancel cases whose contract is the same on both engines run on both;
#: the handoff and stop cases have their cross-engine form in
#: tests/test_actors_engine_seam.py.
both_backends = pytest.mark.parametrize("backend", ActorSystem.BACKENDS)


class TestRetireAndCancel:
    @both_backends
    def test_retire_drain_under_load(self, backend):
        system = make_system(backend=backend, time_scale=FAST)
        handle = system.create_actor(Recorder, name="r")
        futures = [handle.submit_timed("mark", i, duration_s=5.0) for i in range(4)]
        assert system.retire_actor("r") is False
        system.drain()
        assert [f.result() for f in futures] == [0, 1, 2, 3]
        assert "r" not in system.list_actor_names()

    def test_retire_drain_idle_is_immediate(self):
        system = make_system(time_scale=FAST)
        system.create_actor(Recorder, name="r")
        assert system.retire_actor("r") is True
        assert "r" not in system.list_actor_names()

    @both_backends
    def test_cancel_pending_under_contention(self, backend):
        system = make_system(backend=backend, time_scale=FAST)
        handle = system.create_actor(Sleeper, name="s", concurrency=2)
        futures = [handle.submit("nap", 0.05) for _ in range(10)]
        time.sleep(0.01)  # let a couple of calls get claimed by lanes
        system.cancel_pending("s")
        # Contract: nothing pending afterwards and nothing mid-execution.
        assert system.pending_count() == 0
        states = {"done": 0, "cancelled": 0}
        for future in futures:
            assert future.done()
            states["cancelled" if future.cancelled() else "done"] += 1
        assert states["cancelled"] >= 1
        # The actor still serves new work after the purge.
        follow_up = handle.submit("nap", 0.0)
        system.drain()
        assert follow_up.result() == 0.0

    def test_quiesce_waits_for_inflight(self):
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Sleeper, name="s")
        handle.submit("nap", 0.05)
        system.quiesce(["s"])
        assert system.pending_count() == 0

    def test_quiesce_is_noop_on_virtual(self):
        system = ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))
        handle = system.create_actor(Recorder, name="r")
        handle.submit("mark", 1)
        system.quiesce()  # must not hang or execute anything
        assert system.pending_count() == 1

    def test_stop_actor_fails_queued_calls(self):
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Sleeper, name="s")
        first = handle.submit("nap", 0.05)
        queued = [handle.submit("nap", 0.0) for _ in range(3)]
        time.sleep(0.01)  # let the first call get claimed
        system.stop_actor("s")
        for future in queued:
            assert future.done()
        # The claimed call was mid-body at stop time; it finishes normally
        # on its lane (executed events are never revoked).
        assert first.result(timeout=60.0) == 0.05


class TestDirectCalls:
    def test_direct_call_serializes_with_submissions(self):
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Recorder, name="r")
        for i in range(4):
            handle.submit("mark", i)
        assert handle.call("mark", 99) == 99
        system.drain()
        log = handle.instance().log
        assert sorted(log) == [0, 1, 2, 3, 99]
        assert handle.instance().max_concurrent_bodies == 1


class TestCalibration:
    def test_recorder_aggregates_samples(self):
        recorder = LatencyRecorder()
        recorder.record("loader", "prepare", 0.5)
        recorder.record("loader", "prepare", 1.5)
        recorder.record("planner", "plan", 0.25)
        summary = recorder.summary()
        assert summary["loader.prepare"]["count"] == 2
        assert summary["loader.prepare"]["mean_s"] == pytest.approx(1.0)
        assert summary["planner.plan"]["total_s"] == pytest.approx(0.25)

    def test_calibrated_provider_replays_fifo_then_mean(self):
        recorder = LatencyRecorder()

        class Stub(Actor):
            role = "loader"

        for duration in (0.5, 1.5):
            recorder.record("loader", "prepare", duration)
        provider = CalibratedLatencyProvider(recorder.samples())
        assert provider.wants_lane_context is False
        stub = Stub()
        assert provider.call_duration_s(stub, "prepare", None) == pytest.approx(0.5)
        assert provider.call_duration_s(stub, "prepare", None) == pytest.approx(1.5)
        # Replay exhausted: fall back to the measured mean.
        assert provider.call_duration_s(stub, "prepare", None) == pytest.approx(1.0)
        # Unmeasured methods cost nothing rather than guessing.
        assert provider.call_duration_s(stub, "unseen", None) == 0.0

    def test_wallclock_engine_records_calibration(self):
        system = make_system(time_scale=FAST)
        handle = system.create_actor(Recorder, name="r")
        handle.submit_timed("mark", 1, duration_s=10.0)
        system.drain()
        summary = system.engine.calibration.summary()
        assert summary["recorder.mark"]["count"] == 1
        assert summary["recorder.mark"]["mean_s"] >= 10.0

    def test_reconcile_timing_report(self):
        measured = {"data_stall_time_s": 1.0, "hidden_data_time_s": 4.0}
        simulated = {"data_stall_time_s": 1.1, "hidden_data_time_s": 8.0}
        report = reconcile_timing(
            measured, simulated,
            metrics=("data_stall_time_s", "hidden_data_time_s"),
            tolerance=0.25,
        )
        assert report["metrics"]["data_stall_time_s"]["reconciled"] is True
        assert report["metrics"]["hidden_data_time_s"]["reconciled"] is False
        assert report["within_tolerance"] is False

    def test_reconcile_timing_absolute_floor(self):
        # Sub-millisecond disagreements never fail the gate, whatever the
        # relative error says.
        report = reconcile_timing(
            {"data_stall_time_s": 0.0},
            {"data_stall_time_s": 5e-4},
            metrics=("data_stall_time_s",),
        )
        assert report["within_tolerance"] is True
