"""Unit tests for the thread CPU protocol."""

import gc

import pytest

from repro.oskernel import Thread, accounting as acct
from repro.oskernel.thread import KIND_USER, PRIO_NORMAL

from .conftest import BusyThread


class TestLifecycle:
    def test_thread_runs_to_completion(self, kernel):
        thread = kernel.spawn(BusyThread(kernel, "t", 500_000, iterations=1))
        kernel.env.run(until=2_000_000)
        assert thread.finished
        assert thread.productive_ns == pytest.approx(500_000, rel=0.01)

    def test_double_start_rejected(self, kernel):
        thread = BusyThread(kernel, "t", 1, iterations=1)
        thread.start()
        with pytest.raises(RuntimeError):
            thread.start()

    def test_unknown_kind_rejected(self, kernel):
        with pytest.raises(ValueError):
            Thread(kernel, "t", kind="phantom")

    def test_body_must_be_overridden(self, kernel):
        thread = Thread(kernel, "t").start()
        thread.process.defuse()
        kernel.env.run(until=1000)
        assert not thread.process.ok

    def test_finished_thread_releases_core(self, kernel):
        thread = kernel.spawn(BusyThread(kernel, "t", 100, iterations=1))
        kernel.env.run(until=1_000_000)
        assert thread.core is None


class TestCollectedRuns:
    def test_collecting_a_finished_run_dispatches_nothing(self, monkeypatch):
        """Threads still holding a core when the run ends are closed later
        by the garbage collector; that must not dispatch on a core."""
        from repro.config import SystemConfig
        from repro.core.experiment import make_run_key, simulate_run
        from repro.oskernel.cpu import Core

        calls = []
        dispatch = Core.dispatch

        def counting_dispatch(core):
            calls.append(core.id)
            return dispatch(core)

        gc.collect()
        gc.disable()
        try:
            simulate_run(make_run_key("x264", "ubench", True, SystemConfig(), 2_000_000))
            monkeypatch.setattr(Core, "dispatch", counting_dispatch)
            assert gc.collect() > 0
        finally:
            gc.enable()
        assert calls == []


class TestProductiveTime:
    def test_wall_time_includes_overheads(self, kernel):
        """With four single-minded threads on four cores, productive time
        is close to wall time; with eight threads it halves per thread."""
        threads = [
            kernel.spawn(BusyThread(kernel, f"t{i}", 50_000_000))
            for i in range(8)
        ]
        kernel.env.run(until=10_000_000)
        kernel.finalize()
        shares = [t.productive_ns / 10_000_000 for t in threads]
        assert sum(shares) == pytest.approx(4.0, rel=0.1)
        # Fair-ish: no thread should get a full core or be starved.
        assert all(0.2 < share < 0.9 for share in shares)

    def test_sleep_consumes_no_cpu(self, kernel):
        thread = kernel.spawn(
            BusyThread(kernel, "t", 100_000, sleep_ns=900_000, iterations=5)
        )
        kernel.env.run(until=6_000_000)
        assert thread.finished
        assert thread.productive_ns == pytest.approx(500_000, rel=0.01)


class TestPollution:
    def test_disturbance_becomes_stall(self, kernel):
        # Two run_for calls: the disturbance recorded during the first is
        # repaid as stall at the start of the second segment.
        thread = kernel.spawn(BusyThread(kernel, "t", 1_000_000, iterations=2))
        thread.cache_coverage = 1.0
        thread.reuse_probability = 1.0
        kernel.env.run(until=500_000)  # thread is mid-first-run
        thread.add_disturbance(lines_evicted=100, entries_retrained=0)
        kernel.env.run(until=6_000_000)
        assert thread.finished
        assert thread.pollution_stall_ns > 0
        assert thread.extra_misses > 0

    def test_no_charge_without_disturbance(self, kernel):
        thread = kernel.spawn(BusyThread(kernel, "t", 1_000_000, iterations=1))
        kernel.env.run(until=3_000_000)
        assert thread.pollution_stall_ns == 0.0

    def test_stall_extends_wall_time(self, kernel):
        quiet = BusyThread(kernel, "quiet", 1_000_000, iterations=1)
        polluted = BusyThread(kernel, "polluted", 1_000_000, iterations=1)
        polluted.cache_coverage = 1.0
        polluted.reuse_probability = 1.0
        polluted.add_disturbance(lines_evicted=2000, entries_retrained=500)
        kernel.spawn(quiet)
        kernel.spawn(polluted)
        kernel.env.run(until=10_000_000)
        assert quiet.finished and polluted.finished
        # Both did the same productive work; the polluted one needed longer.
        assert polluted.pollution_stall_ns > 10_000


class TestWait:
    def test_wait_returns_event_value(self, kernel):
        done = kernel.env.event()

        class Waiter(Thread):
            def body(self):
                value = yield from self.wait(done)
                self.got = value

        thread = kernel.spawn(Waiter(kernel, "w"))
        kernel.env.call_later(1000, lambda: done.succeed("payload"))
        kernel.env.run(until=10_000)
        assert thread.got == "payload"

    def test_wait_releases_cpu(self, kernel):
        gate = kernel.env.event()

        class Waiter(Thread):
            def body(self):
                yield from self.run_for(1000)
                yield from self.wait(gate)

        thread = kernel.spawn(Waiter(kernel, "w"))
        kernel.env.run(until=100_000)
        assert thread.core is None
        assert not thread.queued
