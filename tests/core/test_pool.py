"""Tests for the warm execution backend: pool mechanics, equivalence,
and crash isolation.

The acceptance bar is the module's contract: warm-pool and serial
results are byte-for-byte identical, a second batch spawns zero new
workers, and a failed run fails only itself.
"""

import json
import os

import pytest

from repro.config import SystemConfig
from repro.core import (
    clear_cache,
    execute_runs,
    make_run_key,
    plan_runs,
    run_key_digest,
    set_disk_cache,
    shared_pool,
    shared_pool_stats,
    shutdown_shared_pool,
)
from repro.core.experiment import cache_lookup
from repro.core.pool import TaskResult, WorkerPool, run_task
from repro.experiments.common import UNPLANNABLE

HORIZON = 1_000_000
CPUS = ["x264", "blackscholes"]
GPUS = ["bfs", "ubench"]


@pytest.fixture(autouse=True)
def isolated_everything():
    """Fresh caches, no leftover resident workers."""
    clear_cache()
    set_disk_cache(None)
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()
    clear_cache()
    set_disk_cache(None)


def kwargs_for(experiment_id: str) -> dict:
    kwargs = {"horizon_ns": HORIZON}
    if experiment_id in ("fig3a", "fig3b"):
        kwargs["cpu_names"] = CPUS
        kwargs["gpu_names"] = GPUS
    if experiment_id == "fig4":
        kwargs["gpu_names"] = GPUS
    return kwargs


def fig4_keys():
    keys, skipped = plan_runs(["fig4"], kwargs_for, unplannable=UNPLANNABLE)
    assert keys and skipped == []
    return keys


def snapshot(keys) -> dict:
    """Byte-exact view of the memory cache for ``keys``."""
    return {
        run_key_digest(key): json.dumps(
            cache_lookup(key).as_dict(), sort_keys=True
        )
        for key in keys
    }


# ----------------------------------------------------------------------
# Lightweight runners for direct pool-mechanics tests (module-level so
# fork workers can resolve them by reference).
# ----------------------------------------------------------------------
def echo_task(value):
    return value * 2


def faulty_task(value):
    if value == 2:
        raise ValueError(f"injected failure for value {value}")
    return value * 2


def deadly_task(value):
    if value == 1:
        os._exit(3)
    return value * 2


class TestWorkerPool:
    """Direct pool mechanics with trivial runners (no simulation)."""

    def make_pool(self, workers, **kwargs):
        kwargs.setdefault("start_method", "fork")
        kwargs.setdefault("recycle_after", 0)
        return WorkerPool(workers, **kwargs)

    def test_batch_returns_every_result(self):
        pool = self.make_pool(2, runner=echo_task)
        try:
            results = pool.run_batch([(i,) for i in range(6)])
            assert len(results) == 6
            assert all(isinstance(r, TaskResult) and r.ok for r in results)
            by_index = {r.index: r.payload for r in results}
            assert by_index == {i: i * 2 for i in range(6)}
            assert pool.stats.tasks_completed == 6
            assert pool.stats.spawned_workers == 2
        finally:
            pool.shutdown()

    def test_second_batch_reuses_workers(self):
        pool = self.make_pool(2, runner=echo_task)
        try:
            pool.run_batch([(i,) for i in range(4)])
            assert pool.stats.warm_hits == 0  # everyone spawned this batch
            pool.run_batch([(i,) for i in range(4)])
            assert pool.stats.spawned_workers == 2  # nobody new
            assert pool.stats.batches == 2
            assert pool.stats.warm_hits == 4  # all of batch 2 served warm
            assert pool.stats.warm_hit_ratio == pytest.approx(0.5)
        finally:
            pool.shutdown()

    def test_worker_recycles_after_n_tasks(self):
        pool = self.make_pool(1, recycle_after=2, runner=echo_task)
        try:
            results = pool.run_batch([(i,) for i in range(5)])
            assert sorted(r.payload for r in results) == [0, 2, 4, 6, 8]
            # 5 tasks at 2-per-life: two planned retirements, three spawns.
            assert pool.stats.recycled_workers == 2
            assert pool.stats.spawned_workers == 3
            assert pool.stats.crashed_workers == 0
        finally:
            pool.shutdown()

    def test_task_exception_fails_only_that_task(self):
        pool = self.make_pool(2, runner=faulty_task)
        try:
            results = pool.run_batch([(1,), (2,), (3,)])
            failed = [r for r in results if not r.ok]
            assert len(failed) == 1
            assert "ValueError" in failed[0].error
            assert "injected failure for value 2" in failed[0].error
            assert sorted(r.payload for r in results if r.ok) == [2, 6]
            assert pool.stats.tasks_failed == 1
            assert pool.stats.crashed_workers == 0  # the worker survived
        finally:
            pool.shutdown()

    def test_worker_death_fails_only_its_task(self):
        pool = self.make_pool(2, runner=deadly_task)
        try:
            results = pool.run_batch([(0,), (1,), (2,)])
            failed = [r for r in results if not r.ok]
            assert len(failed) == 1
            assert "died with exit code 3" in failed[0].error
            assert sorted(r.payload for r in results if r.ok) == [0, 4]
            assert pool.stats.crashed_workers >= 1
            # The pool is still serviceable after the crash.
            again = pool.run_batch([(0,), (2,)])
            assert all(r.ok for r in again)
        finally:
            pool.shutdown()

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestSharedPool:
    def test_shared_pool_is_a_singleton_per_worker_count(self):
        pool = shared_pool(2)
        assert shared_pool(2) is pool
        other = shared_pool(3)  # different strength: fresh pool
        assert other is not pool
        assert not pool.alive
        shutdown_shared_pool()
        assert not other.alive

    def test_stats_are_zero_without_a_pool(self):
        stats = shared_pool_stats()
        assert stats["spawned_workers"] == 0.0
        assert stats["live_workers"] == 0.0
        assert stats["warm_hit_ratio"] == 0.0


class TestWarmEquivalence:
    """Warm-pool and serial runs agree byte for byte."""

    def test_serial_warm_results_identical(self):
        keys = fig4_keys()
        report = execute_runs(keys, jobs=1)
        assert report.executed == len(keys) and not report.failed
        serial = snapshot(keys)

        # Warm: two batches through the resident pool.
        clear_cache()
        half = len(keys) // 2
        first = execute_runs(keys[:half], jobs=2)
        stats_after_first = shared_pool_stats()
        second = execute_runs(keys[half:], jobs=2)
        stats_after_second = shared_pool_stats()
        assert first.executed == half and second.executed == len(keys) - half
        assert not first.failed and not second.failed
        assert first.pool and second.pool  # warm path reports pool stats
        assert snapshot(keys) == serial

        # The second batch spawned nobody and ran entirely warm.
        assert stats_after_first["spawned_workers"] == 2.0
        assert stats_after_second["spawned_workers"] == 2.0
        assert stats_after_second["batches"] == 2.0
        assert stats_after_second["warm_hits"] == float(len(keys) - half)

    def test_pending_keys_dispatch_in_planned_order(self):
        keys = fig4_keys()
        execute_runs(keys[:2], jobs=1)  # cached keys are not dispatched

        class RecordingPool:
            dispatched = []

            def run_batch(self, tasks):
                self.dispatched.extend(task[0] for task in tasks)
                return [
                    TaskResult(index, True, payload=run_task(*task))
                    for index, task in enumerate(tasks)
                ]

            def stats_document(self):
                return {}

        report = execute_runs(keys, jobs=2, pool=RecordingPool())
        assert RecordingPool.dispatched == keys[2:]
        assert report.executed == len(keys) - 2 and report.memory_hits == 2

    def test_summary_mentions_pool_when_warm(self):
        keys = fig4_keys()
        report = execute_runs(keys, jobs=2)
        assert "warm pool" in report.summary()
        assert "spawned" in report.summary()


class TestCrashIsolation:
    """A key that cannot simulate fails alone; the batch completes."""

    BOGUS = make_run_key("not-a-real-app", "bfs", True, SystemConfig(), HORIZON)

    def test_serial_path_isolates_the_failure(self):
        keys = fig4_keys()
        report = execute_runs([self.BOGUS] + keys, jobs=1)
        assert report.executed == len(keys)
        assert len(report.failed) == 1
        failed_key, error = report.failed[0]
        assert failed_key == self.BOGUS
        assert "not-a-real-app" in error
        assert all(cache_lookup(key) is not None for key in keys)
        assert cache_lookup(self.BOGUS) is None
        assert "FAILED" in report.summary()

    def test_warm_pool_path_isolates_the_failure(self):
        keys = fig4_keys()
        report = execute_runs([self.BOGUS] + keys, jobs=2)
        assert report.executed == len(keys)
        assert len(report.failed) == 1
        assert report.failed[0][0] == self.BOGUS
        assert "not-a-real-app" in report.failed[0][1]
        assert all(cache_lookup(key) is not None for key in keys)
