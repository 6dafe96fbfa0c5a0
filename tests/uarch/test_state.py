"""Unit tests for per-core uarch state and kernel-window disturbance."""

import random

import pytest

from repro import System, SystemConfig
from repro.uarch import (
    AddressStreamSpec,
    BranchStreamSpec,
    KERNEL_OWNER,
    CoreUarchState,
    UarchConfig,
    measure_steady_state,
)
from repro.workloads import gpu_app, parsec


@pytest.fixture
def state():
    return CoreUarchState(UarchConfig(cache_sets=16, cache_ways=4), random.Random(0))


def _user_specs(lines=32):
    return (
        AddressStreamSpec(base=0x1_0000, lines=lines, hot_fraction=0.5, hot_rate=0.9),
        BranchStreamSpec(base_pc=0x4000, sites=32, bias=0.95),
    )


def _kernel_specs():
    return (
        AddressStreamSpec(base=0xFF_0000, lines=64, hot_fraction=0.5, hot_rate=0.7),
        BranchStreamSpec(base_pc=0xFF_8000, sites=64, bias=0.85),
    )


class TestUserWindow:
    def test_returns_miss_and_mispredict_counts(self, state):
        addr, branch = _user_specs()
        misses, mispredicts = state.run_user_window("u", addr, branch, 100, 50)
        assert 0 < misses <= 100
        assert 0 <= mispredicts <= 50

    def test_warm_window_misses_less(self, state):
        addr, branch = _user_specs(lines=16)
        cold_misses, _ = state.run_user_window("u", addr, branch, 200, 10)
        warm_misses, _ = state.run_user_window("u", addr, branch, 200, 10)
        assert warm_misses < cold_misses

    def test_occupancy_builds(self, state):
        addr, branch = _user_specs(lines=16)
        state.run_user_window("u", addr, branch, 200, 10)
        assert state.l1d.resident_lines() > 0


class TestKernelWindow:
    def test_disturbance_reported_per_victim(self):
        # The kernel window evicts the victim's lines, so the victim's next
        # window misses more than it does when nothing ran in between.
        user_addr, user_branch = _user_specs(lines=64)
        kernel_addr, kernel_branch = _kernel_specs()
        after = {}
        for polluted in (False, True):
            state = CoreUarchState(UarchConfig(cache_sets=16, cache_ways=4), random.Random(0))
            state.run_user_window("victim", user_addr, user_branch, 400, 100)
            if polluted:
                state.run_kernel_window(kernel_addr, kernel_branch, 256, 64)
            after[polluted], _ = state.run_user_window("victim", user_addr, user_branch, 64, 0)
        assert after[True] > after[False]

    def test_no_disturbance_on_empty_cache(self, state):
        kernel_addr, kernel_branch = _kernel_specs()
        assert state.run_kernel_window(kernel_addr, kernel_branch, 64, 32) is None
        assert set(state.l1d.stats.misses) == {KERNEL_OWNER}
        assert set(state.predictor.stats.predictions) == {KERNEL_OWNER}

    def test_kernel_self_eviction_not_reported(self, state):
        # Kernel windows count only against the kernel, even when they
        # replace the kernel's own lines.
        user_addr, user_branch = _user_specs()
        state.run_user_window("u", user_addr, user_branch, 100, 10)
        user_counts = (state.l1d.stats.hits["u"], state.l1d.stats.misses["u"])
        kernel_addr, kernel_branch = _kernel_specs()
        state.run_kernel_window(kernel_addr, kernel_branch, 200, 64)
        state.run_kernel_window(kernel_addr, kernel_branch, 200, 64)
        assert (state.l1d.stats.hits["u"], state.l1d.stats.misses["u"]) == user_counts
        assert state.l1d.stats.hits[KERNEL_OWNER] + state.l1d.stats.misses[KERNEL_OWNER] == 400


class TestSleep:
    def test_flush_for_deep_sleep(self, state):
        addr, branch = _user_specs()
        state.run_user_window("u", addr, branch, 100, 10)
        assert state.flush_for_deep_sleep() > 0
        assert all(not cache_set for cache_set in state.l1d._sets)


class TestIndexTables:
    def test_tables_built_on_first_use_and_dropped(self, state):
        addr, branch = _user_specs()
        state.run_user_window("u", addr, branch, 10, 10)
        set_of, tag_of = state._line_slots[addr]
        assert len(set_of) == len(tag_of) == addr.lines
        assert len(state._site_indices[branch]) == branch.sites
        state.drop_tables()
        assert not state._line_slots and not state._site_indices

    def test_system_run_releases_tables(self, monkeypatch):
        # A finished System lives until the cyclic GC collects it, so its
        # cores must not keep their tables that long (peak RSS).
        dropped = []
        drop_tables = CoreUarchState.drop_tables

        def recording(self):
            dropped.append(len(self._line_slots) + len(self._site_indices))
            drop_tables(self)

        monkeypatch.setattr(CoreUarchState, "drop_tables", recording)
        for _ in range(2):
            system = System(SystemConfig(seed=42))
            assert all(_no_tables(core.uarch) for core in system.kernel.cores)
            system.add_cpu_app(parsec("x264"))
            system.add_gpu_workload(gpu_app("ubench"))
            system.run(1_000_000)
            assert all(_no_tables(core.uarch) for core in system.kernel.cores)
        assert len(dropped) == 2 * len(system.kernel.cores)
        assert sum(dropped) > 0


def _no_tables(state):
    return not state._line_slots and not state._site_indices


class TestSteadyState:
    def test_rates_are_probabilities(self):
        addr, branch = _user_specs(lines=200)
        miss, mispredict = measure_steady_state(addr, branch, UarchConfig())
        assert 0.0 <= miss <= 1.0
        assert 0.0 <= mispredict <= 1.0

    def test_small_hot_set_misses_less_than_huge_set(self):
        config = UarchConfig()
        small = AddressStreamSpec(base=0, lines=64, hot_fraction=0.5, hot_rate=0.95)
        huge = AddressStreamSpec(base=0, lines=4096, hot_fraction=0.05, hot_rate=0.3)
        branch = BranchStreamSpec(base_pc=0x4000, sites=32, bias=0.95)
        small_miss, _ = measure_steady_state(small, branch, config)
        huge_miss, _ = measure_steady_state(huge, branch, config)
        assert small_miss < huge_miss

    def test_predictable_branches_mispredict_less(self):
        config = UarchConfig()
        addr = AddressStreamSpec(base=0, lines=64)
        predictable = BranchStreamSpec(base_pc=0, sites=32, bias=0.98)
        erratic = BranchStreamSpec(base_pc=0, sites=32, bias=0.6)
        _, low = measure_steady_state(addr, predictable, config)
        _, high = measure_steady_state(addr, erratic, config)
        assert low < high
