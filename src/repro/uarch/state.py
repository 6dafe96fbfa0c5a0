"""Per-core microarchitectural state and the pollution API.

Each simulated CPU core owns a :class:`CoreUarchState`: an L1D cache model
and a branch predictor.  User threads and kernel SSR handlers push their
(sampled) streams through these *shared* structures, so kernel handlers
genuinely evict user lines and retrain user predictor entries.  The core
model converts the resulting disturbance counts into stall cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, Tuple

from .branch import GShareBranchPredictor
from .cache import SetAssociativeCache
from .streams import AddressStreamSpec, BranchStreamSpec

#: Owner tag used by all kernel-mode execution.
KERNEL_OWNER = "kernel"


@dataclass(frozen=True)
class UarchConfig:
    """Geometry of the per-core structures (scaled-down L1-class sizes)."""

    cache_sets: int = 64
    cache_ways: int = 8
    line_size: int = 64
    predictor_entries: int = 1024
    #: Global-history bits mixed into the predictor index.  The default of 0
    #: (a bimodal predictor) is deliberate: the synthetic branch streams have
    #: no real history correlation, so history bits would only inject index
    #: noise and push every stream toward a 50% mispredict rate.
    history_bits: int = 0

    def make_cache(self) -> SetAssociativeCache:
        return SetAssociativeCache(self.cache_sets, self.cache_ways, self.line_size)

    def make_predictor(self) -> GShareBranchPredictor:
        return GShareBranchPredictor(self.predictor_entries, self.history_bits)


@dataclass
class Disturbance:
    """What one kernel window did to a given user owner's state."""

    lines_evicted: int = 0
    entries_retrained: int = 0


class CoreUarchState:
    """The cache + predictor pair of one core, with disturbance accounting."""

    def __init__(self, config: UarchConfig, rng: Random):
        self.config = config
        self.l1d = config.make_cache()
        self.predictor = config.make_predictor()
        self._rng = rng

    # ------------------------------------------------------------------
    # Stream execution
    # ------------------------------------------------------------------
    def run_user_window(
        self,
        owner: str,
        addr_spec: AddressStreamSpec,
        branch_spec: BranchStreamSpec,
        accesses: int,
        branches: int,
    ) -> Tuple[int, int]:
        """Run a sampled user window; returns (misses, mispredicts)."""
        misses, mispredicts, _, _ = self._run_window(
            owner, addr_spec, branch_spec, accesses, branches
        )
        return misses, mispredicts

    def run_kernel_window(
        self,
        addr_spec: AddressStreamSpec,
        branch_spec: BranchStreamSpec,
        accesses: int,
        branches: int,
    ) -> Dict[str, Disturbance]:
        """Run a kernel handler's stream; returns per-victim disturbance.

        The handler's accesses evict whoever is resident; the returned map
        tells the core model how many lines/entries each *user* owner lost
        to this window, so the cost can be charged when that owner resumes.
        """
        _, _, victims, retrained = self._run_window(
            KERNEL_OWNER, addr_spec, branch_spec, accesses, branches
        )
        disturbances: Dict[str, Disturbance] = {}
        for victim, count in victims.items():
            if victim != KERNEL_OWNER:
                disturbances[victim] = Disturbance(lines_evicted=count)
        for victim, count in retrained.items():
            if victim != KERNEL_OWNER:
                disturbances.setdefault(victim, Disturbance()).entries_retrained = count
        return disturbances

    def _run_window(
        self,
        owner: str,
        addr_spec: AddressStreamSpec,
        branch_spec: BranchStreamSpec,
        accesses: int,
        branches: int,
    ) -> Tuple[int, int, Dict[str, int], Dict[str, int]]:
        """Push ``accesses`` sampled data accesses, then ``branches`` sampled
        branches, of ``owner`` through the cache and the predictor.

        Returns (misses, mispredicts, lines evicted per victim owner,
        predictor entries retrained per previous owner).

        This is the simulator's hottest loop, so it is one fused loop: the
        stream draws, :meth:`SetAssociativeCache.access` and
        :meth:`GShareBranchPredictor.execute` are inlined, and the window's
        tallies are folded into the stats once at the end.  The result is
        bit-for-bit that of calling those methods once per drawn access and
        branch: the same Mersenne Twister words in the same order, the same
        victims, the same counters.  A draw below n is
        ``Random._randbelow``'s rejection sampling on ``getrandbits(k)``
        with ``k = n.bit_length()``, written out to skip its Python frame.
        """
        rng = self._rng
        random = rng.random
        getrandbits = rng.getrandbits

        # Data accesses: a hot subset or the whole working set, then LRU.
        l1d = self.l1d
        sets, ways, num_sets, line_shift = l1d._sets, l1d.ways, l1d.num_sets, l1d._line_shift
        base, lines = addr_spec.base, addr_spec.lines
        hot_rate, line_size = addr_spec.hot_rate, addr_spec.line_size
        hot_lines = max(1, int(lines * addr_spec.hot_fraction))
        hot_bits, lines_bits = hot_lines.bit_length(), lines.bit_length()
        hits = 0
        victims: Dict[str, int] = {}
        for _ in range(accesses):
            if random() < hot_rate:
                line = getrandbits(hot_bits)
                while line >= hot_lines:
                    line = getrandbits(hot_bits)
            else:
                line = getrandbits(lines_bits)
                while line >= lines:
                    line = getrandbits(lines_bits)
            line = (base + line * line_size) >> line_shift
            cache_set = sets[line % num_sets]
            tag = line // num_sets
            resident = cache_set.pop(tag, None)
            if resident is not None:
                cache_set[tag] = resident
                hits += 1
                continue
            if len(cache_set) >= ways:
                victim = cache_set.pop(next(iter(cache_set)))
                victims[victim] = victims.get(victim, 0) + 1
            cache_set[tag] = owner
        misses = accesses - hits
        l1d.record_window(owner, hits, misses, victims)

        # Branches: a site, then its majority direction with probability bias.
        predictor = self.predictor
        table, owners, table_size = predictor._table, predictor._owners, predictor.table_size
        history, history_mask = predictor._history, predictor._history_mask
        # (base_pc + 4 * site) >> 2 == (base_pc >> 2) + site, exactly.
        pc_index, sites, bias = branch_spec.base_pc >> 2, branch_spec.sites, branch_spec.bias
        sites_bits = sites.bit_length()
        mispredicts = 0
        retrained: Dict[str, int] = {}
        for _ in range(branches):
            site = getrandbits(sites_bits)
            while site >= sites:
                site = getrandbits(sites_bits)
            # The majority direction is taken for even sites.
            taken = (random() < bias) == (not (site & 1))
            index = ((pc_index + site) ^ history) % table_size
            counter = table[index]  # 2-bit: 0-1 predict not taken, 2-3 taken
            if taken:
                if counter < 2:
                    mispredicts += 1
                if counter < 3:
                    table[index] = counter + 1
            else:
                if counter >= 2:
                    mispredicts += 1
                if counter:
                    table[index] = counter - 1
            previous_owner = owners[index]
            if previous_owner != owner:
                if previous_owner is not None:
                    retrained[previous_owner] = retrained.get(previous_owner, 0) + 1
                owners[index] = owner
            if history_mask:
                history = ((history << 1) | taken) & history_mask
        predictor._history = history
        predictor.record_window(owner, branches, mispredicts, retrained)
        return misses, mispredicts, victims, retrained

    # ------------------------------------------------------------------
    # Sleep-state interaction
    # ------------------------------------------------------------------
    def flush_for_deep_sleep(self) -> int:
        """CC6 entry flushes the cache (its amortization cost in the paper)."""
        return self.l1d.flush()


def measure_steady_state(
    addr_spec: AddressStreamSpec,
    branch_spec: BranchStreamSpec,
    config: UarchConfig,
    seed: int = 12345,
    warmup_accesses: int = 8192,
    sample_accesses: int = 8192,
) -> Tuple[float, float]:
    """Measure a profile's solo steady-state miss and mispredict rates.

    Runs the profile alone on fresh structures: warm up, then measure.
    Used once per workload profile (results are cached by the caller) to
    derive the *baseline* CPI against which interference is charged.
    """
    state = CoreUarchState(config, Random(seed))
    owner = "probe"
    # Warm-up phase.
    state.run_user_window(owner, addr_spec, branch_spec, warmup_accesses, warmup_accesses // 2)
    state.l1d.stats.reset()
    state.predictor.stats.reset()
    # Measurement phase.
    state.run_user_window(owner, addr_spec, branch_spec, sample_accesses, sample_accesses // 2)
    miss_rate = state.l1d.stats.miss_rate(owner)
    mispredict_rate = state.predictor.stats.mispredict_rate(owner)
    return miss_rate, mispredict_rate
