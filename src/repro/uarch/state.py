"""Per-core microarchitectural state and the pollution API.

Each simulated CPU core owns a :class:`CoreUarchState`: an L1D cache model
and a branch predictor.  User threads and kernel SSR handlers push their
(sampled) streams through these *shared* structures, so kernel handlers
genuinely evict user lines and retrain user predictor entries, and the
users' measured miss and mispredict rates (Figure 5) rise mechanistically.
Nothing records which owner disturbed which: the stall cycles charged to
an interrupted thread are analytic (see ``Core._run_kernel_window``).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Tuple

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


class CoreUarchState:
    """The cache + predictor pair of one core and the windows run on it."""

    def __init__(self, config: UarchConfig, rng: Random):
        self.config = config
        self.l1d = config.make_cache()
        self.predictor = config.make_predictor()
        self._rng = rng
        # Index tables per stream spec, built on a spec's first window and
        # dropped by drop_tables().  Lines: a tuple of cache sets and a
        # tuple of tags, both indexed by the drawn line (half the memory of
        # a (set, tag) pair per line).  Sites: the predictor index before
        # the history XOR.
        self._line_slots: Dict[
            AddressStreamSpec, Tuple[Tuple[Dict[int, bool], ...], Tuple[int, ...]]
        ] = {}
        self._site_indices: Dict[BranchStreamSpec, List[int]] = {}

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
        return self._run_window(owner, addr_spec, branch_spec, accesses, branches)

    def run_kernel_window(
        self,
        addr_spec: AddressStreamSpec,
        branch_spec: BranchStreamSpec,
        accesses: int,
        branches: int,
    ) -> None:
        """Run a kernel handler's stream through the shared structures.

        The handler's accesses evict whatever is resident and its branches
        retrain shared predictor entries; user threads see that in the
        misses and mispredicts of their next sampled windows.
        """
        self._run_window(KERNEL_OWNER, addr_spec, branch_spec, accesses, branches)

    def drop_tables(self) -> None:
        """Release the per-spec index tables (they rebuild on next use)."""
        self._line_slots.clear()
        self._site_indices.clear()

    def _run_window(
        self,
        owner: str,
        addr_spec: AddressStreamSpec,
        branch_spec: BranchStreamSpec,
        accesses: int,
        branches: int,
    ) -> Tuple[int, int]:
        """Push ``accesses`` sampled data accesses, then ``branches`` sampled
        branches, of ``owner`` through the cache and the predictor.

        Returns (misses, mispredicts).

        This is the simulator's hottest loop, so it is one fused loop: the
        stream draws, :meth:`SetAssociativeCache.access` and
        :meth:`GShareBranchPredictor.execute` are inlined, and the window's
        counts are folded into the stats once at the end.  The result is
        bit-for-bit that of calling those methods once per drawn access and
        branch: the same Mersenne Twister words in the same order, the same
        LRU order, the same counters.  A draw below n is
        ``Random._randbelow``'s rejection sampling on ``getrandbits(k)``
        with ``k = n.bit_length()``, written out to skip its Python frame.
        A drawn line or site is looked up in a per-spec table instead of
        recomputing its address, set, tag or predictor index.
        """
        rng = self._rng
        random = rng.random
        getrandbits = rng.getrandbits

        # Data accesses: a hot subset or the whole working set, then LRU.
        l1d = self.l1d
        ways = l1d.ways
        lines = addr_spec.lines
        slots = self._line_slots.get(addr_spec)
        if slots is None:
            locate, base, line_size = l1d.locate, addr_spec.base, addr_spec.line_size
            slots = tuple(zip(*[locate(base + line * line_size) for line in range(lines)]))
            self._line_slots[addr_spec] = slots
        set_of, tag_of = slots
        hot_rate = addr_spec.hot_rate
        hot_lines = max(1, int(lines * addr_spec.hot_fraction))
        hot_bits, lines_bits = hot_lines.bit_length(), lines.bit_length()
        misses = 0
        for _ in range(accesses):
            if random() < hot_rate:
                line = getrandbits(hot_bits)
                while line >= hot_lines:
                    line = getrandbits(hot_bits)
            else:
                line = getrandbits(lines_bits)
                while line >= lines:
                    line = getrandbits(lines_bits)
            cache_set = set_of[line]
            tag = tag_of[line]
            if tag in cache_set:
                del cache_set[tag]
            else:
                misses += 1
                if len(cache_set) >= ways:
                    del cache_set[next(iter(cache_set))]
            cache_set[tag] = True
        hits = accesses - misses
        stats = l1d.stats
        if hits:
            stats.hits[owner] += hits
        if misses:
            stats.misses[owner] += misses

        # Branches: a site, then its majority direction with probability bias.
        predictor = self.predictor
        table, table_size = predictor._table, predictor.table_size
        history, history_mask = predictor._history, predictor._history_mask
        sites, bias = branch_spec.sites, branch_spec.bias
        site_indices = self._site_indices.get(branch_spec)
        if site_indices is None:
            # (base_pc + 4 * site) >> 2 == (base_pc >> 2) + site, exactly.
            pc_index = branch_spec.base_pc >> 2
            site_indices = [(pc_index + site) % table_size for site in range(sites)]
            self._site_indices[branch_spec] = site_indices
        # table_size is a power of two, so (i ^ h) % table_size equals
        # (i % table_size) ^ (h % table_size).
        index_mask = table_size - 1
        low_history = history & index_mask
        sites_bits = sites.bit_length()
        mispredicts = 0
        for _ in range(branches):
            site = getrandbits(sites_bits)
            while site >= sites:
                site = getrandbits(sites_bits)
            # The majority direction is taken for even sites.
            taken = (random() < bias) ^ (site & 1)
            index = site_indices[site] ^ low_history
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
            if history_mask:
                history = ((history << 1) | taken) & history_mask
                low_history = history & index_mask
        predictor._history = history
        stats = predictor.stats
        if branches:
            stats.predictions[owner] += branches
        if mispredicts:
            stats.mispredictions[owner] += mispredicts
        return misses, mispredicts

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
