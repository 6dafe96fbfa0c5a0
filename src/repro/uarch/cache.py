"""A set-associative, LRU cache model with per-owner hit/miss counters.

User threads and kernel SSR handlers share one cache per core, so a
handler's accesses really replace a thread's lines and the thread's next
sampled window really misses on them.  That is how the hit/miss counters
behind the paper's Figure 5a measure the "indirect overhead" (Section II-D,
segment *b* of Figure 2): eviction here is real replacement in a real cache
structure.  Which owner evicted whom is not tracked; the performance charge
of pollution is analytic (see ``Core._run_kernel_window``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple


class CacheStats:
    """Per-owner hit/miss accounting."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()

    def reset(self) -> None:
        self.hits.clear()
        self.misses.clear()

    def miss_rate(self, owner: str) -> float:
        """Miss rate for ``owner`` over everything recorded so far."""
        total = self.hits[owner] + self.misses[owner]
        return self.misses[owner] / total if total else 0.0


class SetAssociativeCache:
    """A classic set-associative cache with true-LRU replacement.

    Addresses are byte addresses; ``line_size`` must be a power of two.
    The cache is deliberately small relative to a real 32 KiB L1 so that
    scaled-down synthetic working sets exercise realistic contention.
    """

    def __init__(self, num_sets: int = 64, ways: int = 8, line_size: int = 64):
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be >= 1")
        if line_size < 1 or (line_size & (line_size - 1)) != 0:
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        # Each set holds its resident tags in LRU order: the first key is
        # the least recently used line, and a hit moves its tag to the end.
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(num_sets)]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def total_lines(self) -> int:
        """Capacity of the cache in lines."""
        return self.num_sets * self.ways

    @property
    def size_bytes(self) -> int:
        """Capacity of the cache in bytes."""
        return self.total_lines * self.line_size

    def locate(self, address: int) -> Tuple[Dict[int, bool], int]:
        """The set that holds ``address`` and the line's tag within it."""
        line = address >> self._line_shift
        return self._sets[line % self.num_sets], line // self.num_sets

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def access(self, address: int, owner: str) -> bool:
        """Access ``address`` on behalf of ``owner``; returns True on a hit.

        On a miss the line is installed with LRU replacement.
        :class:`~repro.uarch.state.CoreUarchState` runs whole windows
        through a fused copy of this method and folds their counts in once
        per window.
        """
        cache_set, tag = self.locate(address)
        hit = tag in cache_set
        if hit:
            del cache_set[tag]
            self.stats.hits[owner] += 1
        else:
            self.stats.misses[owner] += 1
            if len(cache_set) >= self.ways:
                del cache_set[next(iter(cache_set))]
        cache_set[tag] = True
        return hit

    def resident_lines(self) -> int:
        """Number of valid lines in the cache."""
        return sum(len(cache_set) for cache_set in self._sets)

    def flush(self) -> int:
        """Invalidate everything (e.g., on CC6 entry); returns lines dropped."""
        dropped = self.resident_lines()
        for cache_set in self._sets:
            cache_set.clear()
        return dropped
