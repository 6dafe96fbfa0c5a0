"""A set-associative, LRU, owner-tagged cache model.

Lines are tagged with an *owner* string (a user thread name or ``"kernel"``).
This lets the interference machinery measure exactly how many of a user
thread's lines a kernel SSR handler evicted — the paper's "indirect
overhead" (Section II-D, segment *b* of Figure 2) — without any statistical
hand-waving: eviction here is real replacement in a real cache structure.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List


class CacheStats:
    """Per-owner hit/miss/eviction accounting."""

    __slots__ = ("hits", "misses", "evictions_suffered", "evictions_caused")

    def __init__(self):
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        #: evictions_suffered[x] = lines owned by x that someone evicted
        self.evictions_suffered: Counter = Counter()
        #: evictions_caused[(a, b)] = lines of b evicted by accesses from a
        self.evictions_caused: Counter = Counter()

    def reset(self) -> None:
        self.hits.clear()
        self.misses.clear()
        self.evictions_suffered.clear()
        self.evictions_caused.clear()

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
        # Each set maps tag -> owner in LRU order: the first key is the
        # least recently used line, and a hit moves its tag to the end.
        self._sets: List[Dict[int, str]] = [dict() for _ in range(num_sets)]
        self._occupancy: Counter = Counter()
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

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def access(self, address: int, owner: str) -> bool:
        """Access ``address`` on behalf of ``owner``; returns True on a hit.

        On a miss the line is installed with LRU replacement; if a victim
        belonging to a *different* owner is evicted, the disturbance is
        recorded in :attr:`stats`.  :class:`~repro.uarch.state.CoreUarchState`
        runs whole windows through a fused copy of this method and folds
        their tallies in with :meth:`record_window`.
        """
        line = address >> self._line_shift
        num_sets = self.num_sets
        cache_set = self._sets[line % num_sets]
        tag = line // num_sets
        stats = self.stats
        # A hit keeps the line's owner (shared address space is not
        # modeled; same tag => same owner in practice).
        resident = cache_set.pop(tag, None)
        if resident is not None:
            cache_set[tag] = resident
            stats.hits[owner] += 1
            return True

        stats.misses[owner] += 1
        if len(cache_set) >= self.ways:
            victim_owner = cache_set.pop(next(iter(cache_set)))
            self._occupancy[victim_owner] -= 1
            stats.evictions_suffered[victim_owner] += 1
            stats.evictions_caused[(owner, victim_owner)] += 1
        cache_set[tag] = owner
        self._occupancy[owner] += 1
        return False

    def record_window(
        self, owner: str, hits: int, misses: int, victims: Dict[str, int]
    ) -> None:
        """Fold one window's tallies into :attr:`stats` and the occupancy.

        ``victims`` maps each evicted line's owner to its eviction count,
        in first-eviction order.  The result equals ``hits + misses`` calls
        of :meth:`access` by ``owner`` with those outcomes.
        """
        stats = self.stats
        occupancy = self._occupancy
        if hits:
            stats.hits[owner] += hits
        if misses:
            stats.misses[owner] += misses
            occupancy[owner] += misses
        for victim, count in victims.items():
            occupancy[victim] -= count
            stats.evictions_suffered[victim] += count
            stats.evictions_caused[(owner, victim)] += count

    def occupancy(self, owner: str) -> int:
        """Number of lines currently owned by ``owner``."""
        return self._occupancy[owner]

    def resident_owners(self) -> Dict[str, int]:
        """Snapshot of line counts per owner (non-zero entries only)."""
        return {o: n for o, n in self._occupancy.items() if n > 0}

    def flush(self) -> int:
        """Invalidate everything (e.g., on CC6 entry); returns lines dropped."""
        dropped = sum(self._occupancy.values())
        for cache_set in self._sets:
            cache_set.clear()
        self._occupancy.clear()
        return dropped

    def evict_owner(self, owner: str) -> int:
        """Invalidate all lines of one owner (e.g., on thread exit)."""
        dropped = 0
        for cache_set in self._sets:
            doomed = [tag for tag, line_owner in cache_set.items() if line_owner == owner]
            for tag in doomed:
                del cache_set[tag]
                dropped += 1
        if dropped:
            self._occupancy[owner] -= dropped
        return dropped
