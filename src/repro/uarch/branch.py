"""A gshare dynamic branch predictor with owner-disturbance tracking.

The predictor is a table of 2-bit saturating counters indexed by
``PC xor global-history``.  Entries remember which owner last trained them,
so when a kernel SSR handler's branches retrain entries that a user thread
had warmed up, the disturbance is counted — this drives the paper's
Figure 5b (branch misprediction increase from GPU SSRs).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional


#: 2-bit saturating counter states.
STRONG_NOT_TAKEN, WEAK_NOT_TAKEN, WEAK_TAKEN, STRONG_TAKEN = 0, 1, 2, 3


class BranchStats:
    """Per-owner prediction accounting."""

    __slots__ = ("predictions", "mispredictions", "entries_disturbed")

    def __init__(self):
        self.predictions: Counter = Counter()
        self.mispredictions: Counter = Counter()
        #: entries_disturbed[(a, b)] = predictor entries trained by b that a
        #: subsequently retrained (ownership change).
        self.entries_disturbed: Counter = Counter()

    def reset(self) -> None:
        self.predictions.clear()
        self.mispredictions.clear()
        self.entries_disturbed.clear()

    def mispredict_rate(self, owner: str) -> float:
        total = self.predictions[owner]
        return self.mispredictions[owner] / total if total else 0.0


class GShareBranchPredictor:
    """gshare: global history XOR PC indexes a 2-bit counter table."""

    def __init__(self, table_size: int = 1024, history_bits: int = 8):
        if table_size < 2 or (table_size & (table_size - 1)) != 0:
            raise ValueError(f"table_size must be a power of two >= 2, got {table_size}")
        if not 0 <= history_bits <= 30:
            raise ValueError(f"history_bits out of range: {history_bits}")
        self.table_size = table_size
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._table: List[int] = [WEAK_NOT_TAKEN] * table_size
        self._owners: List[Optional[str]] = [None] * table_size
        self._history = 0
        self.stats = BranchStats()

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) % self.table_size

    def execute(self, pc: int, taken: bool, owner: str) -> bool:
        """Predict and train on one branch; returns True if predicted right."""
        history = self._history
        index = ((pc >> 2) ^ history) % self.table_size
        table = self._table
        counter = table[index]
        prediction = counter >= WEAK_TAKEN
        correct = prediction == taken

        stats = self.stats
        stats.predictions[owner] += 1
        if not correct:
            stats.mispredictions[owner] += 1

        # Train the 2-bit counter.
        if taken:
            if counter < STRONG_TAKEN:
                table[index] = counter + 1
        elif counter > STRONG_NOT_TAKEN:
            table[index] = counter - 1

        owners = self._owners
        previous_owner = owners[index]
        if previous_owner is not None and previous_owner != owner:
            stats.entries_disturbed[(owner, previous_owner)] += 1
        owners[index] = owner

        # Update global history.
        self._history = ((history << 1) | int(taken)) & self._history_mask
        return correct

    def record_window(
        self, owner: str, predictions: int, mispredictions: int, retrained: Dict[str, int]
    ) -> None:
        """Fold one window's tallies into :attr:`stats`.

        ``retrained`` maps each previous owner of an entry the window took
        over to how many such entries it lost, in first-retrain order.  The
        result equals ``predictions`` calls of :meth:`execute` by ``owner``
        with those outcomes; :class:`~repro.uarch.state.CoreUarchState`
        runs whole windows through a fused copy of that method.
        """
        stats = self.stats
        if predictions:
            stats.predictions[owner] += predictions
        if mispredictions:
            stats.mispredictions[owner] += mispredictions
        for previous_owner, count in retrained.items():
            stats.entries_disturbed[(owner, previous_owner)] += count

    def owned_entries(self, owner: str) -> int:
        """Number of table entries last trained by ``owner``."""
        return sum(1 for entry_owner in self._owners if entry_owner == owner)

    def reset_state(self) -> None:
        """Forget all training (e.g., deep sleep with state loss)."""
        for i in range(self.table_size):
            self._table[i] = WEAK_NOT_TAKEN
            self._owners[i] = None
        self._history = 0
