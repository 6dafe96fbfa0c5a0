"""Per-access reference model of :class:`repro.uarch.CoreUarchState`.

``CoreUarchState`` runs each window through one fused loop.  This module
keeps the unfused form it must equal bit for bit: stream generators that
draw through ``Random._randbelow``, fed one access at a time into
:meth:`SetAssociativeCache.access` and :meth:`GShareBranchPredictor.execute`.
"""

from __future__ import annotations

from random import Random
from typing import Iterator, Tuple

from repro.uarch import KERNEL_OWNER, AddressStreamSpec, BranchStreamSpec, UarchConfig


def generate_addresses(spec: AddressStreamSpec, count: int, rng: Random) -> Iterator[int]:
    """Yield ``count`` byte addresses drawn from ``spec``'s distribution."""
    hot_lines = max(1, int(spec.lines * spec.hot_fraction))
    for _ in range(count):
        if rng.random() < spec.hot_rate:
            line = rng._randbelow(hot_lines)
        else:
            line = rng._randbelow(spec.lines)
        yield spec.base + line * spec.line_size


def generate_branches(
    spec: BranchStreamSpec, count: int, rng: Random
) -> Iterator[Tuple[int, bool]]:
    """Yield ``count`` ``(pc, taken)`` pairs drawn from ``spec``."""
    for _ in range(count):
        site = rng._randbelow(spec.sites)
        majority = (site & 1) == 0
        taken = majority if rng.random() < spec.bias else not majority
        yield spec.base_pc + site * 4, taken


class ReferenceUarchState:
    """``CoreUarchState``'s window API, one access and one branch at a time."""

    def __init__(self, config: UarchConfig, rng: Random):
        self.l1d = config.make_cache()
        self.predictor = config.make_predictor()
        self._rng = rng

    def run_user_window(self, owner, addr_spec, branch_spec, accesses, branches):
        misses = sum(
            not self.l1d.access(address, owner)
            for address in generate_addresses(addr_spec, accesses, self._rng)
        )
        mispredicts = sum(
            not self.predictor.execute(pc, taken, owner)
            for pc, taken in generate_branches(branch_spec, branches, self._rng)
        )
        return misses, mispredicts

    def run_kernel_window(self, addr_spec, branch_spec, accesses, branches):
        self.run_user_window(KERNEL_OWNER, addr_spec, branch_spec, accesses, branches)

    def flush_for_deep_sleep(self) -> int:
        return self.l1d.flush()
