"""Synthetic memory-address and branch stream specifications.

Workload profiles (see :mod:`repro.workloads.profiles`) are rendered into
streams of cache-line addresses and branch outcomes.  The streams are
statistical stand-ins for the real applications' traces: a working set with
a hot subset (temporal locality) plus per-site branch biases
(predictability).  :meth:`repro.uarch.state.CoreUarchState._run_window`
draws them, deterministically for a given RNG:

* an access lands in the hot subset (the first
  ``max(1, int(lines * hot_fraction))`` lines) with probability
  ``hot_rate``, else anywhere in the working set, uniformly;
* a branch picks a site uniformly and follows the site's majority
  direction (taken for even sites) with probability ``bias``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AddressStreamSpec:
    """Statistical description of a data-access stream.

    Attributes:
        base: Byte address where this owner's working set starts.  Distinct
            owners use distinct bases so their lines never alias as "shared".
        lines: Working-set size, in cache lines.
        hot_fraction: Fraction of the working set that is "hot".
        hot_rate: Probability that an access lands in the hot subset.
        line_size: Bytes per cache line (must match the cache being driven).
    """

    base: int
    lines: int
    hot_fraction: float = 0.2
    hot_rate: float = 0.8
    line_size: int = 64

    def __post_init__(self):
        if self.lines < 1:
            raise ValueError(f"lines must be >= 1, got {self.lines}")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction out of (0, 1]: {self.hot_fraction}")
        if not 0.0 <= self.hot_rate <= 1.0:
            raise ValueError(f"hot_rate out of [0, 1]: {self.hot_rate}")


@dataclass(frozen=True)
class BranchStreamSpec:
    """Statistical description of a branch stream.

    Attributes:
        base_pc: Program-counter base (keeps owners in distinct PC regions).
        sites: Number of static branch sites.
        bias: Probability a branch follows its site's majority direction.
            Values near 1.0 are highly predictable.
    """

    base_pc: int
    sites: int
    bias: float = 0.9

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError(f"sites must be >= 1, got {self.sites}")
        if not 0.5 <= self.bias <= 1.0:
            raise ValueError(f"bias must be in [0.5, 1.0], got {self.bias}")
