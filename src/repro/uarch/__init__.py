"""Microarchitecture models: an LRU L1D cache and a gshare predictor.

These structures are *shared* between user threads and kernel SSR handlers
running on the same core, so interference (line eviction, predictor
retraining) is mechanistic rather than assumed.  They drive the paper's
Figure 5 (microarchitectural effects of GPU SSRs).
"""

from .branch import BranchStats, GShareBranchPredictor
from .cache import CacheStats, SetAssociativeCache
from .state import (
    CoreUarchState,
    KERNEL_OWNER,
    UarchConfig,
    measure_steady_state,
)
from .streams import AddressStreamSpec, BranchStreamSpec

__all__ = [
    "AddressStreamSpec",
    "BranchStats",
    "BranchStreamSpec",
    "CacheStats",
    "CoreUarchState",
    "GShareBranchPredictor",
    "KERNEL_OWNER",
    "SetAssociativeCache",
    "UarchConfig",
    "measure_steady_state",
]
