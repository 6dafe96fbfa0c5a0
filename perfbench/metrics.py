"""Metric definitions shared by the runner, the comparer and the self-test.

They are read from ``BENCHMARK.json`` at the repository root, the one
place that lists each metric's name, unit and direction.  Each entry is
``(name, unit, better)``.  The per-layer counts, and the ratios and
simulated times derived from them, are exact: they depend only on the
seed and the simulated behaviour, never on host speed, so any change in
them is a behaviour change.
"""

import json
import os

with open(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"),
    encoding="utf-8",
) as _handle:
    _SPEC = json.load(_handle)

END_TO_END, PER_LAYER = (
    tuple((m["name"], m["unit"], m["better"]) for m in _SPEC[section])
    for section in ("end_to_end", "per_layer")
)

WORKLOADS = tuple(workload["name"] for workload in _SPEC["workloads"])

#: Layers reported in the self-time shares (layer id prefixes).
SHARE_LAYERS = tuple(
    name[len("share."):] for name, _unit, _better in PER_LAYER if name.startswith("share.")
)

UNITS = {name: unit for name, unit, _better in END_TO_END + PER_LAYER}

EXACT = frozenset(
    [name for name, unit, _better in PER_LAYER if unit == "count"]
    + ["iommu.requests_per_drain", "runcache.hit_ratio", "gpu.stall_ms"]
)
