"""Compare two benchmark results files, workload by workload, layer by layer.

Write the files with ``perfbench/run.py --save FILE`` (one call per
workload and trace mode merges into the same file), then::

    python3 perfbench/compare.py OLD.json NEW.json

Each row shows old -> new and the relative change.  An exact per-layer
count (see ``perfbench/metrics.py``) that differs is flagged
``BEHAVIOUR``: a speed-only change must leave every one identical.
Timing movement is shown separately from it.  The exit status is 1
when any exact count changed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.metrics import EXACT, UNITS  # noqa: E402


def _delta(old, new) -> str:
    if old is None or new is None:
        return "n/a"
    if old == new:
        return "="
    if old == 0:
        return "new"
    return f"{100.0 * (new - old) / abs(old):+.1f}%"


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def compare(old: dict, new: dict, out=sys.stdout) -> int:
    """Print the delta tables; returns how many exact counts changed."""
    changed = 0
    workloads = sorted(set(old.get("workloads", {})) | set(new.get("workloads", {})))
    for workload in workloads:
        before = old.get("workloads", {}).get(workload, {})
        after = new.get("workloads", {}).get(workload, {})
        print(f"== {workload}", file=out)
        for section in ("end_to_end", "per_layer"):
            names = sorted(set(before.get(section, {})) | set(after.get(section, {})))
            if not names:
                continue
            print(f"-- {section}", file=out)
            layer = None
            for name in names:
                if section == "per_layer" and name.split(".")[0] != layer:
                    layer = name.split(".")[0]
                    print(f"   [{layer}]", file=out)
                a = before.get(section, {}).get(name)
                b = after.get(section, {}).get(name)
                flag = ""
                if section == "per_layer" and name in EXACT and a != b:
                    flag = "  BEHAVIOUR"
                    changed += 1
                print(
                    f"   {name:<28} {_fmt(a):>14} -> {_fmt(b):>14} "
                    f"{UNITS.get(name, ''):<6} {_delta(a, b):>8}{flag}",
                    file=out,
                )
    print(f"{changed} exact count(s) changed", file=out)
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return 1 if compare(*documents) else 0


if __name__ == "__main__":
    sys.exit(main())
