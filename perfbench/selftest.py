"""Smoke test of the benchmark itself at a seconds-long size.

Run from the repository root (about two minutes on two cores)::

    python3 perfbench/selftest.py

For each workload it runs one untraced and two traced tiny runs and
asserts that every metric is printed with its unit, that no operation
failed, that the exact per-layer counts are identical across the two
traced runs (checked through ``compare.py``), and that tracing left the
simulated-statistics digest unchanged.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import metrics as metric_defs  # noqa: E402
from perfbench.compare import compare  # noqa: E402

DIGEST = re.compile(r"^perfbench digest traced (\w+) untraced (\w+)$", re.M)


def run(workload: str, trace: int, save: str):
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--scale", "tiny", "--save", save,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, f"{' '.join(command)} failed:\n{done.stderr}"
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}, report.keys()
    assert report["correct"] and report["failed"] == 0, done.stdout
    assert report["attempted"] >= 1
    return report, done.stdout


def check_metrics(report: dict, expected) -> None:
    printed = {name: entry["unit"] for name, entry in report["metrics"].items()}
    wanted = {name: unit for name, unit, _better in expected}
    assert printed == wanted, (sorted(set(printed) ^ set(wanted)), printed)


def main() -> int:
    scratch = os.path.join(os.getcwd(), ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    try:
        first, second = (os.path.join(scratch, f"run{i}.json") for i in (1, 2))
        for workload in metric_defs.WORKLOADS:
            report, _ = run(workload, 0, first)
            check_metrics(report, metric_defs.END_TO_END)
            for save in (first, second):
                report, stdout = run(workload, 1, save)
                check_metrics(report, metric_defs.PER_LAYER)
                traced, untraced = DIGEST.search(stdout).groups()
                assert traced == untraced, f"{workload}: tracing changed the digest"
            print(f"selftest {workload}: ok")
        with open(first, encoding="utf-8") as a, open(second, encoding="utf-8") as b:
            table = io.StringIO()
            changed = compare(json.load(a), json.load(b), out=table)
        assert changed == 0, "exact counts differ between traced runs:\n" + table.getvalue()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
