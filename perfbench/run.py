"""Run one benchmark workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload grid_cold --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve_warm --seed 42 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no tracing installed;
its timings are normalised by host speed (``perfbench/hostclock.py``).
``--trace 1`` runs a fixed amount of the workload's work twice, traced
then untraced, and prints the per-layer metrics, each layer's share of
self time and the tracing overhead; the two passes must agree on their
simulated-statistics digest.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--save FILE`` also merges the metrics into a results file that
``perfbench/compare.py OLD NEW`` compares.  Scratch files live under
``.perfbench_work/`` in the current directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import layers, metrics as metric_defs, workloads  # noqa: E402
from perfbench.hostclock import HostClock, reference_seconds  # noqa: E402

#: Set-up is repeated this many times per untraced run (once in this
#: process, the rest in fresh interpreters); setup_s is their median.
SETUP_SAMPLES = 3


def vm_hwm_mb(pid) -> float:
    """Peak resident set of one process in MB (Linux ``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of every live child (pool workers)."""
    own = vm_hwm_mb("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(vm_hwm_mb(child.pid) for child in multiprocessing.active_children())


def stop_resource_tracker() -> None:
    """Stop, and wait for, the semaphore tracker that spawn pools start.

    multiprocessing starts it implicitly and would leave it to exit on
    its own after this process; the benchmark waits for every process it
    caused.  The pools' queues are collected first so none is still
    registered with it.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    resource_tracker._resource_tracker._stop()


def timed_setup(args):
    """Import the program and set the workload up; returns the workload
    and the set-up time in reference seconds (hostclock.py), timed from
    before the program is imported.  The caller closes the workload."""
    clock = HostClock()
    before = clock.probe()
    start = time.perf_counter()
    workloads.import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, tiny=args.tiny)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    wall = time.perf_counter() - start
    return workload, reference_seconds(wall, before, clock.probe())


def setup_probe(args) -> float:
    """One set-up in this process, closed again at once."""
    workload, setup_s = timed_setup(args)
    workload.close()
    return setup_s


def probe_in_subprocess(args) -> float:
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--scale", "tiny"] if args.tiny else [])
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=150, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(result, setup_s: float, rss_mb: float) -> dict:
    latencies_ms = [1e3 * value for value in result.latencies_s]
    wall = result.wall_s
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "sim_ms_per_s": result.sim_ms / wall,
        "evals_per_s": result.evaluations / wall,
        "job_p50_ms": statistics.median(latencies_ms),
        "job_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1]
        if len(latencies_ms) > 1 else latencies_ms[0],
        "jobs_per_s": result.jobs / wall,
        "paper_err_pts": workloads.paper_error(result.paper),
    }


def per_layer(setup_snap: dict, snap: dict, result, overhead: float, pool_stats) -> dict:
    self_s, incl_s = snap["self_s"], snap["incl_s"]
    counts, times = snap["counts"], snap["times"]

    def own(layer):
        return sum(v for k, v in self_s.items() if k == layer or k.startswith(layer + "."))

    def ratio(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    count = lambda name: counts.get(name, 0)  # noqa: E731
    out = {
        "sim.self_s": own("sim"),
        "sim.events": count("sim.events"),
        "sim.ns_per_event": ratio(own("sim"), count("sim.events"), 1e9),
        "uarch.self_s": own("uarch"),
        "uarch.ns_per_access": ratio(own("uarch"), count("uarch.accesses"), 1e9),
        "oskernel.self_s": own("oskernel"),
        "iommu.self_s": own("iommu"),
        "iommu.requests_per_drain": ratio(count("iommu.drained"), count("iommu.drains")),
        "gpu.stall_ms": count("gpu.stall_ns") / 1e6,
        # Calibration happens during set-up (and in fresh pool workers).
        "workloads.calibration_s": setup_snap["incl_s"].get("workloads.calibration", 0.0)
        + incl_s.get("workloads.calibration", 0.0),
        "core.build_s": own("core.build"),
        "core.collect_s": own("core.collect"),
        "runcache.hit_ratio": ratio(count("runcache.hits"), count("runcache.lookups")),
        "runcache.put_s": own("runcache.put"),
        "runcache.get_s": own("runcache.get"),
        "planner.plan_s": incl_s.get("planner.plan", 0.0),
        "pool.batch_s": incl_s.get("pool.batch", 0.0),
        "pool.busy_fraction": ratio(times.get("pool.task_s", 0.0), times.get("pool.worker_s", 0.0)),
        "pool.spawned_workers": int(pool_stats.get("spawned_workers", 0)),
        "pool.warm_hit_ratio": pool_stats.get("warm_hit_ratio", 0.0),
        "pool.crashes": int(pool_stats.get("crashed_workers", 0)),
        "experiments.harness_s": own("experiments"),
        "search.sampler_s": own("search.sampler"),
        "trace.overhead": overhead,
    }
    for name in ("submit_ms", "queue_ms", "batch_ms", "render_ms", "http_ms",
                 "refused", "dedupe_hits"):
        out["service." + name] = result.service.get(name, 0)
    shares = layers.layer_shares(self_s)
    for layer in metric_defs.SHARE_LAYERS:
        out["share." + layer] = shares.get(layer, 0.0)
    # Everything else is a plain count, reported in the declared order.
    return {name: out.get(name, count(name)) for name, _unit, _better in metric_defs.PER_LAYER}


def report_line(correct, attempted, failed, values) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metric_defs.UNITS[name]}
            for name, value in values.items()
        },
    })


def print_table(title, values):
    print(f"-- {title}")
    for name, value in values.items():
        print(f"   {name:<28} {value:>16.6g} {metric_defs.UNITS.get(name, '')}")


def run_untraced(args):
    workload, setup_s = timed_setup(args)
    try:
        setups = [setup_s]
        setups += [probe_in_subprocess(args) for _ in range(SETUP_SAMPLES - 1)]
        result = workload.run_pass(args.seconds)
        rss = peak_rss_mb()
    finally:
        workload.close()
    values = end_to_end(result, statistics.median(setups), rss)
    print(f"perfbench {args.workload} seed {args.seed}: {result.jobs} jobs, "
          f"{result.evaluations} evaluations in {result.wall_s:.2f} reference s; "
          f"set-ups {', '.join(f'{s:.3f}s' for s in setups)}")
    factors = workload.clock.factors
    print(f"perfbench host slowness over {len(factors)} probes: median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f}-{max(factors):.3f}; "
          f"wall {result.raw_wall_s:.3f}s")
    print_table("paper error components (measured)", result.paper)
    return result, values


def run_traced(args):
    workloads.import_program()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.workdir, tiny=args.tiny, traced=True
    )
    tracer = layers.LayerTracer()
    try:
        tracer.install()
        workload.setup()
        setup_snap = tracer.snapshot()
        # Close set-up's finished runs now: a closing thread generator
        # calls Core.dispatch, which would land in the pass's counts.
        gc.collect()
        tracer.reset()
        traced = workload.run_pass(None, traced=True)
        # Likewise close the pass's own finished runs inside the window,
        # so the counts do not depend on when the collector would run.
        gc.collect()
        snap = tracer.snapshot()
        pool = getattr(workload, "active_pool", None)
        pool_stats = pool.stats_document() if pool is not None else {}
        tracer.uninstall()
        workload.fill()
        gc.collect()  # as before the traced pass
        untraced = workload.run_pass(None)
    finally:
        tracer.uninstall()
        workload.close()
    # Plain wall time: the traced pool's workers do not probe the host.
    overhead = traced.raw_wall_s / untraced.raw_wall_s if untraced.raw_wall_s else 0.0
    print(f"perfbench {args.workload} seed {args.seed} traced pass: "
          f"{traced.raw_wall_s:.3f}s traced, {untraced.raw_wall_s:.3f}s untraced")
    print(f"perfbench digest traced {traced.digest} untraced {untraced.digest}")
    combined = workloads.PassResult(
        attempted=traced.attempted + untraced.attempted + 1,
        failures=traced.failures + untraced.failures,
    )
    if traced.digest != untraced.digest:
        combined.fail("tracing changed the simulated-statistics digest")
    values = per_layer(setup_snap, snap, traced, overhead, pool_stats)
    return combined, values


def save(path, workload, trace, values):
    document = {"workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    section = "per_layer" if trace else "end_to_end"
    document["workloads"].setdefault(workload, {})[section] = values
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke size (self-test only)")
    parser.add_argument("--save", metavar="FILE", help="merge the metrics into FILE")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.tiny = args.scale == "tiny"
    args.workdir = os.path.join(os.getcwd(), ".perfbench_work", str(os.getpid()))
    os.makedirs(args.workdir)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args)}))
            return 0
        if args.trace:
            result, values = run_traced(args)
            print_table("per-layer metrics (traced pass)", values)
        else:
            result, values = run_untraced(args)
            print_table("end-to-end metrics", values)
    finally:
        stop_resource_tracker()
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(args.workdir))
        except OSError:
            pass
    for failure in result.failures:
        print(f"FAILED: {failure}")
    if args.save:
        save(args.save, args.workload, args.trace, values)
    failed = len(result.failures)
    print(report_line(failed == 0, max(1, result.attempted), failed, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
