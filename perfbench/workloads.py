"""The benchmark's three workloads: grid_cold, serve_warm and sweep_pool.

Each workload is set up once (:meth:`setup`), then measured by
:meth:`run_pass`.  A pass either runs for a wall-clock budget (the
untraced end-to-end measurement) or does a fixed amount of work (the
traced pass and its untraced twin, whose work counts and result digests
must match exactly).  Each workload probes the host speed between units
of work and reports its times in reference seconds (``hostclock.py``).
Every pass returns a :class:`PassResult`; a failed
run, a refused or failed job, a wrong served document and a broken paper
shape are all counted in ``failures``.

Program calls go through module attributes (``experiment.run_workloads``,
not a name bound at import), so the layer tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import hostclock
from perfbench.hostclock import HostClock, reference_seconds

#: The five paper quantities behind ``paper_err_pts`` (EXPERIMENTS.md's
#: paper column): name -> paper value in percent or points.
PAPER_VALUES = {
    "fig3a_ubench_gmean_loss_pct": 28.0,
    "fig3a_x264_ubench_loss_pct": 44.0,
    "fig4_no_ssr_cc6_pct": 86.0,
    "fig4_ubench_cc6_pct": 12.0,
    "fig4_bfs_cc6_lost_pts": 14.0,
}


def import_program():
    """Import every program module the workloads and the tracer touch."""
    import repro.core.pool  # noqa: F401
    import repro.experiments  # noqa: F401  (fills the experiment registry)
    import repro.experiments.run_all  # noqa: F401
    import repro.search  # noqa: F401
    import repro.service  # noqa: F401


def calibrate():
    """Solo steady-state calibration of the quick-grid CPU profiles."""
    from repro.config import SystemConfig
    from repro.experiments.common import QUICK_CPU_NAMES
    from repro.workloads import calibration, parsec

    cpu = SystemConfig().cpu
    for name in QUICK_CPU_NAMES:
        calibration.steady_state_for(parsec(name), cpu)


def digest_of(document) -> str:
    rendered = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def paper_components(fig3a: dict, fig4: dict) -> Dict[str, float]:
    """The five paper quantities read off fig3a/fig4 result documents."""

    def cell(doc, row_label, column):
        index = doc["columns"].index(column)
        return next(row[index] for row in doc["rows"] if row[0] == row_label)

    return {
        "fig3a_ubench_gmean_loss_pct": 100.0 * (1.0 - cell(fig3a, "gmean", "ubench")),
        "fig3a_x264_ubench_loss_pct": 100.0 * (1.0 - cell(fig3a, "x264", "ubench")),
        "fig4_no_ssr_cc6_pct": cell(fig4, "ubench", "no_SSR"),
        "fig4_ubench_cc6_pct": cell(fig4, "ubench", "gpu_SSR"),
        "fig4_bfs_cc6_lost_pts": cell(fig4, "bfs", "lost_points"),
    }


def paper_error(components: Dict[str, float]) -> float:
    """Mean absolute error, in points, over the components present."""
    errors = [abs(value - PAPER_VALUES[name]) for name, value in components.items()]
    return sum(errors) / len(errors)


def shape_checks(fig3a: dict, fig4: dict) -> Dict[str, bool]:
    """The paper-shape predicates of benchmarks/test_bench_fig3a/fig4.py."""
    index = fig3a["columns"].index
    rows = {row[0]: row for row in fig3a["rows"]}
    ubench = [row[index("ubench")] for row in fig3a["rows"] if row[0] != "gmean"]
    cc6 = {row[0]: row for row in fig4["rows"]}
    no_ssr, with_ssr, lost = (fig4["columns"].index(c) for c in ("no_SSR", "gpu_SSR", "lost_points"))
    return {
        "fig3a: every ubench bar below 1.05": all(v < 1.05 for v in ubench),
        "fig3a: ubench gmean below bfs gmean":
            rows["gmean"][index("ubench")] < rows["gmean"][index("bfs")],
        "fig3a: raytrace least affected by ubench":
            rows["raytrace"][index("ubench")] == max(ubench),
        "fig4: ubench no-SSR CC6 above 75": cc6["ubench"][no_ssr] > 75.0,
        "fig4: ubench SSR CC6 below 15": cc6["ubench"][with_ssr] < 15.0,
        "fig4: bfs loses the least CC6":
            cc6["bfs"][lost] == min(row[lost] for row in fig4["rows"]),
    }


def strip_elapsed(document: dict) -> dict:
    """A result document without its wall-clock stamp, JSON-normalised."""
    doc = json.loads(json.dumps(document))
    doc.pop("elapsed_s", None)
    return doc


@dataclass
class PassResult:
    """What one measured pass did and observed."""

    #: Time the measured work took, in reference seconds (hostclock.py),
    #: and in plain wall seconds.
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    sim_ms: float = 0.0
    evaluations: int = 0
    jobs: int = 0
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    paper: Dict[str, float] = field(default_factory=dict)
    #: Client-side serving breakdown (serve_warm traced pass only).
    service: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, tiny: bool = False, traced: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        #: Traced runs route pool tasks through the traced worker runner.
        self.traced = traced
        self.clock = HostClock()

    def setup(self) -> None:
        calibrate()

    def fill(self) -> None:
        """Redo the simulation set-up did, untraced.

        The traced pass's untraced twin calls this, so the results it
        digests were not simulated under the tracer.  Workloads that
        simulate only inside a pass have nothing to redo.
        """

    def run_pass(self, seconds: Optional[float], traced: bool = False) -> PassResult:
        """Measure for ``seconds`` of wall clock, or a fixed amount of work
        when ``seconds`` is None; ``traced`` marks the traced pass."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# grid_cold: the paper's quick grid, serially, from a cold run cache
# ----------------------------------------------------------------------
class GridCold(Workload):
    """fig3a + fig4 on the quick grid (56 unique runs), serially, cold."""

    name = "grid_cold"
    EXPERIMENTS = ("fig3a", "fig4")

    def setup(self) -> None:
        from repro.config import SystemConfig

        super().setup()
        self.config = SystemConfig(seed=self.seed)
        self.horizon_ns = 1_000_000 if self.tiny else 15_000_000

    def kwargs_for(self, experiment_id: str) -> dict:
        from repro.experiments.common import QUICK_CPU_NAMES, QUICK_GPU_NAMES

        kwargs = {"config": self.config, "gpu_names": list(QUICK_GPU_NAMES),
                  "horizon_ns": self.horizon_ns}
        if experiment_id == "fig3a":
            kwargs["cpu_names"] = list(QUICK_CPU_NAMES)
        return kwargs

    def _grid_pass(self, result: PassResult) -> Optional[dict]:
        """One cold pass; returns {key: metrics document} or None on failure."""
        from repro.core import experiment, planner
        from repro.experiments import common

        experiment.clear_cache()
        # The host is probed after every run, so each run's wall time is
        # scaled by the host speed around it (hostclock.py).
        before = self.clock.probe()
        elapsed = 0.0

        def timed(call):
            nonlocal before, elapsed
            began = time.perf_counter()
            try:
                return call()
            finally:
                wall = time.perf_counter() - began
                after = self.clock.probe()
                elapsed += reference_seconds(wall, before, after)
                result.raw_wall_s += wall
                before = after

        keys, _skipped = timed(
            lambda: planner.plan_runs(self.EXPERIMENTS, self.kwargs_for)
        )
        runs = {}
        for key in keys:
            result.attempted += 1
            try:
                runs[key] = timed(lambda: experiment.run_workloads(*key))
            except Exception as exc:  # a failed run is a failed operation
                result.fail(f"run {key[:3]} raised {exc!r}")
        try:
            docs = timed(lambda: {
                eid: common.run_experiment(eid, **self.kwargs_for(eid)).as_dict()
                for eid in self.EXPERIMENTS
            })
        except Exception as exc:
            result.fail(f"grid harness raised {exc!r}")
            docs = None
        result.wall_s += elapsed
        result.evaluations += len(runs)
        # A job is the whole grid: what a user of the experiments CLI waits for.
        result.jobs += 1
        result.latencies_s.append(elapsed)
        result.sim_ms += len(runs) * self.horizon_ns / 1e6
        if docs is None:
            return None
        if not self.tiny:  # the shapes need the 15 ms horizon
            for name, holds in shape_checks(docs["fig3a"], docs["fig4"]).items():
                result.attempted += 1
                if not holds:
                    result.fail(f"paper shape violated: {name}")
        result.paper = paper_components(docs["fig3a"], docs["fig4"])
        return {key: runs[key].as_dict() for key in keys if key in runs}

    def run_pass(self, seconds: Optional[float], traced: bool = False) -> PassResult:
        from repro.core import experiment

        result = PassResult()
        passes = []
        deadline = None if seconds is None else time.perf_counter() + seconds
        # One vCPU for the runs and the probes between them.
        allowed = _pin_process({max(os.sched_getaffinity(0))})
        try:
            while True:
                began = time.perf_counter()
                runs = self._grid_pass(result)
                passes.append(runs)
                # Whole passes only: start another only if it should end in time.
                if deadline is None or runs is None:
                    break
                if time.perf_counter() + (time.perf_counter() - began) > deadline:
                    break
        finally:
            _pin_process(allowed)
        first = passes[0] or {}
        result.digest = digest_of(list(first.values()))
        for index, runs in enumerate(passes[1:], start=2):
            result.attempted += 1
            if runs != first:
                result.fail(f"pass {index} metrics differ from pass 1")
        if seconds is not None and first:
            # Determinism spot check outside the timed section: re-simulate
            # a seeded sample of the pass's runs and compare every field.
            for key in random.Random(self.seed).sample(list(first), min(3, len(first))):
                result.attempted += 1
                again = experiment.simulate_run(key).as_dict()
                if again != first[key]:
                    result.fail(f"re-simulated run {key[:3]} differs")
        return result


# ----------------------------------------------------------------------
# serve_warm: closed-loop HTTP clients against a warm in-process daemon
# ----------------------------------------------------------------------
class ServeWarm(Workload):
    """Two closed-loop clients; every run the mix needs is cached at set-up."""

    name = "serve_warm"
    #: The job the repository's own service traffic submits: ``--quick
    #: --horizon-ms 4`` (the CI service jobs and ``benchmarks/record.py
    #: --service``), over the quick grid's three figures.
    HORIZON_MS = 4.0
    #: Disjoint per-client catalogues: a job is never deduplicated onto
    #: the other client's job, so evicting one's own job is always safe.
    CATALOGUES = (("fig3a", "fig3b"), ("fig4",))
    #: How long a client waits for its job's end signal before it asks
    #: for the status anyway (a fallback; the signal comes first).
    WAIT_S = 1.0
    #: Jobs each client sends per epoch.  Between epochs both clients
    #: wait at a barrier while the idle process probes the host speed.
    EPOCH_JOBS = 8
    #: The traced pass and its twin: 25 epochs, 200 jobs per client.
    TRACE_EPOCHS = 25

    def setup(self) -> None:
        from repro.service import HissService

        super().setup()
        self.service = HissService(port=0, jobs=2).start()
        self.signals = _JobSignals(self.service.ops_log)
        self.fill()
        self.reference_documents()

    def kwargs_for(self, experiment_id: str) -> dict:
        from repro.experiments.run_all import experiment_kwargs

        return experiment_kwargs(experiment_id, quick=True, horizon_ms=self.HORIZON_MS)

    def fill(self) -> None:
        """Simulate, from an empty cache, every run the mix needs.

        ``fill_digest`` covers each cached ``SystemMetrics``, so a pass's
        digest also checks the simulation behind the documents it serves.
        """
        from repro.core import experiment, planner

        experiment.clear_cache()
        experiments = [eid for catalogue in self.CATALOGUES for eid in catalogue]
        keys, _skipped = planner.plan_runs(experiments, self.kwargs_for)
        report = planner.execute_runs(keys, jobs=1)
        #: Counted as operations of the next pass, which serves this fill.
        self.fill_runs = len(keys)
        self.fill_failed = [f"fill run {key[:3]} raised" for key, _error in report.failed]
        cached = [experiment.cache_lookup(key) for key in keys]
        self.fill_digest = digest_of([m.as_dict() if m else None for m in cached])

    def reference_documents(self) -> Dict[str, dict]:
        """What each served result must equal: run_experiment(...).as_dict()."""
        from repro.experiments import common

        if not hasattr(self, "_reference"):
            self._reference = {
                eid: strip_elapsed(common.run_experiment(eid, **self.kwargs_for(eid)).as_dict())
                for catalogue in self.CATALOGUES for eid in catalogue
            }
        return self._reference

    def _client(self, index, epochs, out, lock, want_spans):
        connection = _KeepAliveClient(self.service.host, self.service.port)
        reference = self.reference_documents()
        rng = random.Random(self.seed * 7919 + index)
        catalogue = list(self.CATALOGUES[index])
        order: List[str] = []
        jobs = 4 if self.tiny else self.EPOCH_JOBS
        try:
            while not epochs.stop:
                for _ in range(jobs):
                    if not order:
                        order = rng.sample(catalogue, len(catalogue))
                    record = self._one_job(connection, order.pop(0), reference, want_spans)
                    record["epoch"] = len(epochs.walls)
                    with lock:
                        out.append(record)
                epochs.barrier.wait()
        finally:
            connection.close()

    def _one_job(self, connection, experiment_id, reference, want_spans) -> dict:
        """Submit, wait, fetch, check and evict one job; returns its record."""
        record = {"experiment": experiment_id, "ok": False}
        submitted_s = time.time()
        try:
            status, body = connection.request("POST", "/v1/jobs", {
                "experiments": [experiment_id], "quick": True,
                "horizon_ms": self.HORIZON_MS,
            })
            if status == 429:
                record["refused"] = True
                record["error"] = f"refused: {body.get('error')}"
                time.sleep(float(body.get("retry_after_s", 0.1)))
                return record
            if status != 202 and status != 200:
                record["error"] = f"submit answered {status}: {body}"
                return record
            job_id = body["job"]["id"]
            record["deduplicated"] = bool(body.get("deduplicated"))
            ended = self.signals.event(job_id)
            while True:
                ended.wait(self.WAIT_S)
                status, job = connection.request("GET", f"/v1/jobs/{job_id}")
                if job["state"] in ("done", "failed", "cancelled"):
                    break
            self.signals.forget(job_id)
            if job["state"] != "done":
                record["error"] = f"job {job_id} ended {job['state']}"
            else:
                record["latency_s"] = job["finished_s"] - submitted_s
                record["runs"] = job["planned_runs"]
                _status, served = connection.request("GET", f"/v1/jobs/{job_id}/result")
                record["document"] = strip_elapsed(served[0])
                if len(served) != 1 or record["document"] != reference[experiment_id]:
                    record["error"] = f"served {experiment_id} differs from run_experiment"
                else:
                    record["ok"] = True
                if want_spans:
                    _status, trace = connection.request("GET", f"/v1/jobs/{job_id}/trace")
                    spans = {span["span_id"]: span for span in trace["spans"]}
                    record["spans"] = {
                        name: spans[name]["duration_s"] if name in spans else 0.0
                        for name in ("root", "submit", "queue", "batch", "render")
                    }
                    record["http_s"] = spans["root"]["start_s"] - submitted_s
            connection.request("DELETE", f"/v1/jobs/{job_id}")
        except Exception as exc:  # the client loop must keep running
            record["error"] = f"{experiment_id}: {exc!r}"
        return record

    def run_pass(self, seconds: Optional[float], traced: bool = False) -> PassResult:
        result = PassResult()
        records: List[dict] = []
        lock = threading.Lock()
        want_spans = traced
        limit = None
        if seconds is None:
            limit = 1 if self.tiny else self.TRACE_EPOCHS
        deadline = None if seconds is None else time.perf_counter() + seconds
        epochs = _Epochs(self.clock, len(self.CATALOGUES), deadline, limit)
        threads = [
            threading.Thread(
                target=self._client,
                args=(index, epochs, records, lock, want_spans),
                name=f"perfbench-client-{index}",
            )
            for index in range(len(self.CATALOGUES))
        ]
        allowed = _pin_process({max(os.sched_getaffinity(0))})
        try:
            epochs.begin()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            _pin_process(allowed)
        result.wall_s = sum(epochs.walls)
        result.raw_wall_s = sum(epochs.raw_walls)
        result.attempted += self.fill_runs
        for failure in self.fill_failed:
            result.fail(failure)
        served = {}
        for record in records:
            result.attempted += 1
            if not record["ok"]:
                result.fail(record.get("error", "unknown client error"))
                continue
            result.jobs += 1
            result.evaluations += record["runs"]
            result.latencies_s.append(record["latency_s"] * epochs.scales[record["epoch"]])
            served.setdefault(record["experiment"], record["document"])
        result.sim_ms = result.evaluations * self.HORIZON_MS
        reference = self.reference_documents()
        result.paper = paper_components(
            served.get("fig3a", reference["fig3a"]), served.get("fig4", reference["fig4"])
        )
        # Identical per experiment by the equality check above.
        result.digest = digest_of([self.fill_digest, sorted(
            (record["experiment"], record["document"])
            for record in records if record["ok"]
        )])
        if want_spans:
            timed = [record for record in records if record.get("spans")]
            for name in ("submit", "queue", "batch", "render"):
                result.service[name + "_ms"] = 1e3 * statistics.median(
                    record["spans"][name] for record in timed
                ) if timed else 0.0
            result.service["http_ms"] = 1e3 * statistics.median(
                record["http_s"] for record in timed
            ) if timed else 0.0
        result.service["refused"] = sum(1 for r in records if r.get("refused"))
        result.service["dedupe_hits"] = sum(1 for r in records if r.get("deduplicated"))
        return result

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
            self.service = None


# ----------------------------------------------------------------------
# sweep_pool: cold autotuner sweeps on a warm two-worker pool
# ----------------------------------------------------------------------
class SweepPool(Workload):
    """Cold x264 x ubench sweeps on a resident two-worker WorkerPool."""

    name = "sweep_pool"
    WORKERS = 2
    TRACE_SWEEPS = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool = self.traced_pool = self.active_pool = None
        # Route before any layer tracer is installed, so the tracer never
        # wraps (and on uninstall never restores over) the routing.
        self._route()

    def setup(self) -> None:
        from repro.config import SystemConfig

        super().setup()
        self.config = SystemConfig(seed=self.seed)
        self.horizon_ns = 1_000_000 if self.tiny else 2_000_000
        self.budget = 6 if self.tiny else 16
        # The traced pass runs on its own pool whose workers trace their
        # layers (the runner hook).  The untraced passes never trace; their
        # workers probe the host after every task instead.
        self.pool = self._start_pool("perfbench.hostclock:probed_task")
        if self.traced:
            self.traced_pool = self._start_pool("perfbench.layers:traced_task")
        self.active_pool = self.pool

    def _start_pool(self, runner):
        from repro.core import experiment

        pool = _timed_pool_class()(self.WORKERS, start_method="spawn", runner=runner)
        pool.prewarm()
        # Set-up ends when the workers serve: one tiny GPU-alone run each.
        probe = experiment.make_run_key(None, "bfs", False, self.config, 100_000)
        pool.run_batch([(probe, 0, None, False, None)] * self.WORKERS)
        pool.tasks.clear()
        return pool

    def _route(self) -> None:
        """Send the sweep driver's fan-out to this workload's active pool."""
        import repro.search.driver as driver_module
        from repro.core import planner

        def execute_on_pool(*args, **kwargs):
            kwargs["pool"] = self.active_pool
            return planner.execute_runs(*args, **kwargs)

        self._unrouted = driver_module.execute_runs
        driver_module.execute_runs = execute_on_pool

    def _sweep(self, index: int, result: PassResult, archives: list):
        from repro.core import experiment
        from repro.core.runcache import DiskCache
        from repro.search import SweepDriver, SweepSettings, default_space

        directory = os.path.join(self.workdir, f"sweep-{index}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        experiment.clear_cache()
        experiment.set_disk_cache(DiskCache(os.path.join(directory, "cache")))
        settings = SweepSettings(
            seed=self.seed * 1000 + index, budget=self.budget,
            round_size=4 if not self.tiny else 3, strategy="evolve",
            horizon_ns=self.horizon_ns, jobs=self.WORKERS,
        )
        driver = SweepDriver(
            default_space(), settings,
            state_path=os.path.join(directory, "journal.jsonl"), config=self.config,
        )
        pool = self.active_pool
        tasks_before = len(pool.tasks)
        began = time.perf_counter()
        result.attempted += settings.budget
        try:
            summary = driver.run()
        except Exception as exc:  # a failed run aborts the sweep's round
            result.fail(f"sweep {index} raised {exc!r}")
            return None
        finally:
            wall = time.perf_counter() - began
            experiment.set_disk_cache(None)
            tasks = pool.tasks[tasks_before:]
            # The workers probed the host after each task: each task is
            # scaled by its own worker's factor, the sweep by their mean.
            raw = sum(elapsed for elapsed, _factor in tasks)
            reference = sum(elapsed / factor for elapsed, factor in tasks if factor)
            scale = reference / raw if raw and reference else 1.0
            result.wall_s += wall * scale
            result.raw_wall_s += wall
            self.clock.factors.extend(factor for _elapsed, factor in tasks if factor)
        result.latencies_s.extend(
            elapsed / factor if factor else elapsed for elapsed, factor in tasks
        )
        result.jobs += len(tasks)
        result.sim_ms += len(tasks) * self.horizon_ns / 1e6
        result.evaluations += summary.evaluations
        if summary.evaluations != settings.budget:
            result.fail(f"sweep {index} evaluated {summary.evaluations} of {settings.budget}")
        archive = {
            encoding: [point, list(vector)]
            for encoding, (point, vector) in driver.archive.items()
        }
        archives.append(archive)
        if index == 0:
            idle = experiment.cache_lookup(experiment.make_run_key(
                None, "ubench", True, self.config, self.horizon_ns
            ))
            result.paper = {"fig4_ubench_cc6_pct": 100.0 * idle.cc6_residency}
        shutil.rmtree(directory, ignore_errors=True)
        return driver

    def run_pass(self, seconds: Optional[float], traced: bool = False) -> PassResult:
        from repro.core import experiment
        from repro.search import default_space
        from repro.search.objectives import EvaluationContext

        result = PassResult()
        archives: list = []
        first = None
        self.active_pool = self.traced_pool if traced else self.pool
        deadline = None if seconds is None else time.perf_counter() + seconds
        index = 0
        while True:
            driver = self._sweep(index, result, archives)
            first = first or driver
            index += 1
            if deadline is None:
                if index >= (1 if self.tiny else self.TRACE_SWEEPS):
                    break
            elif time.perf_counter() >= deadline:
                break
        result.digest = digest_of(archives)
        if seconds is not None and first is not None:
            # Pool = serial: re-evaluate one point in this process and
            # compare its objective vector bit for bit.
            experiment.clear_cache()
            encoding = sorted(first.archive)[0]
            point, vector = first.archive[encoding]
            context = EvaluationContext(
                base_config=self.config, horizon_ns=self.horizon_ns
            )
            result.attempted += 1
            if tuple(context.evaluate(default_space(), point)) != tuple(vector):
                result.fail("serial re-evaluation differs from the pool's")
            experiment.clear_cache()
        return result

    def close(self) -> None:
        unrouted = getattr(self, "_unrouted", None)
        if unrouted is not None:
            import repro.search.driver as driver_module

            driver_module.execute_runs = unrouted
            self._unrouted = None
        for name in ("pool", "traced_pool"):
            pool = getattr(self, name, None)
            if pool is not None:
                pool.shutdown()
                setattr(self, name, None)


def _pin_process(cpus):
    """Bind every thread of this process to ``cpus``; returns the old set.

    ``grid_cold`` and ``serve_warm`` measure on one vCPU, so the host
    probes run where the work runs: the two vCPUs' speeds need not move
    together.  ``serve_warm``'s threads take turns at the interpreter
    lock, so a second vCPU adds no throughput, only wake-ups from one
    vCPU to the other, which cost more the busier the host is.  Threads
    started later (the server's per-connection handlers) inherit the
    binding of the thread that starts them.
    """
    previous = os.sched_getaffinity(0)
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread has just ended
            pass
    return previous


class _JobSignals:
    """Wakes a client as soon as the service logs the end of its job.

    It observes the service's ops log through ``OpsLog.tee``, the hook
    the flight recorder uses, so no client polls.  A polling client adds
    a loopback round trip and a sleep wake-up every few milliseconds;
    on a loaded host those cost more while the serving path does not,
    and jobs per second followed the host (see README.md).
    """

    ENDS = frozenset(("job.done", "job.failed", "job.cancelled"))

    def __init__(self, ops_log):
        self._lock = threading.Lock()
        self._events: Dict[str, threading.Event] = {}
        ops_log.tee = self.observe  # the benchmark's service has no other

    def event(self, job_id: str) -> threading.Event:
        with self._lock:
            return self._events.setdefault(job_id, threading.Event())

    def forget(self, job_id: str) -> None:
        with self._lock:
            self._events.pop(job_id, None)

    def observe(self, record: dict) -> None:
        if record["event"] in self.ENDS:
            self.event(record["job"]).set()


class _Epochs:
    """Closed-loop clients in epochs, with the host probed between them.

    Every client sends a fixed number of jobs per epoch, then waits at
    the barrier.  The last to arrive closes the epoch: it probes the host
    while the service is idle, records the epoch's wall time in
    reference seconds, and decides whether another epoch starts.
    """

    def __init__(self, clock: HostClock, clients: int, deadline, limit):
        self.clock = clock
        self.deadline = deadline
        self.limit = limit
        #: Per epoch: its wall time in reference seconds, and the factor
        #: that converts a wall time inside it to reference seconds.
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.scales: List[float] = []
        self.stop = False
        self.barrier = threading.Barrier(clients, action=self._close)

    def begin(self) -> None:
        self.before = self.clock.probe()
        self.began = time.perf_counter()

    def _close(self) -> None:
        wall = time.perf_counter() - self.began
        after = self.clock.probe()
        scale = reference_seconds(1.0, self.before, after)
        self.walls.append(wall * scale)
        self.raw_walls.append(wall)
        self.scales.append(scale)
        self.before = after
        if self.limit is not None:
            self.stop = len(self.walls) >= self.limit
        else:
            self.stop = time.perf_counter() >= self.deadline
        self.began = time.perf_counter()


class _KeepAliveClient:
    """One persistent HTTP/1.1 connection to the service's JSON API.

    The program's ``ServiceClient`` opens a connection per request.  At
    the hundreds of requests a second a closed loop makes, the closed
    sockets pile up in TIME_WAIT (tens of thousands within a minute),
    connecting slows down as they do, and throughput then depends on
    what ran on the host in the previous minute.  One connection per
    client keeps runs independent.

    Both ends send a message's headers and body in two writes.  On a
    kept-alive connection Nagle's algorithm then holds the body until the
    peer's delayed ACK, about 40 ms per message.  The client sets
    TCP_NODELAY for its own requests and asks for a quick ACK before each
    read for the server's responses, so those timers are not measured.
    """

    def __init__(self, host: str, port: int):
        self.connection = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, body=None):
        headers = {"Accept": "application/json"}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.connection.sock is None:
            self.connection.connect()
            self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connection.request(method, path, body=data, headers=headers)
        self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def _timed_pool_class():
    """A WorkerPool that keeps each task's worker-side elapsed time, and
    the host factor its worker probed after it (None when unprobed)."""
    from repro.core.pool import WorkerPool

    class TimedPool(WorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tasks: List[tuple] = []

        def run_batch(self, tasks):
            results = super().run_batch(tasks)
            for task in results:
                if not task.ok:
                    continue
                metrics, events, info = task.payload
                factor = None
                if info and hostclock.WORKER_KEY in info:
                    info = dict(info)
                    factor, probe_s = info.pop(hostclock.WORKER_KEY)
                    # The program sees the task as if it were unprobed.
                    task.payload = (metrics, events, info or None)
                    task.elapsed_s -= probe_s
                self.tasks.append((task.elapsed_s, factor))
            return results

    return TimedPool


WORKLOADS = {cls.name: cls for cls in (GridCold, ServeWarm, SweepPool)}
