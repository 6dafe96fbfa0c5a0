"""Per-layer timing and work counts, measured from outside the program.

:class:`LayerTracer` replaces public functions and methods of the
``repro`` package with wrappers.  Each wrapper pushes a frame on a
per-thread stack, so a layer's *self time* is its wall time minus the
wall time of wrapped calls nested inside it; its counters read the
call's arguments and return value only.  Nothing under ``src/`` is
edited, and :meth:`LayerTracer.uninstall` restores every original.

Generator functions (a core servicing its pending IRQs, the IOMMU bottom
half) are wrapped by a generator that times each resumption separately,
so time a suspended generator spends waiting in the event loop is never
charged to it.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

#: Key under which a traced pool worker ships its layer snapshot back.
WORKER_KEY = "perfbench.layers"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bump(name):
    def count(state, args, kwargs, result, elapsed):
        state.counts[name] += 1
    return count


def _count_sim_run(state, args, kwargs, result, elapsed):
    # The environment's insertion counter: every event ever scheduled.
    state.counts["sim.events"] += args[0]._eid


def _count_user_window(state, args, kwargs, result, elapsed):
    counts = state.counts
    counts["uarch.user_windows"] += 1
    counts["uarch.accesses"] += _arg(args, kwargs, 4, "accesses")
    counts["uarch.branches"] += _arg(args, kwargs, 5, "branches")
    misses, mispredicts = result
    counts["uarch.misses"] += misses
    counts["uarch.mispredicts"] += mispredicts


def _count_kernel_window(state, args, kwargs, result, elapsed):
    counts = state.counts
    counts["uarch.kernel_windows"] += 1
    counts["uarch.accesses"] += _arg(args, kwargs, 3, "accesses")
    counts["uarch.branches"] += _arg(args, kwargs, 4, "branches")


def _count_drain(state, args, kwargs, result, elapsed):
    state.counts["iommu.drains"] += 1
    state.counts["iommu.drained"] += len(result)


def _count_system_run(state, args, kwargs, result, elapsed):
    counts = state.counts
    counts["core.runs"] += 1
    if result.gpu is not None:
        counts["gpu.faults_issued"] += result.gpu.faults_issued
        counts["gpu.faults_completed"] += result.gpu.faults_completed
        counts["gpu.stall_ns"] += round(result.gpu.stall_ns)
    counts["qos.throttle_events"] += result.qos_throttle_events


def _count_lookup(state, args, kwargs, result, elapsed):
    state.counts["runcache.lookups"] += 1
    if result is not None:
        state.counts["runcache.hits"] += 1


def _count_batch(state, args, kwargs, result, elapsed):
    """Pool batch: task counts, busy time, and the workers' own layers."""
    pool = args[0]
    state.counts["pool.tasks"] += len(_arg(args, kwargs, 1, "tasks"))
    state.times["pool.worker_s"] += pool.max_workers * elapsed
    for task in result:
        state.times["pool.task_s"] += task.elapsed_s
        if not task.ok:
            continue
        metrics, events, info = task.payload
        if info and WORKER_KEY in info:
            info = dict(info)
            state.merge(info.pop(WORKER_KEY))
            task.payload = (metrics, events, info or None)


def _count_sweep(state, args, kwargs, result, elapsed):
    counts = state.counts
    counts["search.evaluations"] += result.evaluations
    counts["search.cache_served"] += result.cache_served
    counts["search.frontier_size"] += result.frontier_size


#: (layer id, module, function or Class.method, counter).  The part of a
#: layer id before the first dot names the layer in the self-time shares.
TARGETS = (
    ("sim", "repro.sim.environment", "Environment.run", _count_sim_run),
    ("uarch", "repro.uarch.state", "CoreUarchState.run_user_window", _count_user_window),
    ("uarch", "repro.uarch.state", "CoreUarchState.run_kernel_window", _count_kernel_window),
    ("uarch", "repro.uarch.state", "CoreUarchState.flush_for_deep_sleep", _bump("uarch.flushes")),
    ("oskernel", "repro.oskernel.cpu", "Core.deliver_irq", _bump("oskernel.irqs")),
    ("oskernel", "repro.oskernel.cpu", "Core.service_pending_irqs", None),
    ("oskernel", "repro.oskernel.cpu", "Core.dispatch", _bump("oskernel.dispatches")),
    ("oskernel", "repro.oskernel.cpu", "Core.preempt", _bump("oskernel.preempts")),
    ("oskernel", "repro.oskernel.cpu", "Core.run_user_window", None),
    ("oskernel", "repro.oskernel.irq", "InterruptController.raise_msi", None),
    ("oskernel", "repro.oskernel.irq", "InterruptController.send_resched_ipi", _bump("oskernel.ipis")),
    ("oskernel", "repro.oskernel.irq", "InterruptController.send_wake_ipi", _bump("oskernel.ipis")),
    ("oskernel", "repro.oskernel.scheduler", "Scheduler.enqueue", None),
    ("oskernel", "repro.oskernel.workqueue", "WorkQueues.queue_work", _bump("oskernel.work_items")),
    ("oskernel", "repro.oskernel.kernel", "Kernel.charge_ssr", None),
    ("iommu", "repro.iommu.iommu", "Iommu.submit", _bump("iommu.submits")),
    ("iommu", "repro.iommu.iommu", "Iommu.drain_ready", _count_drain),
    ("iommu", "repro.iommu.iommu", "Iommu.complete_request", _bump("iommu.completions")),
    ("iommu", "repro.iommu.driver", "IommuDriver.preprocess_and_queue", None),
    ("workloads.calibration", "repro.workloads.calibration", "steady_state_for", None),
    ("core.build", "repro.core.system", "System.__init__", None),
    ("core.build", "repro.core.system", "System.add_cpu_app", None),
    ("core.build", "repro.core.system", "System.add_gpu_workload", None),
    ("core.collect", "repro.core.system", "System.run", _count_system_run),
    ("core.memo", "repro.core.experiment", "run_workloads", None),
    ("runcache.get", "repro.core.experiment", "cache_lookup", _count_lookup),
    ("runcache.get", "repro.core.runcache", "DiskCache.get", None),
    ("runcache.put", "repro.core.runcache", "DiskCache.put", _bump("runcache.puts")),
    ("planner.plan", "repro.core.planner", "plan_runs", None),
    ("planner.execute", "repro.core.planner", "execute_runs", None),
    ("pool.batch", "repro.core.pool", "WorkerPool.run_batch", _count_batch),
    ("experiments.harness", "repro.experiments.common", "run_experiment", None),
    ("search.sampler", "repro.search.samplers", "sampler_for_round", None),
    ("search.sampler", "repro.search.samplers", "GridSampler.propose", None),
    ("search.sampler", "repro.search.samplers", "LatticeSampler.propose", None),
    ("search.sampler", "repro.search.samplers", "MutationSampler.propose", None),
    ("search.driver", "repro.search.driver", "SweepDriver.run", _count_sweep),
)


class _ThreadState:
    """One thread's frame stack and accumulators (merged on snapshot)."""

    FIELDS = ("self_s", "incl_s", "counts", "times")
    __slots__ = ("stack",) + FIELDS

    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.times = defaultdict(float)

    def as_dict(self):
        return {name: dict(getattr(self, name)) for name in self.FIELDS}

    def merge(self, snapshot):
        for name in self.FIELDS:
            target = getattr(self, name)
            for key, value in snapshot[name].items():
                target[key] += value


class LayerTracer:
    """Wraps the :data:`TARGETS` and accumulates self time and counts."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []

    def _new_state(self):
        state = _ThreadState()
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _timer(self, layer):
        """A function running ``call`` inside one frame of ``layer``."""
        local, new_state, perf = self._local, self._new_state, time.perf_counter

        def timed(call, *args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            stack.append(0.0)
            start = perf()
            try:
                result = call(*args, **kwargs)
            finally:
                elapsed = perf() - start
                state.self_s[layer] += elapsed - stack.pop()
                state.incl_s[layer] += elapsed
                if stack:
                    stack[-1] += elapsed
            return result, state, elapsed

        return timed

    def _wrap(self, layer, fn, count):
        timed = self._timer(layer)
        if inspect.isgeneratorfunction(fn):
            return _timed_generator(timed, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, state, elapsed = timed(fn, *args, **kwargs)
            if count is not None:
                count(state, args, kwargs, result, elapsed)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, targets=TARGETS):
        """Wrap every target; a missing target raises (the layer moved)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, name, count in targets:
            module = importlib.import_module(module_name)
            if "." in name:
                class_name, attr = name.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(layer, original, count))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(layer, original, count)
            # Modules that imported the function by name hold their own
            # reference; replace each one.
            for module_name_, loaded in list(sys.modules.items()):
                if module_name_.split(".")[0] != "repro":
                    continue
                if getattr(loaded, name, None) is original:
                    setattr(loaded, name, wrapper)
                    self._patches.append((loaded, name, original))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reset(self):
        """Zero every accumulator (call only while no wrapped call runs)."""
        with self._lock:
            for state in self._states:
                for name in _ThreadState.FIELDS:
                    getattr(state, name).clear()

    def snapshot(self):
        """All threads' accumulators merged into plain dicts."""
        total = _ThreadState()
        with self._lock:
            for state in self._states:
                total.merge(state.as_dict())
        return total.as_dict()


def _timed_generator(timed, fn):
    """Wrap a generator function so each resumption is its own frame."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        step, value = inner.send, None
        while True:
            try:
                item, _state, _elapsed = timed(step, value)
            except StopIteration as stop:
                return stop.value
            try:
                value = yield item
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded, e.g. a sim interrupt
                step, value = inner.throw, exc
            else:
                step = inner.send

    return wrapper


def layer_shares(self_s):
    """Self time per layer (id prefix) as a percentage of all wrapped time."""
    totals = defaultdict(float)
    for layer_id, seconds in self_s.items():
        totals[layer_id.split(".")[0]] += seconds
    whole = sum(totals.values())
    return {
        layer: (100.0 * seconds / whole if whole else 0.0)
        for layer, seconds in sorted(totals.items())
    }


# ----------------------------------------------------------------------
# Pool worker hook
# ----------------------------------------------------------------------
_WORKER_TRACER = None  # one per pool worker process, installed on first task


def traced_task(*task):
    """``WorkerPool`` runner: :func:`repro.core.pool.run_task`, traced.

    The worker's layer snapshot for this task rides back in the task's
    ``info`` under :data:`WORKER_KEY`; the parent's traced
    ``WorkerPool.run_batch`` merges it and strips it again.
    """
    global _WORKER_TRACER
    from repro.core.pool import run_task

    if _WORKER_TRACER is None:
        from perfbench.workloads import calibrate

        # Calibrate before tracing starts: which worker happens to run a
        # profile first must not move the exact counts.
        calibrate()
        _WORKER_TRACER = LayerTracer().install()
    # The collector closes the thread generators of earlier tasks' runs,
    # and a closing thread calls Core.dispatch; collect them here so a
    # task's counts do not depend on which tasks this worker ran before.
    gc.collect()
    _WORKER_TRACER.reset()
    metrics, events, info = run_task(*task)
    info = dict(info or {})
    info[WORKER_KEY] = _WORKER_TRACER.snapshot()
    return metrics, events, info
