"""Persistent, content-addressed cache of simulated runs.

The in-memory memo table in :mod:`repro.core.experiment` only helps within
one process.  This module adds the second level: an opt-in on-disk store
(``hiss-experiments --cache-dir``) keyed by a *stable* digest of the run
request — ``(cpu, gpu, ssr, config, horizon)`` rendered canonically — plus
a **code fingerprint**, so repeated invocations skip already-simulated runs
and cache invalidation is automatic whenever the simulator changes.

The code fingerprint covers:

* the package version,
* the :class:`~repro.config.SystemConfig` schema digest (field names and
  types at every nesting level), and
* the source text of every module that can influence simulated results
  (the sim kernel, OS model, uarch model, IOMMU, GPU, workloads, QoS,
  mitigations, and the system/metrics assembly).  Telemetry and the
  experiment harnesses are deliberately excluded: by contract they never
  change simulation outcomes.

Entries are one JSON file per run under the cache directory, written
atomically (temp file + rename), so concurrent producers at worst do the
same work twice — they can never corrupt an entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import asdict
from functools import lru_cache
from typing import Optional, Tuple

from ..config import SystemConfig
from .metrics import SystemMetrics

#: A run request: (cpu_name, gpu_name, ssr_enabled, config, horizon_ns).
RunKey = Tuple[Optional[str], Optional[str], bool, SystemConfig, int]

#: Cache entry format version (bump to orphan every existing entry).
ENTRY_SCHEMA = 1

#: Paths (relative to the ``repro`` package) whose source participates in
#: the code fingerprint — everything that can change simulated numbers.
_FINGERPRINT_PATHS = (
    "config.py",
    "sim",
    "oskernel",
    "uarch",
    "iommu",
    "gpu",
    "workloads",
    "qos",
    "mitigations",
    os.path.join("core", "system.py"),
    os.path.join("core", "metrics.py"),
)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of everything that determines a run's numbers (cached)."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    digest.update(repro.__version__.encode("utf-8"))
    digest.update(SystemConfig.schema_digest().encode("utf-8"))
    for relative in _FINGERPRINT_PATHS:
        path = os.path.join(root, relative)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(
                os.path.join(dirpath, name)
                for dirpath, _dirs, names in os.walk(path)
                for name in names
                if name.endswith(".py")
            )
        for source in files:
            digest.update(os.path.relpath(source, root).encode("utf-8"))
            with open(source, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def reset_code_fingerprint() -> None:
    """Forget the memoized :func:`code_fingerprint`.

    A long-lived process (the ``hiss-serve`` daemon) that reloads simulator
    code must call this so subsequent digests reflect the new sources;
    otherwise the ``lru_cache`` would keep vouching for stale entries.
    """
    code_fingerprint.cache_clear()


def run_key_document(key: RunKey, fingerprint: Optional[str] = None) -> dict:
    """The canonical JSON-able description of one run request."""
    cpu_name, gpu_name, ssr_enabled, config, horizon_ns = key
    return {
        "schema": ENTRY_SCHEMA,
        "fingerprint": fingerprint if fingerprint is not None else code_fingerprint(),
        "cpu": cpu_name,
        "gpu": gpu_name,
        "ssr_enabled": bool(ssr_enabled),
        "horizon_ns": int(horizon_ns),
        "config": asdict(config),
    }


def run_key_digest(key: RunKey, fingerprint: Optional[str] = None) -> str:
    """Stable SHA-256 content address of one run request + code state."""
    document = run_key_document(key, fingerprint)
    rendered = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


class DiskCache:
    """A directory of ``<digest>.json`` files, one per simulated run.

    Because the digest folds in the code fingerprint, entries written by an
    older simulator simply never match again — invalidation needs no
    bookkeeping.  ``hits`` / ``misses`` / ``stores`` count this instance's
    traffic (the CLI reports them); they are updated under a lock because
    the serving daemon consults one instance from many request threads.
    """

    def __init__(self, directory: str, fingerprint: Optional[str] = None):
        self.directory = os.path.abspath(directory)
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        os.makedirs(self.directory, exist_ok=True)
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def stats(self) -> Tuple[int, int, int]:
        """A consistent ``(hits, misses, stores)`` snapshot."""
        with self._stats_lock:
            return self.hits, self.misses, self.stores

    def path_for(self, key: RunKey) -> str:
        return os.path.join(
            self.directory, run_key_digest(key, self.fingerprint) + ".json"
        )

    def get(self, key: RunKey) -> Optional[SystemMetrics]:
        """The cached metrics for ``key``, or ``None`` (never raises)."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("schema") != ENTRY_SCHEMA:
                raise ValueError(f"unknown entry schema {entry.get('schema')!r}")
            if entry.get("fingerprint") != self.fingerprint:
                raise ValueError("fingerprint mismatch")
            metrics = SystemMetrics.from_dict(entry["metrics"])
        except FileNotFoundError:
            with self._stats_lock:
                self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or foreign entry: treat as a miss, re-simulate.
            with self._stats_lock:
                self.misses += 1
            return None
        with self._stats_lock:
            self.hits += 1
        return metrics

    def put(self, key: RunKey, metrics: SystemMetrics) -> str:
        """Persist ``metrics`` under ``key`` (atomic); returns the path."""
        path = self.path_for(key)
        entry = run_key_document(key, self.fingerprint)
        entry["metrics"] = metrics.as_dict()
        fd, temp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, separators=(",", ":"))
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        with self._stats_lock:
            self.stores += 1
        return path

    def __len__(self) -> int:
        """Number of entries on disk (any fingerprint)."""
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.endswith(".json") and not name.startswith(".tmp-")
        )
