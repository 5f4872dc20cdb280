"""The provenance ledger: an append-only JSONL journal of every job.

One record per compile/validate/batch job, written next to the persistent
:class:`~repro.service.cache.CompileCache` (``<cache>/provenance.jsonl``)
by :class:`~repro.session.ChassisSession`, which folds every compile
job's outcome into one record (and writes one per validation).  A record
answers "where did this cached value come from": the job fingerprint and
its three constituent fingerprints (core/target/config), the benchmark,
target and number format, the oracle backend that produced the sample
points, whether the cache was hit or a fresh result was stored, the
engine/oracle counter deltas of the work actually done, the host +
compiler + commit that did it, and the elapsed wall clock.

Records are single ``os.write`` calls on an ``O_APPEND`` descriptor, so
concurrent threads (serve handlers, ``submit`` workers) never
interleave partial lines; worker *processes* never write — their outcomes
ship home on :class:`~repro.service.scheduler.JobOutcome` and the parent
records them, so one process owns the file per session.  Reads
(:meth:`ProvenanceLedger.records_for`, ``repro provenance``, the serve
``GET /provenance`` route) are full scans tolerant of torn trailing
lines, which only ever appear if a previous process died mid-write.

The lineage contract consumed by ``repro report --check``: a fingerprint
*resolves* when the ledger holds a record of the fresh compilation that
produced the bytes (``cache`` != ``"hit"``, status ok).  Warm hits append
their own ``"hit"`` records — auditing trail, not lineage — so deleting
the ledger under a warm cache is detectable: the values regenerate, but
their origin is gone and ``--check`` fails.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from ..obs.metrics import METRICS
from ..service.cache import (
    COMPILER_EPOCH,
    config_fingerprint,
    core_fingerprint,
    target_fingerprint,
)

#: Version of the record layout (bumped on incompatible field changes).
LEDGER_SCHEMA = 1

#: Values of a record's ``cache`` field.  ``hit`` = served from the
#: persistent cache; ``store`` = fresh result stored into it (every ok
#: result of a job is); ``none`` = no cache configured, or the job
#: failed.  ``bypass`` (a compile kept out of a configured cache) is
#: written no more but kept, because older journals hold it.
CACHE_STATES = ("hit", "store", "none", "bypass")

_HOST_LOCK = threading.Lock()
_HOST_INFO: dict | None = None


def _git_head() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
        return out or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_info() -> dict:
    """Hostname/platform/python/compiler/commit stamped into every record
    (and into report manifests).  Computed once per process: the compiler
    probe and ``git rev-parse`` subprocess are not free, and none of it
    changes while the process lives."""
    global _HOST_INFO
    with _HOST_LOCK:
        if _HOST_INFO is None:
            try:
                from ..exec.builder import find_compiler

                cc = find_compiler() or "none"
            except Exception:
                cc = "unknown"
            _HOST_INFO = {
                "hostname": socket.gethostname(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cc": cc,
                "commit": _git_head(),
            }
        return dict(_HOST_INFO)


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


class ProvenanceLedger:
    """Append-only JSONL journal; see the module docstring.

    Thread-safe within one process (one lock around the append counter and
    the lazily-opened ``O_APPEND`` descriptor); safe across processes for
    *appends* because each record is a single positioned write.  The same
    path can be reopened across sessions — the journal only ever grows.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fd: int | None = None
        #: Records appended through *this* instance (the "this session"
        #: number in ``/health``); the on-disk journal may hold more.
        self.appended = 0
        #: Unix timestamp of this instance's last append (0.0 = none yet).
        self.last_write = 0.0

    # --- writing --------------------------------------------------------------------

    def record_job(
        self,
        kind: str,
        core,
        target,
        config,
        sample_config,
        fingerprint: str,
        *,
        cache: str = "none",
        status: str = "ok",
        elapsed: float = 0.0,
        engine: dict | None = None,
        oracle: dict | None = None,
        oracle_backend: str = "",
        error_type: str | None = None,
        extra: dict | None = None,
    ) -> dict:
        """Build and append one job record; returns the record dict.

        ``core``/``target``/``config``/``sample_config`` are the job's
        actual inputs — the constituent fingerprints are derived here so
        every caller (the session's job fold, validate) records the same
        lineage without importing the fingerprint functions.  Its
        signature is the ledger's write API.
        """
        record = {
            "schema": LEDGER_SCHEMA,
            "ts": _now_iso(),
            "kind": kind,
            "fingerprint": fingerprint,
            "core_fingerprint": core_fingerprint(core),
            "target_fingerprint": target_fingerprint(target),
            "config_fingerprint": config_fingerprint(config, sample_config),
            "benchmark": core.name or "<anonymous>",
            "target": target.name,
            "format": core.precision,
            "oracle_backend": oracle_backend,
            "cache": cache,
            "status": status,
            "elapsed": round(float(elapsed), 6),
            "engine": engine or None,
            "oracle": oracle or None,
            "epoch": COMPILER_EPOCH,
            "host": host_info(),
        }
        if error_type:
            record["error_type"] = error_type
        if extra:
            record.update(extra)
        return self.append(record)

    def append(self, record: dict) -> dict:
        """Append one already-built record as a single JSONL line."""
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        with self._lock:
            if self._fd is None:
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
            os.write(self._fd, data)
            self.appended += 1
            self.last_write = time.time()
        METRICS.counter(
            "repro_provenance_records_total",
            "Provenance-ledger records appended, by job kind.",
            kind=str(record.get("kind", "?")),
        ).inc()
        return record

    # --- reading --------------------------------------------------------------------

    def iter_records(self):
        """Yield every parseable record, oldest first (the line order *is*
        the sequence).  Unparseable lines — a torn trailing write from a
        killed process — are skipped, never fatal."""
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        yield record
        except OSError:
            return

    def records_for(self, fingerprint: str) -> list[dict]:
        """Every record of one job fingerprint, oldest first.  Prefixes of
        at least 8 hex characters match too (CLI ergonomics: a 64-char
        digest is unwieldy to retype)."""
        if len(fingerprint) >= 64:
            return [
                r for r in self.iter_records()
                if r.get("fingerprint") == fingerprint
            ]
        if len(fingerprint) < 8:
            return []
        return [
            r for r in self.iter_records()
            if str(r.get("fingerprint", "")).startswith(fingerprint)
        ]

    def resolve(self, fingerprint: str, status: str = "ok") -> dict | None:
        """The latest record of the *fresh* attempt behind a fingerprint
        (``cache`` != hit) with the given ``status`` — the lineage record
        a cached value traces back to (or, for ``status="failed"`` /
        ``"timeout"``, the record of the original failure) — or None if
        the ledger never saw the job run (see the module docstring's
        lineage contract)."""
        found = None
        for record in self.records_for(fingerprint):
            if record.get("status") == status and record.get("cache") != "hit":
                found = record
        return found

    def count(self) -> int:
        return sum(1 for _ in self.iter_records())

    def info(self) -> dict:
        """The ``/health`` provenance section: journal path and size,
        records appended via this instance, last-write timestamp."""
        with self._lock:
            appended, last_write = self.appended, self.last_write
        return {
            "path": str(self.path),
            "records": self.count(),
            "appended": appended,
            "last_write": (
                datetime.fromtimestamp(last_write, timezone.utc)
                .isoformat(timespec="milliseconds")
                if last_write else None
            ),
        }

    def close(self) -> None:
        """Close the append descriptor (reopened lazily on next append)."""
        with self._lock:
            fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)
