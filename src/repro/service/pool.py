"""Session-owned persistent worker pool: warm processes across batch calls.

The one process pool of the compile service.  A long-lived front-end like
``repro serve`` must not pay worker start-up — process creation,
re-importing :mod:`repro`, re-auto-tuning targets — on every request, so a
:class:`WorkerPool` is:

* **lazily created** — no processes exist until the first batch needs
  them, or until :meth:`start` (``repro serve`` forks its workers from the
  single-threaded main thread before it listens);
* **long-lived** — workers stay warm across calls, so consecutive batches
  reuse the same PIDs (observable via :meth:`worker_pids` and the serve
  front-end's ``/health``);
* **context chosen once** — fork vs forkserver is decided at creation (see
  :func:`_pool_context`), not per batch;
* **configuration-free** — compile/sample configurations and timeouts
  ride on each :class:`~repro.service.scheduler.BatchJob`, so requests
  with different knobs share the same warm workers;
* **watchdog-guarded** — workers enforce per-job timeouts themselves
  (cooperative deadline + SIGALRM), but a worker wedged in C code past its
  whole budget is detected parent-side, reported as a ``timeout`` outcome,
  and the pool is recycled so the wedged process cannot poison later
  batches.

One :class:`WorkerPool` is owned by a
:class:`~repro.session.ChassisSession` (created when ``jobs >= 2``) and
shared by plain :meth:`~repro.session.ChassisSession.compile` cache misses
(so serve ``/compile`` and ``submit``), ``compile_many``, the serve
``/batch`` endpoint, ``repro batch`` and the experiment runners;
:meth:`shutdown` drains it in ``session.close()``.  Every caller
dispatches through :meth:`run_batch`, whole compile jobs only; oracle
work never crosses the pool on its own.

Workers also run their own garbage-collection policy (see
:func:`run_pooled_job`): each freezes the warm heap it starts with, and
every job runs with automatic collection off and ends with one
collection.  The policy stays inside the workers; inline compiles and the
caller's process keep the default collector.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import threading
import time

from .scheduler import BatchJob, JobOutcome, run_job

#: Parent-side slack (seconds) on top of the per-job timeout before the
#: watchdog declares the pool wedged.  The watchdog is *progress-based*:
#: any completion anywhere in the pool resets the stall clock, so healthy
#: jobs queued behind other batches never trip it — it fires only when no
#: worker has produced anything for a whole job budget plus this grace.
#: Generous, because the in-worker alarm is the primary enforcement and
#: fires much earlier.
WATCHDOG_GRACE = 10.0

#: How often (seconds) a watchdog-guarded collection re-checks for pool
#: progress while its own job is still pending.
WATCHDOG_POLL = 0.5

#: How long (seconds) a graceful ``Pool.terminate`` may take before the
#: shutdown path hard-kills the worker processes instead.  Normally
#: terminate finishes in milliseconds; it can deadlock forever when a
#: worker *died* holding the shared task-queue lock — e.g. a supervisor
#: (systemd, docker stop, GNU timeout) delivered SIGTERM to the whole
#: process group, killing workers mid-``get()`` while the parent was
#: draining.
SHUTDOWN_GRACE = 5.0


def _pool_context():
    """Prefer fork (workers inherit the parent's hash seed and imports) —
    but never fork a multi-threaded process directly: forking from, say, a
    serve handler thread is deadlock-prone (the child inherits locks held
    by threads that don't exist in it) and deprecated on Python 3.12+.
    Such callers get *forkserver*: workers fork from a clean
    single-threaded helper process (unlike spawn, the caller's
    ``__main__`` is never re-executed)."""
    single_threaded = (
        threading.current_thread() is threading.main_thread()
        and threading.active_count() == 1
    )
    try:
        return multiprocessing.get_context("fork" if single_threaded else "forkserver")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_pooled_job(job: BatchJob) -> JobOutcome:
    """Run one job in a worker with automatic collection off, then collect.

    The pipeline makes no reference cycles, so a compile frees its
    e-graphs by reference counting as it goes; the cyclic collector would
    only rescan live objects.  The worker froze its inherited warm heap
    (``gc.freeze`` is the pool initializer), so the one collection at the
    end of the job sees only what the worker made since.  Only pool
    workers run this: inline compiles share their process with other
    threads, and ``gc.disable`` is process-global.
    """
    gc.disable()
    try:
        return run_job(job)
    finally:
        gc.enable()
        gc.collect()


class WorkerPool:
    """A lazily-created, persistent process pool for compile jobs.

    Thread-safe, and concurrent batches genuinely interleave: the lock is
    held only to (re)build the pool and dispatch, never while waiting for
    results, so e.g. several single-job :meth:`~repro.session.
    ChassisSession.submit` batches run in parallel across the warm
    workers.  Recycling (wedged worker, :meth:`shutdown`) waits until
    every in-flight batch has collected its outcomes.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._lock = threading.RLock()
        self._condition = threading.Condition(self._lock)
        self._pool = None
        self._context = None
        #: How many times a pool has been (re)built — 1 after first use;
        #: still 1 after any number of batches, whatever their configs.
        self.generation = 0
        #: Batches currently collecting results (dispatch done, lock
        #: released); the pool must not be torn down under them.
        self._active = 0
        #: Set when a watchdog fired: the pool is suspect and must be
        #: rebuilt before the next batch (deferred until in-flight batches
        #: drain — their outcomes are already accounted for).
        self._stale = False
        #: Monotonic instant of the last dispatch or completion anywhere
        #: in the pool; the watchdog measures stalls against this, so
        #: concurrent batches sharing the workers never time each other
        #: out while progress is being made.  (Float assignment is atomic
        #: under the GIL; read/written lock-free.)
        self._progress_mark = 0.0
        self._pids: list[int] = []
        self._closed = False

    # --- introspection ----------------------------------------------------------------

    # Deliberately lock-free (``_pids`` is rebound, never mutated in
    # place): /health must answer instantly even while batches are in
    # flight, and liveness probes must never block behind a compile.

    def worker_pids(self) -> list[int]:
        """PIDs of the current workers ([] before first use / after close)."""
        return list(self._pids)

    def info(self) -> dict:
        """JSON-able pool state (surfaced by the serve ``/health`` route)."""
        context = self._context
        return {
            "workers": self.workers,
            "pids": list(self._pids),
            "generation": self.generation,
            "active_batches": self._active,
            "start_method": context.get_start_method() if context else None,
        }

    # --- lifecycle --------------------------------------------------------------------

    def start(self) -> None:
        """Start the workers now rather than on first use.  Called from a
        single-threaded main thread, this picks ``fork``: the workers
        inherit the parent's imports instead of re-importing them."""
        with self._condition:
            self._ensure()

    def _ensure(self):
        """The live pool (rebuilding it after a watchdog strike).

        Called with the lock held.  A stale pool is rebuilt only once
        every in-flight batch has drained (they hold references into it).
        """
        while True:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if self._pool is not None and not self._stale:
                return self._pool
            if self._active == 0:
                break
            # Another batch is mid-collection on the old pool; wait, then
            # re-check — it may have been rebuilt meanwhile.
            self._condition.wait()
        self._shutdown_pool()
        if self._context is None:
            # Chosen once for the pool's lifetime: fork when created from a
            # single-threaded main thread, forkserver otherwise.
            self._context = _pool_context()
        # Freeze what each worker inherits (or imports) before its first
        # job: the collections run_pooled_job makes never rescan it.
        pool = self._context.Pool(processes=self.workers, initializer=gc.freeze)
        self._stale = False
        self.generation += 1
        # multiprocessing.pool keeps its workers in ._pool; there is no
        # public enumeration, and dispatching getpid tasks instead would
        # race with real jobs.
        self._pids = sorted(proc.pid for proc in pool._pool)
        self._pool = pool
        return pool

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._pids = []
        if pool is None:
            return
        # Terminate from a helper thread with a bounded join:
        # Pool.terminate acquires the task-queue lock, which a worker
        # killed by a process-group signal can have taken to its grave.
        finisher = threading.Thread(
            target=pool.terminate, name="worker-pool-terminate", daemon=True
        )
        finisher.start()
        finisher.join(SHUTDOWN_GRACE)
        if finisher.is_alive():
            # Deadlocked terminate: hard-kill the worker processes and
            # abandon the pool machinery (its helper threads are daemonic,
            # so they die with this process; a recycle leaks them until
            # then — the failure mode is rare and already fatal to the
            # old pool).
            for proc in getattr(pool, "_pool", []):
                if proc.is_alive():
                    proc.kill()
        else:
            pool.join()

    def shutdown(self) -> None:
        """Tear the workers down; the pool object is dead afterwards.

        Waits for in-flight batches to collect their outcomes first, so
        none are lost — only idle workers are terminated.
        """
        with self._condition:
            while self._active > 0:
                self._condition.wait()
            self._shutdown_pool()
            self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # --- execution --------------------------------------------------------------------

    def run_batch(
        self,
        batch: list[BatchJob],
        timeout: float | None = None,
        progress=None,
    ) -> list[JobOutcome]:
        """Run every job on the warm workers; returns their outcomes.

        Outcomes come back in submission order (the scheduler sorts by
        index anyway); ``progress`` is called per outcome as it lands.
        ``timeout`` is attached to each job (workers arm their own
        deadline from it).  A parent-side
        watchdog additionally guards against a worker wedged past its own
        in-process alarm: it fires only when *no* completion happens
        anywhere in the pool for a whole job budget plus grace
        (progress-based, so concurrent batches queued on the same workers
        never trip it), reports the stalled jobs as ``timeout`` outcomes,
        and marks the pool for recycling.
        """
        if timeout is not None:
            batch = [dataclasses.replace(job, timeout=timeout) for job in batch]
        with self._condition:
            pool = self._ensure()
            pending = [(job, pool.apply_async(run_pooled_job, (job,))) for job in batch]
            self._active += 1
            self._progress_mark = time.monotonic()
        # Collected without the lock: concurrent batches interleave on the
        # same workers, and /health introspection never blocks on us.
        wedged = False
        outcomes: list[JobOutcome] = []
        try:
            for job, handle in pending:
                outcome = None
                while outcome is None:
                    try:
                        outcome = handle.get(
                            WATCHDOG_POLL if timeout is not None else None
                        )
                        self._progress_mark = time.monotonic()
                    except multiprocessing.TimeoutError:
                        stall = time.monotonic() - self._progress_mark
                        if stall <= timeout + WATCHDOG_GRACE:
                            continue  # the pool is making progress; wait on
                        # No completion from *any* worker for a whole job
                        # budget: the pool is wedged beyond its own
                        # in-process enforcement.  Later strikes in the
                        # same collection are collateral — those jobs were
                        # likely queued behind the wedge and may never
                        # have started; say so rather than blaming them.
                        error = (
                            f"watchdog: no worker progress for {stall:.1f}s "
                            f"(budget {timeout}s per job)"
                            if not wedged else
                            "watchdog: batch aborted after a wedged worker; "
                            "this job may never have started"
                        )
                        wedged = True
                        outcome = JobOutcome(
                            job.index, "<unknown>", job.target_name,
                            "timeout", error_type="JobTimeout", error=error,
                        )
                if progress is not None:
                    progress(outcome)
                outcomes.append(outcome)
        finally:
            with self._condition:
                self._active -= 1
                if wedged:
                    # The stuck worker still occupies a slot; defer the
                    # rebuild to the next _ensure, once concurrent batches
                    # (whose outcomes are still being collected) drain.
                    self._stale = True
                self._condition.notify_all()
        return outcomes
