"""Thread-safe cooperative deadlines for bounding compilations.

The original per-job timeout was SIGALRM-only, which arms exclusively in a
process's *main* thread: every compile running off the main thread — serve
handler threads, :meth:`~repro.session.ChassisSession.submit` workers —
silently ran unbounded.  This module is the thread-safe replacement: a
per-thread absolute deadline (monotonic clock) armed with the
:func:`deadline` context manager and polled with :func:`check_deadline` at
natural cancellation points — pipeline phase boundaries, improvement-loop
iterations, sampler batches.  Worker processes keep SIGALRM as a hard
backstop (they run jobs in their main thread), so the two mechanisms
compose: cooperative checks bound well-behaved code everywhere, the alarm
catches code that never reaches a checkpoint.

Deadlines nest: an inner :func:`deadline` can only tighten the bound, never
extend it, so a caller's budget is honored by everything beneath it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class DeadlineExceeded(BaseException):
    """A compilation ran past its deadline.

    Derives from BaseException on purpose (same rationale as the
    scheduler's ``JobTimeout``, which subclasses this): the sampler and
    e-graph code use broad ``except Exception`` guards around per-point
    evaluation, which would otherwise swallow the cancellation and let a
    timed-out job run to completion.
    """


class _State(threading.local):
    """Per-thread deadline; the class default serves threads that never
    armed one, so reading it never raises."""

    deadline: float | None = None


_STATE = _State()


def current_deadline() -> float | None:
    """This thread's absolute deadline (monotonic seconds), or None."""
    return _STATE.deadline


def remaining() -> float | None:
    """Seconds left before this thread's deadline (None = unbounded)."""
    dl = current_deadline()
    return None if dl is None else dl - time.monotonic()


@contextmanager
def deadline(seconds: float | None):
    """Bound the enclosed work to ``seconds`` (None = leave unbounded).

    Per-thread and re-entrant: nesting keeps the *tighter* of the inner
    and outer deadlines, and the previous deadline is restored on exit.
    The bound is cooperative — it fires at the next
    :func:`check_deadline` — so it measures compute inside the region,
    not time spent queueing for locks before entering it.
    """
    if seconds is None:
        yield
        return
    if seconds <= 0:
        raise ValueError(f"deadline must be positive, got {seconds}")
    previous = current_deadline()
    mine = time.monotonic() + seconds
    _STATE.deadline = mine if previous is None else min(mine, previous)
    try:
        yield
    finally:
        _STATE.deadline = previous


def check_deadline() -> None:
    """Raise :class:`DeadlineExceeded` if this thread's deadline passed.

    Cheap enough for per-rule use: one attribute read, plus a monotonic
    read when a deadline is armed.
    """
    dl = _STATE.deadline
    if dl is not None and time.monotonic() > dl:
        raise DeadlineExceeded(f"deadline exceeded by {time.monotonic() - dl:.3f}s")
