"""Engine counters: what the e-graph engine did, aggregated per consumer.

The v2 engine (head-indexed e-matching, worklist extraction) is
observable: every saturation run and snapshot build records into the
*engine-stats sink* armed on the current thread, when one is armed.  The
session arms a sink around each pipeline run and folds the result into
:class:`~repro.session.SessionStats`, so ``/health`` and
``repro compile --json`` report real engine work — e-nodes built,
matches found/applied, rule searches and why each saturation stopped —
without any engine API threading a stats object through every call site.

The sink is thread-local, so concurrent compilations on different
threads count into their own sinks.  A job compiled by
:func:`~repro.service.scheduler.run_job` — in a worker process or inline —
arms its own sink and ships the counters home as a dict on
``JobOutcome.engine``, which the session folds into its totals.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class EngineStats:
    """Counters over the e-graph engine's work.

    ``searches`` counts per-rule pattern searches actually run (the
    runner's head filter skips rules that cannot match);
    ``stop_reasons`` counts saturation runs by why they stopped
    (``"saturated"``, ``"node-limit"`` or ``"iteration-limit"``).
    """

    #: Distinct e-nodes created during saturation runs.
    enodes_built: int = 0
    #: Effective (graph-changing) matches found by rule searches.
    matches_found: int = 0
    #: Matches actually applied (post side-condition, within node budget).
    matches_applied: int = 0
    #: Per-rule pattern searches run.
    searches: int = 0
    #: Saturation runs (one per run_rules call).
    saturations: int = 0
    #: Class repairs run by rebuilds.
    rebuild_repairs: int = 0
    #: Stale e-nodes (own nodes and parent entries holding a merged-away
    #: class id) that rebuilds re-canonicalized.
    rebuild_stale_nodes: int = 0
    #: Snapshot views built: one per generation that was searched (the
    #: matcher's ``by_head``) plus one per generation that was extracted
    #: from (the extractors' ``nodes``/``parents``).
    snapshots_built: int = 0
    #: Searches/extractions that reused an existing same-generation
    #: snapshot (e.g. every search after an iteration's first, or a second
    #: cost function pricing the same graph).
    snapshot_reuses: int = 0
    #: Rule name -> iterations whose search was truncated by the match budget.
    rules_truncated: dict[str, int] = field(default_factory=dict)
    #: Stop reason -> saturation runs.
    stop_reasons: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "EngineStats") -> None:
        """Fold ``other``'s counters into this one."""
        for fld in dataclasses.fields(self):
            mine = getattr(self, fld.name)
            if isinstance(mine, dict):
                for name, count in getattr(other, fld.name).items():
                    mine[name] = mine.get(name, 0) + count
            else:
                setattr(
                    self, fld.name,
                    getattr(self, fld.name) + getattr(other, fld.name),
                )

    def any(self) -> bool:
        """True when at least one counter is non-zero."""
        return any(
            getattr(self, fld.name) for fld in dataclasses.fields(self)
        )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def stats_delta(after: dict, before: dict) -> dict:
    """``after - before`` over two :meth:`EngineStats.as_dict` snapshots.

    Used by ``repro compile --json`` to attribute engine work to one job
    out of a session's running totals.
    """
    delta: dict = {}
    for key, value in after.items():
        if isinstance(value, dict):
            prior = before.get(key, {})
            sub = {
                name: count - prior.get(name, 0)
                for name, count in value.items()
                if count - prior.get(name, 0)
            }
            delta[key] = sub
        else:
            delta[key] = value - before.get(key, 0)
    return delta


_LOCAL = threading.local()


def current_sink() -> EngineStats | None:
    """The engine-stats sink armed on this thread, if any."""
    return getattr(_LOCAL, "sink", None)


@contextmanager
def engine_stats_sink(stats: EngineStats):
    """Arm ``stats`` as this thread's engine-stats sink for the region.

    Re-entrant: an inner sink shadows the outer one (the inner region's
    work is attributed to the inner sink only), and the previous sink is
    restored on exit.
    """
    previous = current_sink()
    _LOCAL.sink = stats
    try:
        yield stats
    finally:
        _LOCAL.sink = previous
