"""Write a guard baseline without losing track of the compiler epoch.

Every baseline records the ``COMPILER_EPOCH`` (``repro.service.cache``)
its digests were captured under.  A change that moves payloads must bump
that epoch, so warm caches and ledgers never pass old bytes off as new
ones; re-capturing different digests under the same epoch is exactly the
bump that was forgotten, so :func:`write_baseline` refuses it.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Row fields that are digests; every other field names the job.
DIGESTS = ("fingerprint", "payload_sha256")


def _job(row: dict) -> tuple:
    return tuple((key, value) for key, value in row.items() if key not in DIGESTS)


def changed_rows(old: dict, new: dict) -> list[dict]:
    """The rows of ``new`` whose digests differ from ``old``'s for the
    same job, when both baselines carry the same epoch."""
    if old.get("epoch") != new["epoch"]:
        return []
    before = {_job(row): row for row in old["jobs"]}
    return [
        row for row in new["jobs"]
        if _job(row) in before and before[_job(row)] != row
    ]


def write_baseline(path: Path, baseline: dict) -> None:
    """Write ``baseline`` to ``path``; exit with an error instead when it
    would change digests recorded there under the same epoch."""
    if path.exists():
        changed = changed_rows(json.loads(path.read_text()), baseline)
        if changed:
            names = ", ".join(
                f"{row['benchmark']}/{row['target']}" for row in changed
            )
            raise SystemExit(
                f"{path.name}: digests of {names} changed under compiler "
                f"epoch {baseline['epoch']}; bump COMPILER_EPOCH in "
                "repro/service/cache.py before re-capturing"
            )
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {len(baseline['jobs'])} baseline rows to {path}")
