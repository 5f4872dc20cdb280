"""Capture the payload baseline of the serve and batch benchmark panels.

Run from the repo root (``PYTHONPATH=src python
tests/data/capture_panel_guard.py``) to (re)generate
``panel_guard_baseline.json``: for the 12 distinct (core, target) pairs of
the perfbench ``serve`` and ``batch`` panels it records a SHA-256 of the
canonical serialized ``CompileResult`` payload (``elapsed`` dropped) at the
default ``CompileConfig()`` and ``SampleConfig()`` that users get.
``tests/test_panel_guard.py`` recomputes the digests and compares them, so
a change that claims "payloads unchanged" is checked on every test run and
every oracle backend, not by hand.

The pairs are copied in as literals rather than imported from the
benchmark, so editing the benchmark's panels cannot silently move the
guard.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.benchsuite import core_named
from repro.service.results import result_to_dict
from repro.session import ChassisSession
from repro.targets import get_target

#: The serve panel (six c99 cores), then the batch panel's pairs that the
#: serve panel does not already hold.
PANEL = (
    ("sqrt-sub", "c99"),
    ("expm1-naive", "c99"),
    ("rcp-diff", "c99"),
    ("quad-disc", "c99"),
    ("harmonic-mean", "c99"),
    ("sum-sq-diff", "c99"),
    ("tan-sub-sin", "fdlibm"),
    ("x-sub-sin", "fdlibm"),
    ("sqrt-sub", "avx"),
    ("rcp-diff", "avx"),
    ("cube-diff", "arith"),
    ("lorentz", "arith"),
)


def canonical_digest(payload: dict) -> str:
    # ``elapsed`` is wall-clock time, the only nondeterministic field.
    payload = {k: v for k, v in payload.items() if k != "elapsed"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def capture(pooled: bool = False) -> dict:
    """The panel's digests, compiled one by one in this process, or with
    ``pooled`` in one ``compile_many`` call on a two-worker pool."""
    if pooled:
        with ChassisSession(jobs=2) as session:
            outcomes = session.compile_many(
                [(core_named(name), target_name) for name, target_name in PANEL]
            )
        payloads = [outcome.payload for outcome in outcomes]
    else:
        with ChassisSession() as session:
            payloads = [
                result_to_dict(
                    session.compile(core_named(name), get_target(target_name))
                )
                for name, target_name in PANEL
            ]
    rows = [
        {
            "benchmark": name,
            "target": target_name,
            "payload_sha256": canonical_digest(payload),
        }
        for (name, target_name), payload in zip(PANEL, payloads)
    ]
    return {"description": __doc__.splitlines()[0], "jobs": rows}


if __name__ == "__main__":
    out = Path(__file__).with_name("panel_guard_baseline.json")
    baseline = capture()
    out.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {len(baseline['jobs'])} baseline rows to {out}")
