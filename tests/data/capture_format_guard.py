"""Capture the f32/f64 byte-identity baseline for the format refactor.

Run from the repo root (``PYTHONPATH=src python
tests/data/capture_format_guard.py``) to (re)generate
``format_guard_baseline.json``: for a small sample of benchmarks x targets
it records the job fingerprint and a SHA-256 of the canonical serialized
``CompileResult`` payload.  ``tests/test_format_guard.py`` recomputes both
and compares — identical cores must produce byte-identical results across
the number-format refactor, and fingerprints may not change for f32/f64
(warm caches must survive).  The baseline records the ``COMPILER_EPOCH``
it was captured under, and the script refuses to record different digests
under that same epoch (``baseline_epoch.py``).

The binary32 twin of ``sqrt-sub`` is captured too, so the guard pins both
halves of the old string dichotomy.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.accuracy.sampler import SampleConfig
from repro.benchsuite import core_named
from repro.core.loop import CompileConfig
from repro.ir.fpcore import parse_fpcore
from repro.service.cache import COMPILER_EPOCH, job_fingerprint
from repro.service.results import result_to_dict
from repro.session import ChassisSession
from repro.targets import get_target

SAMPLE = (
    ("sqrt-sub", "c99"),
    ("logistic", "c99"),
    ("sqrt-sub", "python"),
    ("quad-minus", "fdlibm"),
)

F32_CORE = (
    "(FPCore sqrt-sub-f32 (x) :precision binary32 :pre (< 0.001 x 1000) "
    "(- (sqrt (+ x 1)) (sqrt x)))"
)

CONFIG = CompileConfig(iterations=1, localize_points=8)
SAMPLES = SampleConfig(n_train=16, n_test=16)


def canonical_digest(payload: dict) -> str:
    # ``elapsed`` is wall-clock time — the only nondeterministic field in a
    # serialized result.  Everything else must be byte-stable run to run.
    payload = {k: v for k, v in payload.items() if k != "elapsed"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def capture() -> dict:
    rows = []
    with ChassisSession(config=CONFIG, sample_config=SAMPLES) as session:
        jobs = [(core_named(name), target) for name, target in SAMPLE]
        jobs.append((parse_fpcore(F32_CORE), "c99"))
        for core, target_name in jobs:
            target = get_target(target_name)
            result = session.compile(core, target)
            rows.append({
                "benchmark": core.name,
                "precision": core.precision,
                "target": target_name,
                "fingerprint": job_fingerprint(core, target, CONFIG, SAMPLES),
                "payload_sha256": canonical_digest(result_to_dict(result)),
            })
    return {
        "description": __doc__.splitlines()[0],
        "epoch": COMPILER_EPOCH,
        "jobs": rows,
    }


if __name__ == "__main__":
    from baseline_epoch import write_baseline

    write_baseline(Path(__file__).with_name("format_guard_baseline.json"), capture())
