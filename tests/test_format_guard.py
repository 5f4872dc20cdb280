"""f32/f64 byte-identity guard across the number-format refactor.

Recomputes the job fingerprints and canonical ``CompileResult`` payload
digests for the benchmark x target sample pinned in
``tests/data/format_guard_baseline.json`` and compares them byte-for-byte:

* **fingerprints may not change** — warm persistent caches must survive
  format-layer changes for binary32/binary64 cores;
* **payloads may not change** — the whole compile pipeline (sampling,
  oracle, scoring, emission) must produce bit-identical results.

Regenerate the baseline (only when an *intentional* behavior change lands,
after bumping ``COMPILER_EPOCH``) with
``PYTHONPATH=src python tests/data/capture_format_guard.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.service.cache import COMPILER_EPOCH

_DATA = Path(__file__).parent / "data"


def _load_capture():
    spec = importlib.util.spec_from_file_location(
        "capture_format_guard", _DATA / "capture_format_guard.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recaptured():
    return _load_capture().capture()


@pytest.fixture(scope="module")
def baseline():
    return json.loads((_DATA / "format_guard_baseline.json").read_text())


def test_baseline_covers_both_legacy_formats(baseline):
    precisions = {row["precision"] for row in baseline["jobs"]}
    assert precisions == {"binary32", "binary64"}


def test_fingerprints_unchanged(recaptured, baseline):
    """Cache keys are stable: a warm cache survives the format layer."""
    want = {
        (r["benchmark"], r["target"]): r["fingerprint"]
        for r in baseline["jobs"]
    }
    got = {
        (r["benchmark"], r["target"]): r["fingerprint"]
        for r in recaptured["jobs"]
    }
    assert got == want


def test_payloads_byte_identical(recaptured, baseline):
    """Full compile results are bit-identical for f32/f64 benchmarks."""
    want = {
        (r["benchmark"], r["target"]): r["payload_sha256"]
        for r in baseline["jobs"]
    }
    got = {
        (r["benchmark"], r["target"]): r["payload_sha256"]
        for r in recaptured["jobs"]
    }
    assert got == want


def test_baseline_epoch_is_current(baseline):
    assert baseline["epoch"] == COMPILER_EPOCH
