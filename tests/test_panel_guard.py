"""Byte-identity guard over the serve and batch benchmark panels.

Recompiles the 12 distinct (core, target) pairs of the perfbench ``serve``
and ``batch`` panels at the default configuration, inline and on a
two-worker pool, and compares each payload's SHA-256 (``elapsed``
dropped) with ``tests/data/panel_guard_baseline.json``.  A change that keeps payloads
byte-identical must pass it unchanged, on every oracle backend.

Regenerate the baseline (only when an *intentional* output change lands)
with ``PYTHONPATH=src python tests/data/capture_panel_guard.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_DATA = Path(__file__).parent / "data"


def _load_capture():
    spec = importlib.util.spec_from_file_location(
        "capture_panel_guard", _DATA / "capture_panel_guard.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def capture_module():
    return _load_capture()


@pytest.fixture(scope="module")
def baseline():
    return json.loads((_DATA / "panel_guard_baseline.json").read_text())


def test_baseline_covers_the_panel(capture_module, baseline):
    pairs = [(r["benchmark"], r["target"]) for r in baseline["jobs"]]
    assert pairs == list(capture_module.PANEL)
    assert len(set(pairs)) == 12


def _digests(rows) -> dict:
    return {(r["benchmark"], r["target"]): r["payload_sha256"] for r in rows}


def test_panel_payloads_byte_identical(capture_module, baseline):
    got = _digests(capture_module.capture()["jobs"])
    assert got == _digests(baseline["jobs"])


def test_pooled_panel_payloads_byte_identical(capture_module, baseline):
    got = _digests(capture_module.capture(pooled=True)["jobs"])
    assert got == _digests(baseline["jobs"])
