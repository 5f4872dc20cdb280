"""Byte-identity guard over the serve and batch benchmark panels.

Recompiles the 12 distinct (core, target) pairs of the perfbench ``serve``
and ``batch`` panels at the default configuration, inline and on a
two-worker pool, and compares each payload's SHA-256 (``elapsed``
dropped) with ``tests/data/panel_guard_baseline.json``.  A change that keeps payloads
byte-identical must pass it unchanged, on every oracle backend.

Regenerate the baseline (only when an *intentional* output change lands,
after bumping ``COMPILER_EPOCH``) with
``PYTHONPATH=src python tests/data/capture_panel_guard.py``; it refuses
to record new digests under the epoch of the old ones.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.service.cache import COMPILER_EPOCH

_DATA = Path(__file__).parent / "data"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def capture_module():
    return _load("capture_panel_guard")


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


def test_baseline_epoch_is_current(baseline):
    assert baseline["epoch"] == COMPILER_EPOCH


def test_capture_refuses_new_digests_under_the_same_epoch(baseline, tmp_path):
    write_baseline = _load("baseline_epoch").write_baseline
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    moved = json.loads(json.dumps(baseline))
    moved["jobs"][3]["payload_sha256"] = "0" * 64
    with pytest.raises(SystemExit, match="quad-disc/c99"):
        write_baseline(path, moved)
    assert json.loads(path.read_text()) == baseline
    # The same digests, or new ones under a bumped epoch, are written.
    write_baseline(path, baseline)
    moved["epoch"] = baseline["epoch"] + 1
    write_baseline(path, moved)
    assert json.loads(path.read_text()) == moved
