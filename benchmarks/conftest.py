"""Shared configuration for the figure-regeneration benchmark harness.

Every ``bench_*`` module regenerates one of the paper's tables or figures at
a laptop-tractable scale and writes the rendered rows/series to
``results/<figure>.txt`` (also echoed to stdout under ``pytest -s``).

Scale knobs (environment variables):

* ``REPRO_BENCH_N``       — benchmarks per figure (default 4)
* ``REPRO_BENCH_POINTS``  — train/test points per benchmark (default 24)
* ``REPRO_BENCH_ITERS``   — improvement-loop iterations (default 1)

Raising them approaches the paper's settings (547 benchmarks, 10 000
points); the shapes of the tables ``repro report`` regenerates (README,
"Reports & provenance") already appear at the defaults.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.accuracy import SampleConfig
from repro.core import CompileConfig
from repro.experiments import ExperimentConfig
from repro.provenance.provider import PREFERRED_BENCHMARKS, SessionDataProvider

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "6"))
BENCH_POINTS = int(os.environ.get("REPRO_BENCH_POINTS", "24"))
BENCH_ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "1"))
#: Figure 7 empirical mode: wall-clock timings of executed code instead of
#: the (deterministic) performance simulator.
BENCH_EMPIRICAL = os.environ.get("REPRO_BENCH_EMPIRICAL", "") not in ("", "0")


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    return ExperimentConfig(
        CompileConfig(iterations=BENCH_ITERS, localize_points=8, max_variants=20),
        SampleConfig(n_train=BENCH_POINTS, n_test=BENCH_POINTS),
    )


@pytest.fixture(scope="session")
def bench_cores():
    """The benchmark subset used by the figure harnesses — the same
    preference-ordered corpus ``repro report`` slices, so the harness and
    the report command regenerate figures from identical inputs."""
    from repro.benchsuite import core_named

    return [core_named(name) for name in PREFERRED_BENCHMARKS[:BENCH_N]]


@pytest.fixture(scope="session")
def data_provider(experiment_config, bench_cores) -> SessionDataProvider:
    """The figure-regeneration seam every ``bench_fig*`` module drives.

    Session-scoped on purpose: the provider memoizes each experiment run,
    so figures sharing data (8 and 9 are two views of one Chassis-vs-
    Herbie comparison) compute it once per pytest session, exactly like
    ``repro report`` does."""
    return SessionDataProvider(
        experiment_config, bench_cores, clang_empirical=BENCH_EMPIRICAL
    )


def write_result(name: str, text: str) -> None:
    """Persist one figure's rendered output and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n{'=' * 72}\n{text}")
