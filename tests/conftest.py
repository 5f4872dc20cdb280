"""Shared fixtures: targets are expensive to build, so build them once."""

from __future__ import annotations

import itertools
import time

import pytest

from repro.accuracy import SampleConfig, sample_core
from repro.ir import parse_fpcore
from repro.targets import get_target


@pytest.fixture
def jumping_clock(monkeypatch):
    """Call the returned function to make every later ``time.monotonic()``
    read 1000 s past the one before: any wall-clock budget checked after
    that is exceeded at its first check."""

    def arm():
        ticks = itertools.count(step=1000.0)
        monkeypatch.setattr(time, "monotonic", lambda: next(ticks))

    return arm


@pytest.fixture(scope="session")
def avx():
    return get_target("avx")


@pytest.fixture(scope="session")
def c99():
    return get_target("c99")


@pytest.fixture(scope="session")
def python_target():
    return get_target("python")


@pytest.fixture(scope="session")
def julia():
    return get_target("julia")


@pytest.fixture(scope="session")
def vdt():
    return get_target("vdt")


@pytest.fixture(scope="session")
def fdlibm():
    return get_target("fdlibm")


@pytest.fixture(scope="session")
def arith():
    return get_target("arith")


@pytest.fixture(scope="session")
def numpy_target():
    return get_target("numpy")


@pytest.fixture(scope="session")
def sqrt_sub_core():
    return parse_fpcore(
        '(FPCore sqrt-sub (x) :name "sqrt-sub" :pre (and (<= 1e8 x) (<= x 1e18))'
        " (- (sqrt (+ x 1)) (sqrt x)))"
    )


@pytest.fixture(scope="session")
def acoth_core():
    return parse_fpcore(
        "(FPCore acoth (x) :pre (and (< 0.001 (fabs x)) (< (fabs x) 0.999))"
        " (* 1/2 (log (/ (+ 1 x) (- 1 x)))))"
    )


@pytest.fixture(scope="session")
def small_samples(sqrt_sub_core):
    return sample_core(sqrt_sub_core, SampleConfig(n_train=16, n_test=16, seed=7))
