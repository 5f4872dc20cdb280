"""The worker pool's garbage-collection policy and the cycle-free pipeline.

Pool workers freeze their warm heap once and run each job with automatic
collection off, ending it with one collection (``service/pool.py``).  That
is only safe because a compile makes no reference cycles, and only
correct if the policy never reaches the caller's process.
"""

import gc

import pytest

from repro.benchsuite import core_named
from repro.deadline import DeadlineExceeded
from repro.service import pool as pool_module
from repro.service.scheduler import BatchJob, JobTimeout
from repro.session import ChassisSession
from repro.targets import get_target

#: One core for each target of the perfbench serve and batch panels.
ONE_PER_TARGET = (
    ("sqrt-sub", "c99"),
    ("tan-sub-sin", "fdlibm"),
    ("rcp-diff", "avx"),
    ("cube-diff", "arith"),
)


def test_compiles_leave_no_cyclic_garbage():
    with ChassisSession() as session:
        gc.collect()
        gc.disable()
        try:
            for name, target in ONE_PER_TARGET:
                session.compile(core_named(name), get_target(target))
            garbage = gc.collect()
        finally:
            gc.enable()
    assert garbage == 0


def test_pooled_compiles_leave_the_callers_collector_alone():
    frozen = gc.get_freeze_count()
    with ChassisSession(jobs=2) as session:
        outcomes = session.compile_many([(core_named("sqrt-sub"), "c99")])
        workers = session.worker_pool()._pool
        # The workers froze the heap they started with, and collect
        # automatically again between jobs.
        assert workers.apply(gc.get_freeze_count) > 0
        assert workers.apply(gc.isenabled)
    assert [outcome.status for outcome in outcomes] == ["ok"]
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_job_wrapper_pauses_collection_only_for_the_job(monkeypatch):
    seen = []

    def fake_run_job(job):
        seen.append(gc.isenabled())
        return {"index": job.index}

    monkeypatch.setattr(pool_module, "run_job", fake_run_job)
    assert pool_module.run_pooled_job(BatchJob(3, "", "c99")) == {"index": 3}
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize(
    "error",
    [DeadlineExceeded("late"), JobTimeout("late"), RuntimeError("boom")],
    ids=["deadline", "job-timeout", "runtime-error"],
)
def test_job_wrapper_reenables_collection_when_the_job_raises(monkeypatch, error):
    def failing_run_job(job):
        assert not gc.isenabled()
        raise error

    monkeypatch.setattr(pool_module, "run_job", failing_run_job)
    with pytest.raises(type(error)):
        pool_module.run_pooled_job(BatchJob(0, "", "c99"))
    assert gc.isenabled()
