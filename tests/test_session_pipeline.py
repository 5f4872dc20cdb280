"""Tests for the session API and the phase pipeline (skip/replace/hooks)."""

import pytest

from repro.accuracy.sampler import SampleConfig
from repro.api import (
    PHASE_NAMES,
    ChassisSession,
    CompileConfig,
    CompilePipeline,
    PipelineError,
)
from repro.core.pipeline import PipelineContext, SamplePhase
from repro.service.cache import CompileCache
from repro.service.scheduler import JobOutcome

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"


@pytest.fixture(scope="module")
def session():
    return ChassisSession(config=FAST, sample_config=SAMPLES)


class TestPipelinePhases:
    def test_default_runs_all_phases_in_order(self, session):
        seen = []
        ctx = session.run_pipeline(
            SRC, "c99", before=lambda name, ctx: seen.append(name)
        )
        assert seen == list(PHASE_NAMES)
        assert ctx.result is not None

    def test_skip_score_yields_train_frontier_only(self, session):
        ctx = session.run_pipeline(SRC, "c99", skip=("score",))
        assert ctx.result is None and ctx.test_frontier is None
        assert len(ctx.train_frontier) >= 1

    def test_improve_is_the_score_free_variant(self, session):
        frontier = session.improve(SRC, "c99")
        assert all(c.origin != "input" for c in frontier)
        assert len(frontier) >= 1

    def test_skip_regimes(self, session):
        seen = []
        result = session.run_pipeline(
            SRC, "c99", skip=("regimes",), after=lambda name, ctx: seen.append(name)
        ).result
        assert "regimes" not in seen and "score" in seen
        assert all(c.origin != "regimes" for c in result.frontier)

    def test_replace_sample_phase_with_presupplied_samples(self, session):
        core = session.parse(SRC)
        fixed = session.samples_for(core)

        class FixedSamples:
            name = "sample"

            def run(self, ctx):
                ctx.samples = fixed

        result = session.run_pipeline(
            SRC, "c99", replace={"sample": FixedSamples()}
        ).result
        assert result.samples is fixed

    def test_unknown_phase_name_rejected(self):
        with pytest.raises(ValueError, match="unknown phase"):
            CompilePipeline(skip=("nonesuch",))
        with pytest.raises(ValueError, match="unknown phase"):
            CompilePipeline(replace={"nonesuch": SamplePhase()})

    def test_skipping_sample_without_samples_fails_loudly(self, session):
        with pytest.raises(PipelineError, match="ctx.samples"):
            session.run_pipeline(SRC, "c99", skip=("sample",))

    def test_context_require_names_the_phase(self):
        ctx = PipelineContext(target=None)
        with pytest.raises(PipelineError, match="'improve'"):
            ctx.require("samples", "improve")


class TestChassisSession:
    def test_compile_accepts_source_text_and_target_names(self, session):
        result = session.compile(SRC, "c99")
        assert result.target.name == "c99"
        assert result.core.name == "f"

    def test_persistent_cache_round_trip(self, tmp_path):
        session = ChassisSession(config=FAST, sample_config=SAMPLES, cache=str(tmp_path))
        cold = session.compile(SRC, "c99")
        assert session.stats.compiles == 1 and session.stats.cache_hits == 0
        warm = session.compile(SRC, "c99")
        assert session.stats.compiles == 1 and session.stats.cache_hits == 1
        assert [(c.cost, c.error) for c in warm.frontier] == [
            (c.cost, c.error) for c in cold.frontier
        ]

    def test_customized_pipeline_bypasses_cache(self, tmp_path):
        session = ChassisSession(config=FAST, sample_config=SAMPLES, cache=str(tmp_path))
        session.compile(SRC, "c99")
        session.run_pipeline(SRC, "c99", skip=("regimes",))
        # the partial run neither hit nor stored
        assert session.stats.cache_hits == 0 and session.cache.stats.hits == 0
        assert session.cache.stats.stores == 1

    def test_caller_supplied_samples_bypass_the_cache(self, tmp_path):
        """Arbitrary samples must never poison the persistent cache."""
        session = ChassisSession(config=FAST, sample_config=SAMPLES, cache=str(tmp_path))
        core = session.parse(SRC)
        session.run_pipeline(core, "c99", samples=session.samples_for(core))
        assert session.cache.stats.stores == 0
        # a plain compile afterwards is a miss, not a (possibly wrong) hit
        session.compile(core, "c99")
        assert session.stats.cache_hits == 0
        assert session.cache.stats.stores == 1

    def test_sample_cache_returns_same_object(self, session):
        core = session.parse(SRC)
        assert session.samples_for(core) is session.samples_for(core)

    def test_compile_payload_warm_hit_is_stored_bytes(self, tmp_path):
        import json

        session = ChassisSession(config=FAST, sample_config=SAMPLES, cache=str(tmp_path))
        cold, cached_cold = session.compile_payload(SRC, "c99")
        warm, cached_warm = session.compile_payload(SRC, "c99")
        assert (cached_cold, cached_warm) == (False, True)
        assert json.dumps(cold) == json.dumps(warm)

    def test_compile_many_through_session(self, tmp_path):
        session = ChassisSession(
            config=FAST, sample_config=SAMPLES, cache=CompileCache(tmp_path)
        )
        core = session.parse(SRC)
        outcomes = session.compile_many([(core, "c99"), (core, "arith")])
        assert [o.status for o in outcomes] == ["ok", "ok"]
        warm = session.compile_many([(core, "c99"), (core, "arith")])
        assert all(o.cached for o in warm)
        assert session.stats.batches == 2

    def test_submit_poll_result(self, session):
        handle = session.submit(SRC, "c99")
        assert handle.benchmark == "f" and handle.target == "c99"
        result = handle.result(timeout=120)
        assert handle.poll() == "ok" and handle.done()
        assert len(result.frontier) >= 1

    def test_submit_failure_is_captured_in_handle(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        bad = "(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)"
        handle = session.submit(bad, "c99")
        with pytest.raises(Exception):
            handle.result(timeout=120)
        assert handle.poll() == "failed"
        session.close()

    def test_closed_session_rejects_submit(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(SRC, "c99")

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ChassisSession(jobs=0)
        with pytest.raises(ValueError):
            ChassisSession(timeout=0)

    def test_simulator_is_cached_and_cost_model_resolves_names(self, session, c99):
        assert session.simulator(c99) is session.simulator(c99)
        assert session.cost_model("c99").target is c99

    def test_targets_info_is_jsonable(self, session):
        import json

        info = session.targets_info()
        assert any(row["name"] == "c99" for row in info)
        json.dumps(info)


def test_jobspec_is_a_real_alias_not_a_string():
    from repro.service.api import JobSpec

    assert not isinstance(JobSpec, str)


def test_progress_event_shapes_match_for_hits_and_fresh_jobs(tmp_path):
    """Cache hits and fresh jobs both reach ``progress`` as JobOutcomes."""
    session = ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=CompileCache(tmp_path)
    )
    core = session.parse(SRC)
    cold_events, warm_events = [], []
    session.compile_many([(core, "c99")], progress=cold_events.append)
    session.compile_many([(core, "c99")], progress=warm_events.append)
    assert [type(e) for e in cold_events + warm_events] == [JobOutcome] * 2
    assert not cold_events[0].cached and warm_events[0].cached
    assert cold_events[0].status == warm_events[0].status == "ok"
