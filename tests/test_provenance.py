"""Tests for the provenance subsystem: ledger, session/batch/server
integration, and the ``repro report`` generator's lineage contract."""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.accuracy.sampler import SampleConfig
from repro.api import (
    ChassisSession,
    CompileConfig,
    ProvenanceLedger,
    create_server,
    job_fingerprint,
)
from repro.provenance.ledger import LEDGER_SCHEMA, host_info
from repro.provenance.provider import FIGURES, FigureData, SessionDataProvider
from repro.provenance.report import generate_report
from repro.service.scheduler import JobOutcome

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
SRC2 = "(FPCore g (x) :pre (< 0.1 x 1) (+ (* x x) 1))"
INFEASIBLE = "(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)"


def fast_session(cache_dir, **kwargs) -> ChassisSession:
    return ChassisSession(
        config=FAST, sample_config=SAMPLES, cache=str(cache_dir), **kwargs
    )


# --- the ledger itself ------------------------------------------------------------------


class TestLedger:
    def test_round_trip(self, tmp_path):
        ledger = ProvenanceLedger(tmp_path / "prov.jsonl")
        record = ledger.append({"schema": LEDGER_SCHEMA, "kind": "compile",
                                "fingerprint": "ab" * 32, "status": "ok"})
        assert record["kind"] == "compile"
        [read] = ledger.iter_records()
        assert read == record
        assert ledger.count() == 1
        info = ledger.info()
        assert info["records"] == 1 and info["appended"] == 1
        assert info["last_write"] is not None

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "prov.jsonl"
        ledger = ProvenanceLedger(path)
        ledger.append({"fingerprint": "aa" * 32, "status": "ok"})
        with open(path, "a") as handle:
            handle.write('{"torn": tra')  # a killed process mid-write
        ledger.append({"fingerprint": "bb" * 32, "status": "ok"})
        # NOTE: the torn line has no trailing newline, so the next O_APPEND
        # write glues onto it — both become one unparseable line.  That is
        # the documented worst case: skip, never raise.
        records = list(ledger.iter_records())
        assert all(isinstance(record, dict) for record in records)
        assert records  # the first record always survives

    def test_prefix_matching(self, tmp_path):
        ledger = ProvenanceLedger(tmp_path / "prov.jsonl")
        fingerprint = "deadbeef" * 8
        ledger.append({"fingerprint": fingerprint, "status": "ok"})
        assert ledger.records_for(fingerprint)
        assert ledger.records_for(fingerprint[:12])
        assert ledger.records_for("deadbeef")
        assert not ledger.records_for("dead")  # < 8 chars: too ambiguous
        assert not ledger.records_for("ab" * 32)

    def test_resolve_ignores_hits_and_matches_status(self, tmp_path):
        ledger = ProvenanceLedger(tmp_path / "prov.jsonl")
        fingerprint = "cd" * 32
        ledger.append({"fingerprint": fingerprint, "status": "ok",
                       "cache": "hit"})
        assert ledger.resolve(fingerprint) is None  # hits are not lineage
        ledger.append({"fingerprint": fingerprint, "status": "failed",
                       "cache": "none"})
        assert ledger.resolve(fingerprint) is None
        assert ledger.resolve(fingerprint, status="failed") is not None
        ledger.append({"fingerprint": fingerprint, "status": "ok",
                       "cache": "store", "mark": 1})
        ledger.append({"fingerprint": fingerprint, "status": "ok",
                       "cache": "store", "mark": 2})
        assert ledger.resolve(fingerprint)["mark"] == 2  # latest wins

    def test_concurrent_appends_never_tear(self, tmp_path):
        ledger = ProvenanceLedger(tmp_path / "prov.jsonl")
        n_threads, per_thread = 8, 50

        def writer(thread_index):
            for i in range(per_thread):
                ledger.append({"fingerprint": f"{thread_index:02d}" * 32,
                               "status": "ok", "i": i})

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = list(ledger.iter_records())
        assert len(records) == n_threads * per_thread
        assert ledger.appended == n_threads * per_thread
        for thread_index in range(n_threads):
            mine = [r for r in records
                    if r["fingerprint"] == f"{thread_index:02d}" * 32]
            assert sorted(r["i"] for r in mine) == list(range(per_thread))

    def test_close_reopens_lazily(self, tmp_path):
        ledger = ProvenanceLedger(tmp_path / "prov.jsonl")
        ledger.append({"fingerprint": "ee" * 32, "status": "ok"})
        ledger.close()
        ledger.append({"fingerprint": "ff" * 32, "status": "ok"})
        assert ledger.count() == 2

    def test_host_info_shape(self):
        info = host_info()
        assert info["hostname"] and info["python"] and info["platform"]
        assert "cc" in info and "commit" in info


# --- session integration ----------------------------------------------------------------


class TestSessionLedger:
    def test_store_then_hit_records(self, tmp_path):
        session = fast_session(tmp_path / "cache")
        try:
            session.compile(SRC, "c99")
            session.compile(SRC, "c99")
            records = list(session.ledger.iter_records())
            assert [r["cache"] for r in records] == ["store", "hit"]
            expected = job_fingerprint(
                session.parse(SRC), session.resolve_target("c99"),
                session.config, session.sample_config,
            )
            assert all(r["fingerprint"] == expected for r in records)
            assert records[0]["kind"] == "compile"
            assert records[0]["status"] == "ok"
            assert records[0]["elapsed"] > 0
            assert records[0]["engine"]  # fresh compiles carry deltas
            assert records[0]["benchmark"] == "f"
            assert records[0]["target"] == "c99"
            assert records[0]["host"]["hostname"]
            # the hit resolves to the original store record
            assert session.ledger.resolve(expected)["cache"] == "store"
        finally:
            session.close()

    def test_last_provenance_fresh_and_warm(self, tmp_path):
        session = fast_session(tmp_path / "cache")
        try:
            session.compile(SRC, "c99")
            fresh = session.last_provenance()
            assert fresh["cached"] is False
            assert fresh["record"]["cache"] == "store"
            assert fresh["origin"] == fresh["record"]
            session.compile(SRC, "c99")
            warm = session.last_provenance()
            assert warm["cached"] is True
            assert warm["record"]["cache"] == "hit"
            assert warm["origin"]["cache"] == "store"
            assert warm["fingerprint"] == fresh["fingerprint"]
        finally:
            session.close()

    def test_failed_compile_is_recorded(self, tmp_path):
        from repro.accuracy.sampler import SamplingError

        session = fast_session(tmp_path / "cache")
        try:
            with pytest.raises(SamplingError):
                session.compile(INFEASIBLE, "c99")
            [record] = session.ledger.iter_records()
            assert record["status"] == "failed"
            assert record["error_type"] == "SamplingError"
        finally:
            session.close()

    def test_no_cache_means_no_ledger(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        try:
            assert session.ledger is None
            session.compile(SRC2, "python")
            assert session.last_provenance() is None
            assert session.provenance_for("ab" * 32) == []
            assert session.health()["provenance"] is None
        finally:
            session.close()

    def test_env_opt_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROVENANCE", "0")
        session = fast_session(tmp_path / "cache")
        try:
            assert session.ledger is None
        finally:
            session.close()

    def test_explicit_ledger_path(self, tmp_path):
        session = ChassisSession(
            config=FAST, sample_config=SAMPLES,
            ledger=str(tmp_path / "elsewhere.jsonl"),
        )
        try:
            assert session.ledger.path == tmp_path / "elsewhere.jsonl"
        finally:
            session.close()

    def test_batch_records(self, tmp_path):
        session = fast_session(tmp_path / "cache")
        try:
            specs = [
                (session.parse(SRC), "c99"),
                (session.parse(SRC2), "python"),
                (session.parse(INFEASIBLE), "c99"),
            ]
            outcomes = session.compile_many(specs)
            records = [r for r in session.ledger.iter_records()
                       if r["kind"] == "batch"]
            assert len(records) == 3
            by_bench = {r["benchmark"]: r for r in records}
            assert by_bench["f"]["cache"] == "store"
            assert by_bench["nopoints"]["status"] == "failed"
            assert by_bench["nopoints"]["error_type"] == "SamplingError"
            # fingerprints in the ledger match the outcomes' own
            assert {r["fingerprint"] for r in records} == {
                o.fingerprint for o in outcomes
            }
            # a warm rerun appends hit records for the ok jobs
            session.compile_many(specs[:2])
            hits = [r for r in session.ledger.iter_records()
                    if r["kind"] == "batch" and r["cache"] == "hit"]
            assert len(hits) == 2
        finally:
            session.close()

    def test_batch_records_through_worker_pool(self, tmp_path):
        session = fast_session(tmp_path / "cache", jobs=2)
        try:
            outcomes = session.compile_many(
                [(session.parse(SRC), "c99"), (session.parse(SRC2), "c99")]
            )
            assert all(o.ok for o in outcomes)
            records = [r for r in session.ledger.iter_records()
                       if r["kind"] == "batch"]
            assert [r["cache"] for r in records] == ["store", "store"]
            # pooled jobs ship oracle counters home; the parent records them
            assert any(r.get("oracle") for r in records)
            # all records were written by THIS process (workers never write)
            assert session.ledger.appended == len(
                list(session.ledger.iter_records())
            )
        finally:
            session.close()

    def test_validate_writes_a_record(self, tmp_path):
        session = fast_session(tmp_path / "cache")
        try:
            report = session.validate(SRC2, "python")
            kinds = [r["kind"] for r in session.ledger.iter_records()]
            assert "validate" in kinds
            [record] = [r for r in session.ledger.iter_records()
                        if r["kind"] == "validate"]
            assert record["exec_backend"] == report.backend
            assert record["agreement"] == report.ok
        finally:
            session.close()


# --- HTTP front-end ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    session = fast_session(tmp_path_factory.mktemp("prov-serve-cache"))
    server = create_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _get(url):
    with urllib.request.urlopen(url, timeout=300) as response:
        return response.status, response.read()


def _post(url, obj):
    request = urllib.request.Request(
        url, data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return response.status, response.read()


class TestProvenanceEndpoint:
    def test_info_then_records(self, base_url):
        status, body = _post(base_url + "/compile", {"core": SRC, "target": "c99"})
        assert status == 200
        status, body = _get(base_url + "/provenance")
        assert status == 200
        info = json.loads(body)
        assert info["records"] >= 1 and info["path"].endswith("provenance.jsonl")
        # look up by full fingerprint and by prefix
        fingerprint = json.loads(
            _post(base_url + "/compile",
                  {"core": SRC, "target": "c99", "provenance": True})[1]
        )["provenance"]["fingerprint"]
        for query in (fingerprint, fingerprint[:12]):
            status, body = _get(base_url + f"/provenance?fingerprint={query}")
            assert status == 200
            payload = json.loads(body)
            assert payload["records"]
            assert all(r["fingerprint"] == fingerprint
                       for r in payload["records"])

    def test_unknown_fingerprint_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base_url + "/provenance?fingerprint=" + "ab" * 32)
        assert excinfo.value.code == 404

    def test_compile_provenance_knob_rides_outside_cached_bytes(self, base_url):
        body = {"core": SRC2, "target": "c99"}
        _status, cold = _post(base_url + "/compile", body)
        _status, warm = _post(base_url + "/compile", body)
        assert cold == warm  # plain warm bodies stay byte-identical
        _status, with_prov = _post(
            base_url + "/compile", {**body, "provenance": True}
        )
        payload = json.loads(with_prov)
        assert payload["provenance"]["cached"] is True
        assert payload["provenance"]["record"]["cache"] == "hit"
        # the warm response resolves to the original compilation's record
        origin = payload["provenance"]["origin"]
        assert origin["cache"] == "store" and origin["status"] == "ok"
        # the result payload itself is still the cached bytes
        assert payload["result"] == json.loads(cold)["result"]

    def test_health_has_a_provenance_section(self, base_url):
        _status, body = _get(base_url + "/health")
        provenance = json.loads(body)["provenance"]
        assert provenance is not None
        assert provenance["records"] >= 1
        assert provenance["appended"] >= 1

    def test_provenance_knob_must_be_boolean(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base_url + "/compile",
                  {"core": SRC, "target": "c99", "provenance": "yes"})
        assert excinfo.value.code == 400


def test_provenance_route_404_without_ledger():
    session = ChassisSession(config=FAST, sample_config=SAMPLES)  # no cache
    server = create_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"http://{host}:{port}/provenance")
        assert excinfo.value.code == 404
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        session.close()


# --- report generation ------------------------------------------------------------------


class StaticProvider:
    """A minimal DataProvider over canned figures + outcomes."""

    def __init__(self, figures):
        self._figures = figures

    def figures(self):
        return tuple(self._figures)

    def figure(self, key):
        return self._figures[key]


def _outcome(fingerprint, status="ok", cached=False):
    return JobOutcome(index=0, benchmark="f", target="c99", status=status,
                      fingerprint=fingerprint, cached=cached)


class TestGenerateReport:
    def _provider_and_ledger(self, tmp_path, *, record=True):
        fingerprint = "ab" * 32
        ledger = ProvenanceLedger(tmp_path / "prov.jsonl")
        if record:
            ledger.append({"fingerprint": fingerprint, "status": "ok",
                           "cache": "store"})
        fig = FigureData(
            figure="fig6", name="fig6_targets", title="Figure 6 — test",
            table="a table\n", data=[{"x": 1}],
            jobs=[_outcome(fingerprint, cached=True)],
        )
        return StaticProvider({"fig6": fig}), ledger

    def test_generate_writes_artifacts_with_manifest(self, tmp_path):
        provider, ledger = self._provider_and_ledger(tmp_path)
        out = tmp_path / "report"
        status, summary = generate_report(
            provider, ledger, out, figures=("fig6",)
        )
        assert status == 0
        artifact = json.loads((out / "fig6_targets.json").read_text())
        assert artifact["table"] == "a table\n"
        assert artifact["provenance"]["jobs"][0]["ledger"] == "resolved"
        assert artifact["provenance"]["host"]["hostname"]
        assert (out / "fig6_targets.md").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["figures"]["fig6"]["compiles"]["cached"] == 1
        assert (out / "report.md").read_text().startswith("# Reproduction report")

    def test_check_passes_on_identical_regeneration(self, tmp_path):
        provider, ledger = self._provider_and_ledger(tmp_path)
        out = tmp_path / "report"
        generate_report(provider, ledger, out, figures=("fig6",))
        status, summary = generate_report(
            provider, ledger, out, figures=("fig6",), check=True
        )
        assert status == 0 and not summary["problems"]

    def test_check_fails_on_table_drift(self, tmp_path):
        provider, ledger = self._provider_and_ledger(tmp_path)
        out = tmp_path / "report"
        generate_report(provider, ledger, out, figures=("fig6",))
        artifact_path = out / "fig6_targets.json"
        artifact = json.loads(artifact_path.read_text())
        artifact["table"] += "drift\n"
        artifact_path.write_text(json.dumps(artifact))
        status, summary = generate_report(
            provider, ledger, out, figures=("fig6",), check=True
        )
        assert status == 1
        assert any("table differs" in p for p in summary["problems"])

    def test_check_fails_on_data_drift(self, tmp_path):
        provider, ledger = self._provider_and_ledger(tmp_path)
        out = tmp_path / "report"
        generate_report(provider, ledger, out, figures=("fig6",))
        artifact_path = out / "fig6_targets.json"
        artifact = json.loads(artifact_path.read_text())
        artifact["data"] = [{"x": 2}]
        artifact_path.write_text(json.dumps(artifact))
        status, summary = generate_report(
            provider, ledger, out, figures=("fig6",), check=True
        )
        assert status == 1
        assert any("data differs" in p for p in summary["problems"])

    def test_check_fails_when_ledger_lacks_the_job(self, tmp_path):
        provider, ledger = self._provider_and_ledger(tmp_path, record=False)
        out = tmp_path / "report"
        generate_report(provider, ledger, out, figures=("fig6",))
        status, summary = generate_report(
            provider, ledger, out, figures=("fig6",), check=True
        )
        assert status == 1
        assert any("no fresh-compile record" in p for p in summary["problems"])

    def test_check_fails_on_missing_artifact(self, tmp_path):
        provider, ledger = self._provider_and_ledger(tmp_path)
        status, summary = generate_report(
            provider, ledger, tmp_path / "never-written",
            figures=("fig6",), check=True,
        )
        assert status == 1
        assert any("no committed artifact" in p for p in summary["problems"])

    def test_check_mode_never_writes(self, tmp_path):
        provider, ledger = self._provider_and_ledger(tmp_path)
        out = tmp_path / "report"
        generate_report(provider, ledger, out, figures=("fig6",), check=True)
        assert not out.exists()


class TestLiveReportDeterminism:
    """The acceptance contract: regenerate from a warm cache with zero
    recompiles, byte-identically, through a *fresh* provider+session."""

    def test_warm_regeneration_is_byte_identical(self, tmp_path):
        from repro.benchsuite import core_named
        from repro.experiments.runner import ExperimentConfig

        cache_dir = str(tmp_path / "cache")
        out = tmp_path / "report"
        figures = ("fig6", "fig7")  # fig7 is the cheapest compiling figure
        cores = [core_named("sqrt-sub")]

        def run(check):
            config = ExperimentConfig(FAST, SAMPLES, cache=cache_dir)
            provider = SessionDataProvider(config, cores)
            try:
                return generate_report(
                    provider, config.get_session().ledger, out,
                    figures=figures, check=check,
                )
            finally:
                config.close()

        status, summary = run(check=False)
        assert status == 0
        cold_bytes = (out / "fig7_clang.json").read_bytes()
        cold_table = json.loads(cold_bytes)["table"]
        assert "Figure 7" in cold_table
        assert "run time per benchmark" not in cold_table  # timing footer off

        status, summary = run(check=True)
        assert status == 0, summary["problems"]
        assert summary["totals"]["recompiled"] == 0
        assert summary["totals"]["ledger_missing"] == 0
        assert summary["figures"]["fig7"]["compiles"]["cached"] == \
            summary["figures"]["fig7"]["compiles"]["total"]


class TestProviderShape:
    def test_protocol_and_figure_keys(self, tmp_path):
        from repro.experiments.runner import ExperimentConfig
        from repro.provenance.provider import DataProvider

        config = ExperimentConfig(FAST, SAMPLES)
        provider = SessionDataProvider(config, [])
        try:
            assert isinstance(provider, DataProvider)
            assert provider.figures() == FIGURES
            with pytest.raises(KeyError):
                provider.figure("fig11")
            fig6 = provider.figure("fig6")
            assert fig6.jobs == [] and "Target" in fig6.table
        finally:
            config.close()

    def test_fig8_and_fig9_share_one_run(self, tmp_path):
        from repro.benchsuite import core_named
        from repro.experiments.runner import ExperimentConfig

        config = ExperimentConfig(FAST, SAMPLES, cache=str(tmp_path / "c"))
        provider = SessionDataProvider(
            config, [core_named("sqrt-sub")], herbie_targets=["c99"],
        )
        try:
            fig8 = provider.figure("fig8")
            compiles_after_fig8 = config.get_session().stats.compiles
            fig9 = provider.figure("fig9")
            assert config.get_session().stats.compiles == compiles_after_fig8
            assert fig8.jobs == fig9.jobs  # same lineage, one run
        finally:
            config.close()


# --- CLI --------------------------------------------------------------------------------


class TestCli:
    def test_report_and_provenance_commands(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        out = str(tmp_path / "report")
        argv = ["report", "--figures", "fig6", "--benchmarks", "1",
                "--points", "8", "--iterations", "1",
                "--cache-dir", cache, "--out", out]
        assert main(argv) == 0
        assert (Path(out) / "fig6_targets.json").exists()
        assert main(argv + ["--check"]) == 0
        captured = capsys.readouterr()
        assert "check ok" in captured.out

        # ledger info (fig6 compiles nothing, so the ledger is empty but
        # present — the session created it next to the cache)
        assert main(["provenance", "--cache-dir", cache]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["path"].endswith("provenance.jsonl")
        # unknown fingerprint: nonzero
        assert main(["provenance", "ab" * 32, "--cache-dir", cache]) == 1

    def test_report_rejects_unknown_figures(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "--figures", "fig99"])

    def test_health_renders_provenance_section(self, tmp_path, capsys):
        from repro.cli import _render_health

        session = fast_session(tmp_path / "cache")
        try:
            session.compile(SRC2, "python")
            _render_health(session.health())
            out = capsys.readouterr().out
            assert "provenance:" in out
            assert "appended" in out
        finally:
            session.close()
