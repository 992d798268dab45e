"""Tests for the run-artifact store (repro.obs.runs) and the environment
fingerprint its manifests carry (repro.obs.env)."""

from __future__ import annotations

import json
import re

import pytest

import repro.obs as obs
from repro.errors import ObservabilityError
from repro.obs import (
    RunRecord,
    RunRecorder,
    RunStore,
    cpu_counts,
    current_recorder,
    env_fingerprint,
    load_run,
    recording,
    resolve_run,
    utc_stamp,
)


@pytest.fixture(autouse=True)
def _no_leaked_session():
    if obs.obs_enabled():
        obs.stop(export=False)
    yield
    if obs.obs_enabled():
        obs.stop(export=False)


def _record_demo_run(base, *, run_id=None, with_session=True, exit_code=0):
    """Record one small observed run into ``base``; returns its path."""
    recorder = RunRecorder(base, run_id=run_id, argv=["repro", "demo"])
    recorder.annotate(command="demo", seed=42)
    recorder.record_result("demo", {"kind": "demo", "value": 1})
    session = None
    if with_session:
        session = obs.start()
        with obs.span("cdsf.run"):
            obs.incr("demo.counter", 2.0)
        obs.stop(export=False)
    return recorder.finalize(session, exit_code=exit_code)


class TestRunRecorder:
    def test_creates_directory_eagerly(self, tmp_path):
        recorder = RunRecorder(tmp_path, run_id="r1")
        assert (tmp_path / "r1").is_dir()
        assert recorder.run_id == "r1"
        # Nothing written yet — the manifest lands at finalize.
        assert not (tmp_path / "r1" / "manifest.json").exists()

    def test_collision_raises(self, tmp_path):
        RunRecorder(tmp_path, run_id="r1")
        with pytest.raises(ObservabilityError, match="already exists"):
            RunRecorder(tmp_path, run_id="r1")

    @pytest.mark.parametrize(
        "relative", ["afile", "afile/runs"], ids=["file", "below-file"]
    )
    def test_base_that_cannot_be_a_directory_raises(self, tmp_path, relative):
        (tmp_path / "afile").write_text("x\n")
        base = tmp_path / relative
        with pytest.raises(ObservabilityError, match="cannot create run store"):
            RunRecorder(base, run_id="r1")
        assert (tmp_path / "afile").read_text() == "x\n"

    def test_fresh_ids_are_unique(self, tmp_path):
        ids = {RunRecorder(tmp_path).run_id for _ in range(3)}
        assert len(ids) == 3

    def test_finalize_writes_all_artifacts(self, tmp_path):
        path = _record_demo_run(tmp_path, run_id="r1")
        assert (path / "manifest.json").is_file()
        assert (path / "trace.jsonl").is_file()
        assert (path / "metrics.json").is_file()
        assert (path / "results" / "demo.json").is_file()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["run_id"] == "r1"
        assert manifest["command"] == "demo"
        assert manifest["seed"] == 42
        assert manifest["argv"] == ["repro", "demo"]
        assert manifest["exit_code"] == 0
        assert manifest["wall_seconds"] >= 0.0
        assert set(manifest["files"]) == {
            "manifest.json", "trace.jsonl", "metrics.json",
            "results/demo.json",
        }

    def test_finalize_without_session(self, tmp_path):
        path = _record_demo_run(
            tmp_path, run_id="r1", with_session=False, exit_code=2
        )
        assert not (path / "trace.jsonl").exists()
        assert not (path / "metrics.json").exists()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["exit_code"] == 2

    def test_double_finalize_raises(self, tmp_path):
        recorder = RunRecorder(tmp_path, run_id="r1")
        recorder.finalize()
        with pytest.raises(ObservabilityError, match="already finalized"):
            recorder.finalize()

    def test_annotate_after_finalize_raises(self, tmp_path):
        recorder = RunRecorder(tmp_path, run_id="r1")
        recorder.finalize()
        with pytest.raises(ObservabilityError, match="already finalized"):
            recorder.annotate(command="late")
        with pytest.raises(ObservabilityError, match="already finalized"):
            recorder.record_result("late", {})

    @pytest.mark.parametrize("name", ["", "a/b", "a\\b", ".hidden"])
    def test_result_names_must_be_plain_stems(self, tmp_path, name):
        recorder = RunRecorder(tmp_path, run_id="r1")
        with pytest.raises(ObservabilityError, match="plain file stem"):
            recorder.record_result(name, {})


class TestRunRecord:
    def test_load_run_round_trip(self, tmp_path):
        path = _record_demo_run(tmp_path, run_id="r1")
        run = load_run(path)
        assert isinstance(run, RunRecord)
        assert run.run_id == "r1"
        assert run.results() == {"demo": {"kind": "demo", "value": 1}}
        counters = run.metrics()["counters"]
        assert counters["demo.counter"] == 2.0
        names = {r.get("name") for r in run.trace_records()}
        assert "cdsf.run" in names

    def test_load_run_requires_manifest(self, tmp_path):
        with pytest.raises(ObservabilityError, match="does not exist"):
            load_run(tmp_path)

    def test_missing_artifacts_degrade_to_empty(self, tmp_path):
        path = _record_demo_run(tmp_path, run_id="r1", with_session=False)
        run = load_run(path)
        assert run.trace_records() == []
        assert run.metrics() == {}
        assert run.timelines() == []

    def test_truncated_trace_skips_bad_tail(self, tmp_path):
        path = _record_demo_run(tmp_path, run_id="r1")
        trace = path / "trace.jsonl"
        trace.write_text(trace.read_text() + '{"type": "span", trunca\n')
        run = load_run(path)
        assert run.trace_records()  # good prefix survives
        with pytest.raises(ObservabilityError):
            run.trace_records(on_error="raise")


class TestRunStore:
    def test_lists_in_lexicographic_order(self, tmp_path):
        for rid in ("b", "a", "c"):
            _record_demo_run(tmp_path, run_id=rid, with_session=False)
        store = RunStore(tmp_path)
        assert store.run_ids() == ["a", "b", "c"]
        assert [r.run_id for r in store.list()] == ["a", "b", "c"]
        assert store.latest().run_id == "c"

    def test_ignores_directories_without_manifest(self, tmp_path):
        _record_demo_run(tmp_path, run_id="a", with_session=False)
        (tmp_path / "not-a-run").mkdir()
        (tmp_path / "stray.txt").write_text("x")
        assert RunStore(tmp_path).run_ids() == ["a"]

    def test_missing_base_dir_is_empty(self, tmp_path):
        store = RunStore(tmp_path / "nope")
        assert store.run_ids() == []
        assert store.latest() is None

    def test_load_unknown_id_names_known_runs(self, tmp_path):
        _record_demo_run(tmp_path, run_id="a", with_session=False)
        with pytest.raises(ObservabilityError, match="known runs: a"):
            RunStore(tmp_path).load("zzz")


class TestResolveRun:
    def test_path_wins(self, tmp_path):
        path = _record_demo_run(tmp_path, run_id="r1", with_session=False)
        assert resolve_run(path).run_id == "r1"

    def test_id_under_base_dir(self, tmp_path):
        _record_demo_run(tmp_path, run_id="r1", with_session=False)
        assert resolve_run("r1", base_dir=tmp_path).run_id == "r1"

    def test_unresolvable_spec_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="neither a run"):
            resolve_run("nope", base_dir=tmp_path)
        with pytest.raises(ObservabilityError, match="neither a run"):
            resolve_run(tmp_path / "nope")


class TestRecordingContext:
    def test_current_recorder_scoped_to_context(self, tmp_path):
        assert current_recorder() is None
        recorder = RunRecorder(tmp_path, run_id="r1")
        with recording(recorder) as active:
            assert active is recorder
            assert current_recorder() is recorder
        assert current_recorder() is None

    def test_nested_recording_raises(self, tmp_path):
        with recording(RunRecorder(tmp_path, run_id="r1")):
            with pytest.raises(ObservabilityError, match="already being"):
                with recording(RunRecorder(tmp_path, run_id="r2")):
                    pass  # pragma: no cover
        assert current_recorder() is None

    def test_cleared_even_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with recording(RunRecorder(tmp_path, run_id="r1")):
                raise RuntimeError("boom")
        assert current_recorder() is None


# ------------------------------------------------------- env fingerprints


class TestEnvFingerprint:
    def test_fingerprint_fields(self):
        env = env_fingerprint()
        for key in (
            "python", "implementation", "platform", "machine",
            "cpu_logical", "cpu_physical", "cpu_available", "git_sha",
            "repro_version",
        ):
            assert key in env
        assert "workers" not in env
        assert env_fingerprint(workers="auto")["workers"] == "auto"

    def test_cpu_counts_sane(self):
        counts = cpu_counts()
        assert counts["cpu_logical"] >= 1
        assert 1 <= counts["cpu_available"] <= counts["cpu_logical"]
        physical = counts["cpu_physical"]
        assert physical is None or physical >= 1

    def test_utc_stamp_format(self):
        assert utc_stamp(0.0) == "1970-01-01T00:00:00Z"
        assert re.fullmatch(
            r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", utc_stamp()
        )
