"""Unit tests of instance serialization (repro.io)."""

import json

import pytest

from repro.errors import ModelError
from repro.io import (
    FORMAT_VERSION,
    application_from_dict,
    application_to_dict,
    batch_from_dict,
    batch_to_dict,
    load_instance,
    pmf_from_dict,
    pmf_to_dict,
    save_instance,
    system_from_dict,
    system_to_dict,
)
from repro.ra import ExhaustiveAllocator, StageIEvaluator


def _set_first_type_count(doc, count):
    doc["system"]["types"][0]["count"] = count
    return doc


class TestPMFRoundtrip:
    def test_exact(self, simple_pmf):
        assert pmf_from_dict(pmf_to_dict(simple_pmf)) == simple_pmf

    def test_json_serializable(self, simple_pmf):
        json.dumps(pmf_to_dict(simple_pmf))

    def test_malformed(self):
        with pytest.raises(ModelError):
            pmf_from_dict({"values": [1.0]})


class TestSystemRoundtrip:
    def test_structure_preserved(self, paper_like_system):
        loaded = system_from_dict(system_to_dict(paper_like_system))
        assert loaded.counts() == paper_like_system.counts()
        for t in paper_like_system.types:
            other = loaded.type(t.name)
            assert other.availability == t.availability
            assert other.capacity == t.capacity

    def test_weighted_availability_preserved(self, paper_like_system):
        loaded = system_from_dict(system_to_dict(paper_like_system))
        assert loaded.weighted_availability() == pytest.approx(
            paper_like_system.weighted_availability()
        )

    def test_malformed(self):
        with pytest.raises(ModelError):
            system_from_dict({})


class TestApplicationRoundtrip:
    def test_fields_preserved(self, paper_like_batch):
        app = paper_like_batch.app("app1")
        loaded = application_from_dict(application_to_dict(app))
        assert loaded.name == app.name
        assert loaded.n_serial == app.n_serial
        assert loaded.n_parallel == app.n_parallel
        assert loaded.serial_frac == pytest.approx(app.serial_frac)
        assert loaded.iteration_cv == app.iteration_cv
        for t in ("type1", "type2"):
            assert loaded.exec_time.pmf(t) == app.exec_time.pmf(t)

    def test_batch_roundtrip(self, paper_like_batch):
        loaded = batch_from_dict(batch_to_dict(paper_like_batch))
        assert loaded.names == paper_like_batch.names

    def test_malformed(self):
        with pytest.raises(ModelError):
            application_from_dict({"name": "x"})
        with pytest.raises(ModelError):
            batch_from_dict({})


class TestInstanceFiles:
    def test_roundtrip(self, tmp_path, paper_like_system, paper_like_batch):
        path = save_instance(
            tmp_path / "inst.json",
            paper_like_system,
            paper_like_batch,
            deadline=3250.0,
            metadata={"source": "unit test"},
        )
        system, batch, deadline = load_instance(path)
        assert deadline == 3250.0
        assert system.counts() == paper_like_system.counts()
        assert batch.names == paper_like_batch.names

    def test_no_deadline(self, tmp_path, paper_like_system, paper_like_batch):
        path = save_instance(
            tmp_path / "i.json", paper_like_system, paper_like_batch
        )
        _, _, deadline = load_instance(path)
        assert deadline is None

    def test_version_guard(self, tmp_path, paper_like_system, paper_like_batch):
        path = save_instance(
            tmp_path / "i.json", paper_like_system, paper_like_batch
        )
        doc = json.loads(path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError):
            load_instance(path)

    @pytest.mark.parametrize(
        ("mutate", "field"),
        [
            (lambda doc: [doc], "JSON object"),
            (lambda doc: {k: v for k, v in doc.items() if k != "system"},
             "'system'"),
            (lambda doc: {**doc, "deadline": "soon"}, "'deadline'"),
            (lambda doc: _set_first_type_count(doc, "four"), "'count'"),
        ],
        ids=["top-level-list", "no-system", "deadline-string", "count-string"],
    )
    def test_malformed_file_names_the_field(
        self, tmp_path, paper_like_system, paper_like_batch, mutate, field
    ):
        path = save_instance(
            tmp_path / "i.json", paper_like_system, paper_like_batch,
            deadline=3250.0,
        )
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(ModelError, match=field):
            load_instance(path)

    def test_loaded_instance_reproduces_stage_one(
        self, tmp_path, paper_like_system, paper_like_batch
    ):
        """The loaded instance yields the same phi_1 and allocation."""
        path = save_instance(
            tmp_path / "paper.json", paper_like_system, paper_like_batch,
            deadline=3250.0,
        )
        system, batch, deadline = load_instance(path)
        evaluator = StageIEvaluator(batch, system, deadline)
        result = ExhaustiveAllocator().allocate(evaluator)
        assert result.robustness == pytest.approx(0.745, abs=0.005)
        assert sorted(result.allocation.as_table()) == [
            ("app1", "type1", 2),
            ("app2", "type1", 2),
            ("app3", "type2", 8),
        ]


class TestCommittedPaperInstance:
    def test_data_file_loads_and_reproduces(self):
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "data" / "paper_instance.json"
        system, batch, deadline = load_instance(path)
        assert deadline == 3250.0
        evaluator = StageIEvaluator(batch, system, deadline)
        result = ExhaustiveAllocator().allocate(evaluator)
        assert result.robustness == pytest.approx(0.745, abs=0.005)
