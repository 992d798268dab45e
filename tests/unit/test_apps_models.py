"""Unit tests of application models (repro.apps.exectime, .application)."""

import math

import numpy as np
import pytest

from repro.apps import (
    Application,
    ExecutionTimeModel,
    IterationTimeModel,
    normal_exectime_model,
)
from repro.errors import ModelError
from repro.pmf import deterministic, discretized_normal


class TestExecutionTimeModel:
    def test_lookup(self):
        model = ExecutionTimeModel({"t1": deterministic(100.0)})
        assert model.mean("t1") == 100.0
        assert model.supports("t1")
        assert not model.supports("t2")
        assert model.type_names == ("t1",)

    def test_unknown_type(self):
        model = ExecutionTimeModel({"t1": deterministic(1.0)})
        with pytest.raises(ModelError):
            model.pmf("t2")

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            ExecutionTimeModel({})

    def test_negative_support_rejected(self):
        bad = discretized_normal(0.0, 1.0, clip_at_zero=False)
        with pytest.raises(ModelError):
            ExecutionTimeModel({"t": bad})

    def test_normal_factory(self):
        model = normal_exectime_model({"a": 1000.0, "b": 2000.0}, cv=0.1)
        assert model.mean("a") == pytest.approx(1000.0, rel=1e-6)
        assert model.pmf("b").std() == pytest.approx(200.0, rel=1e-2)

    def test_normal_factory_zero_cv(self):
        model = normal_exectime_model({"a": 500.0}, cv=0.0)
        assert len(model.pmf("a")) == 1

    def test_normal_factory_negative_cv(self):
        with pytest.raises(ModelError):
            normal_exectime_model({"a": 1.0}, cv=-0.1)

    @pytest.mark.parametrize("cv", [math.nan, math.inf])
    def test_normal_factory_non_finite_cv(self, cv):
        with pytest.raises(ModelError, match="^cv must be finite"):
            normal_exectime_model({"t": 100.0}, cv=cv)


class TestIterationTimeModel:
    def test_deterministic(self):
        m = IterationTimeModel(mean=2.0, cv=0.0)
        draws = m.draw(5, rng=1)
        assert np.allclose(draws, 2.0)
        assert m.total(5, rng=1) == pytest.approx(10.0)

    def test_gamma_moments(self, rng):
        m = IterationTimeModel(mean=3.0, cv=0.5)
        draws = m.draw(200_000, rng)
        assert draws.mean() == pytest.approx(3.0, rel=0.01)
        assert draws.std() == pytest.approx(1.5, rel=0.02)

    def test_positive(self, rng):
        m = IterationTimeModel(mean=1.0, cv=1.0)
        assert np.all(m.draw(10_000, rng) > 0)

    def test_zero_draws(self):
        assert IterationTimeModel(mean=1.0).draw(0).size == 0

    def test_validation(self):
        with pytest.raises(ModelError):
            IterationTimeModel(mean=0.0)
        with pytest.raises(ModelError):
            IterationTimeModel(mean=1.0, cv=-0.5)
        with pytest.raises(ModelError):
            IterationTimeModel(mean=1.0).draw(-1)

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ModelError, match="mean"):
            IterationTimeModel(mean=mean)

    @pytest.mark.parametrize("cv", [math.nan, math.inf])
    def test_non_finite_cv_rejected(self, cv):
        with pytest.raises(ModelError, match="cv"):
            IterationTimeModel(mean=1.0, cv=cv)

    def test_variance_property(self):
        m = IterationTimeModel(mean=4.0, cv=0.25)
        assert m.variance == pytest.approx(1.0)


class TestApplication:
    @pytest.fixture
    def app(self):
        return Application(
            "a", 439, 1024, normal_exectime_model({"t1": 1800.0, "t2": 4000.0})
        )

    def test_iteration_counts(self, app):
        assert app.total_iterations == 1463

    def test_serial_fraction_from_counts(self, app):
        assert app.serial_frac == pytest.approx(0.30, abs=0.001)
        assert app.parallel_frac == pytest.approx(0.70, abs=0.001)

    def test_serial_fraction_override(self):
        app = Application(
            "a", 10, 90,
            normal_exectime_model({"t": 100.0}),
            serial_fraction=0.5,
        )
        assert app.serial_frac == 0.5

    def test_parallel_time_pmf_eq2(self, app):
        t = app.parallel_time_pmf("t1", 2).mean()
        assert t == pytest.approx(0.3 * 1800 + 0.7 * 900, rel=1e-2)

    def test_expected_parallel_time_monotone(self, app):
        times = [app.expected_parallel_time("t2", n) for n in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_iteration_models_consistent(self, app):
        serial = app.serial_iteration_model("t1")
        par = app.parallel_iteration_model("t1")
        total = serial.mean * app.n_serial + par.mean * app.n_parallel
        assert total == pytest.approx(app.exec_time.mean("t1"), rel=1e-9)

    def test_no_serial_model_when_zero(self):
        app = Application("a", 0, 100, normal_exectime_model({"t": 10.0}))
        assert app.serial_iteration_model("t") is None
        assert app.serial_frac == 0.0

    def test_validation(self):
        model = normal_exectime_model({"t": 10.0})
        with pytest.raises(ModelError):
            Application("", 0, 1, model)
        with pytest.raises(ModelError):
            Application("a", -1, 1, model)
        with pytest.raises(ModelError):
            Application("a", 0, 0, model)
        with pytest.raises(ModelError):
            Application("a", 0, 1, model, serial_fraction=1.0)
        with pytest.raises(ModelError):
            Application("a", 0, 1, model, iteration_cv=-1.0)
