"""Cross-validation: the simulator realizes the analytic stage-I model.

On single-processor, noise-free, one-availability-draw-per-run
configurations the stage-I PMF arithmetic and the discrete-event simulator
describe the same random variable; these tests verify the two halves of the
library agree — the strongest internal consistency check available.
"""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from repro.apps import Application, normal_exectime_model
from repro.dls import Static
from repro.paper import paper_batch, paper_system
from repro.pmf import PMF, deterministic, percent_availability
from repro.sim import LoopSimConfig, replicate_application
from repro.system import ConstantAvailability, HeterogeneousSystem, ProcessorType
from repro.validation import (
    compare_sample_to_pmf,
    ks_statistic,
    ks_threshold,
    validate_single_processor_model,
)


class TestKSMachinery:
    def test_zero_distance_for_exact_sample(self):
        pmf = PMF([1.0, 2.0], [0.5, 0.5])
        samples = np.array([1.0] * 500 + [2.0] * 500)
        assert ks_statistic(samples, pmf) <= 0.01

    def test_detects_wrong_model(self):
        pmf = PMF([1.0, 2.0], [0.5, 0.5])
        samples = np.full(1000, 5.0)
        assert ks_statistic(samples, pmf) == pytest.approx(1.0)

    def test_threshold_shrinks_with_n(self):
        assert ks_threshold(100) > ks_threshold(10_000)

    def test_threshold_alpha_ordering(self):
        assert ks_threshold(100, 0.05) < ks_threshold(100, 0.01)

    def test_report_consistency_flag(self, rng):
        pmf = PMF([1.0, 3.0], [0.5, 0.5])
        good = pmf.sample(rng, size=2000)
        report = compare_sample_to_pmf(good, pmf)
        assert report.consistent
        bad = rng.normal(10.0, 1.0, size=2000)
        assert not compare_sample_to_pmf(bad, pmf).consistent


class TestSingleProcessorConsistency:
    """The simulator's makespans match the analytic dilation PMF."""

    @pytest.mark.parametrize("app_name,type_name", [
        ("app1", "type1"),
        ("app2", "type1"),
        ("app3", "type2"),
    ])
    def test_paper_apps(self, app_name, type_name):
        batch = paper_batch()
        system = paper_system("case1")
        report = validate_single_processor_model(
            batch.app(app_name),
            type_name,
            system.type(type_name).availability,
            replications=300,
            seed=3,
        )
        assert report.consistent, (app_name, report)
        assert report.mean_error < 0.05

    def test_degenerate_availability(self):
        app = Application(
            "d", 10, 90, normal_exectime_model({"t": 500.0}, cv=0.0)
        )
        report = validate_single_processor_model(
            app, "t", deterministic(0.5), replications=50, seed=1
        )
        # Deterministic everything: exact match.
        assert report.ks < 0.05
        assert report.mean_error < 1e-6

    def test_rich_availability_pmf(self):
        app = Application(
            "r", 0, 128, normal_exectime_model({"t": 1000.0}, cv=0.0)
        )
        avail = percent_availability([(20, 20), (40, 30), (80, 30), (100, 20)])
        report = validate_single_processor_model(
            app, "t", avail, replications=400, seed=7
        )
        assert report.consistent, report


class TestStaticClosedForm:
    """Stage II against a closed form it shares no code with.

    STATIC with no serial phase hands each of P workers one chunk of
    k = N/P iterations at time h, the dispatch overhead. Iteration times
    are Gamma(1/cv^2, mean*cv^2), so a chunk's dedicated time is
    Gamma(k/cv^2, mean*cv^2); under a constant level worker w runs at rate
    r_w = capacity * level. The makespan is the latest finish, so

        Pr(makespan <= t) = prod_w P(k/cv^2, (t - h) * r_w / (mean * cv^2))

    with P the regularized lower incomplete gamma. 400 replications at
    fixed seeds must pass a KS test against it at alpha = 0.01.
    """

    REPLICATIONS = 400

    @staticmethod
    def closed_form_cdf(t, k, mean, cv, rates, h):
        x = np.maximum(t - h, 0.0) / (mean * cv * cv)
        out = np.ones_like(x)
        for r in rates:
            out *= gammainc(k / (cv * cv), x * r)
        return out

    @staticmethod
    def ks(samples, cdf):
        """One-sample KS distance to a continuous CDF."""
        x = np.sort(np.asarray(samples))
        f = cdf(x)
        rank = np.arange(1, x.size + 1) / x.size
        return max(float(np.max(rank - f)), float(np.max(f - rank + 1 / x.size)))

    @pytest.mark.parametrize(
        "n, cv, levels, h, seed",
        [
            (4096, 0.5, (1.0, 1.0, 0.75, 0.75, 0.5, 0.5, 0.25, 0.25), 1.0, 11),
            (4096, 0.1, (1.0,) * 8, 1.0, 12),
            (1000, 0.5, (1.0, 0.8, 0.5, 0.3), 0.0, 13),
        ],
        ids=["P8-mixed-cv0.5", "P8-dedicated-cv0.1", "P4-no-overhead"],
    )
    def test_makespan_distribution(self, n, cv, levels, h, seed):
        p = len(levels)
        assert n % p == 0
        app = Application(
            "oracle", 0, n,
            normal_exectime_model({"t": 2.0 * n}, cv=0.0),
            iteration_cv=cv,
        )
        capacity = 1.5
        group = HeterogeneousSystem(
            [ProcessorType("t", p, capacity=capacity)]
        ).group("t", p)
        stats = replicate_application(
            app, group, Static(),
            replications=self.REPLICATIONS, seed=seed,
            config=LoopSimConfig(overhead=h, availability_interval=math.inf),
            availability=[ConstantAvailability(level) for level in levels],
        )
        mean = app.parallel_iteration_model("t").mean
        rates = [capacity * level for level in levels]

        def cdf(t, scale=1.0):
            return self.closed_form_cdf(
                t, n // p, mean, cv, [r * scale for r in rates], h
            )

        limit = ks_threshold(self.REPLICATIONS)
        assert self.ks(stats.makespans, cdf) < limit
        # The check has power: rates 3 % off are rejected.
        assert self.ks(stats.makespans, lambda t: cdf(t, 1.03)) > limit
