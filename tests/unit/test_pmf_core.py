"""Unit tests of the PMF value type (repro.pmf.pmf)."""

import numpy as np
import pytest

from repro.errors import PMFError
from repro.pmf import PMF, PROB_TOL


class TestConstruction:
    def test_basic(self, simple_pmf):
        assert len(simple_pmf) == 3
        assert simple_pmf.values.tolist() == [1.0, 2.0, 4.0]
        assert simple_pmf.probs.tolist() == [0.25, 0.25, 0.5]

    def test_sorts_support(self):
        pmf = PMF([3.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        assert pmf.values.tolist() == [1.0, 2.0, 3.0]
        assert pmf.probs.tolist() == [0.5, 0.3, 0.2]

    def test_merges_duplicates(self):
        pmf = PMF([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert len(pmf) == 2
        assert pmf.probs.tolist() == [0.5, 0.5]

    def test_drops_zero_probability_points(self):
        pmf = PMF([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
        assert pmf.values.tolist() == [1.0, 3.0]

    def test_normalize(self):
        pmf = PMF([1.0, 2.0], [2.0, 6.0], normalize=True)
        assert pmf.probs.tolist() == [0.25, 0.75]

    def test_negative_support_is_allowed(self):
        pmf = PMF([-1.0, 1.0], [0.5, 0.5])
        assert pmf.mean() == 0.0

    def test_empty_rejected(self):
        with pytest.raises(PMFError):
            PMF([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(PMFError):
            PMF([1.0, 2.0], [1.0])

    def test_bad_sum_rejected(self):
        with pytest.raises(PMFError):
            PMF([1.0, 2.0], [0.4, 0.4])

    def test_negative_prob_rejected(self):
        with pytest.raises(PMFError):
            PMF([1.0, 2.0], [-0.5, 1.5])

    def test_nan_rejected(self):
        with pytest.raises(PMFError):
            PMF([float("nan")], [1.0])
        with pytest.raises(PMFError):
            PMF([1.0], [float("nan")], normalize=True)

    def test_inf_rejected(self):
        with pytest.raises(PMFError):
            PMF([float("inf")], [1.0])

    def test_zero_mass_normalize_rejected(self):
        with pytest.raises(PMFError):
            PMF([1.0], [0.0], normalize=True)

    def test_arrays_are_read_only(self, simple_pmf):
        with pytest.raises(ValueError):
            simple_pmf.values[0] = 99.0
        with pytest.raises(ValueError):
            simple_pmf.probs[0] = 99.0

    def test_caller_arrays_stay_writable_and_unshared(self):
        # Sorted input with no zero probability skips the sort and the
        # filter; the PMF must still own a copy of the support.
        values = np.array([1.0, 2.0, 4.0])
        probs = np.array([0.25, 0.25, 0.5])
        pmf = PMF(values, probs)
        assert values.flags.writeable and probs.flags.writeable
        values[0] = 99.0
        probs[0] = 0.0
        assert pmf.values.tolist() == [1.0, 2.0, 4.0]
        assert pmf.probs.tolist() == [0.25, 0.25, 0.5]

    def test_rounding_drift_is_normalized(self):
        # Sum = 1 + 5e-7: inside tolerance, silently renormalized.
        pmf = PMF([1.0, 2.0], [0.5, 0.5 + 5e-7])
        assert pytest.approx(1.0) == float(pmf.probs.sum())

    def test_sum_tolerance_is_1e6_not_prob_tol(self):
        accepted = PMF([1.0, 2.0], [0.5, 0.5 + 9e-7])
        assert float(accepted.probs.sum()) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(PMFError, match="sum to"):
            PMF([1.0, 2.0], [0.5, 0.5 + 2e-6])

    def test_negative_slack_is_prob_tol(self):
        # PROB_TOL (1e-9) of slack below zero: the entry counts as zero
        # and is dropped; anything more negative is rejected.
        assert PROB_TOL == 1e-9
        pmf = PMF([1.0, 2.0, 3.0], [0.5, 0.5, -5e-10])
        assert pmf.values.tolist() == [1.0, 2.0]
        assert pmf.probs.tolist() == [0.5, 0.5]
        with pytest.raises(PMFError, match="non-negative"):
            PMF([1.0, 2.0, 3.0], [0.5, 0.5, -2e-9])


class TestSummaries:
    def test_mean(self, simple_pmf):
        assert simple_pmf.mean() == pytest.approx(1 * 0.25 + 2 * 0.25 + 4 * 0.5)

    def test_var_and_std(self, simple_pmf):
        m = simple_pmf.mean()
        expected = 0.25 * (1 - m) ** 2 + 0.25 * (2 - m) ** 2 + 0.5 * (4 - m) ** 2
        assert simple_pmf.var() == pytest.approx(expected)
        assert simple_pmf.std() == pytest.approx(np.sqrt(expected))

    def test_degenerate_var_zero(self):
        assert PMF([5.0], [1.0]).var() == 0.0

    def test_support(self, simple_pmf):
        assert simple_pmf.support() == (1.0, 4.0)

    def test_cdf_scalar(self, simple_pmf):
        assert simple_pmf.cdf(0.5) == 0.0
        assert simple_pmf.cdf(1.0) == pytest.approx(0.25)
        assert simple_pmf.cdf(3.0) == pytest.approx(0.5)
        assert simple_pmf.cdf(4.0) == pytest.approx(1.0)
        assert simple_pmf.cdf(100.0) == pytest.approx(1.0)

    def test_cdf_vectorized(self, simple_pmf):
        out = simple_pmf.cdf(np.array([0.0, 2.0, 10.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_prob_leq_equals_cdf(self, simple_pmf):
        assert simple_pmf.prob_leq(2.5) == simple_pmf.cdf(2.5)

    def test_nan_rejected(self, simple_pmf):
        # searchsorted sorts NaN last, so an unchecked NaN reads as Pr = 1.
        with pytest.raises(PMFError, match="x must not be NaN"):
            simple_pmf.cdf(float("nan"))
        with pytest.raises(PMFError, match="x must not be NaN"):
            simple_pmf.cdf(np.array([1.0, np.nan]))
        with pytest.raises(PMFError, match="x must not be NaN"):
            simple_pmf.prob_leq(float("nan"))
        assert simple_pmf.prob_leq(float("inf")) == 1.0

    def test_quantile(self, simple_pmf):
        assert simple_pmf.quantile(0.0) == 1.0
        assert simple_pmf.quantile(0.25) == 1.0
        assert simple_pmf.quantile(0.5) == 2.0
        assert simple_pmf.quantile(1.0) == 4.0

    def test_quantile_out_of_range(self, simple_pmf):
        with pytest.raises(PMFError):
            simple_pmf.quantile(1.5)
        with pytest.raises(PMFError):
            simple_pmf.quantile(-0.1)

    def test_sample_within_support(self, simple_pmf, rng):
        draws = simple_pmf.sample(rng, size=200)
        assert set(np.unique(draws)) <= {1.0, 2.0, 4.0}

    def test_sample_frequencies(self, simple_pmf, rng):
        draws = simple_pmf.sample(rng, size=20_000)
        assert np.isclose((draws == 4.0).mean(), 0.5, atol=0.02)


class TestStructural:
    def test_map_values_linear(self, simple_pmf):
        doubled = simple_pmf.map_values(lambda v: 2 * v)
        assert doubled.values.tolist() == [2.0, 4.0, 8.0]
        assert doubled.mean() == pytest.approx(2 * simple_pmf.mean())

    def test_map_values_collision_merges(self, simple_pmf):
        const = simple_pmf.map_values(lambda v: np.full_like(v, 7.0))
        assert len(const) == 1
        assert const.mean() == pytest.approx(7.0)

    def test_map_values_shape_check(self, simple_pmf):
        with pytest.raises(PMFError):
            simple_pmf.map_values(lambda v: v[:-1])

    def test_truncate_noop_when_small(self, simple_pmf):
        assert simple_pmf.truncate(10) is simple_pmf

    def test_truncate_preserves_mean(self):
        values = np.linspace(0, 100, 1000)
        probs = np.full(1000, 1e-3)
        pmf = PMF(values, probs)
        small = pmf.truncate(50)
        assert len(small) <= 50
        assert small.mean() == pytest.approx(pmf.mean(), rel=1e-9)

    def test_truncate_invalid(self, simple_pmf):
        with pytest.raises(PMFError):
            simple_pmf.truncate(0)

    def test_iteration_yields_pulses(self, simple_pmf):
        pulses = list(simple_pmf)
        assert pulses == [(1.0, 0.25), (2.0, 0.25), (4.0, 0.5)]

    def test_equality_and_hash(self, simple_pmf):
        other = PMF([1.0, 2.0, 4.0], [0.25, 0.25, 0.5])
        assert simple_pmf == other
        assert hash(simple_pmf) == hash(other)
        assert simple_pmf != PMF([1.0], [1.0])

    def test_equality_other_type(self, simple_pmf):
        assert simple_pmf != "not a pmf"

    def test_repr_small_and_large(self, simple_pmf):
        assert "PMF(" in repr(simple_pmf)
        big = PMF(np.arange(10.0), np.full(10, 0.1))
        assert "pulses" in repr(big)
