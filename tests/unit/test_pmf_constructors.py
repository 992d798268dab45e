"""Unit tests for PMF constructors (repro.pmf.constructors)."""

import math
import sys

import numpy as np
import pytest

from repro.errors import PMFError
from repro.pmf import (
    PMF,
    deterministic,
    discretized_normal,
    from_mapping,
    from_pairs,
    from_samples,
    percent_availability,
    sampled_normal,
    uniform_support,
)
from repro.pmf.constructors import _ndtr


class TestSimpleConstructors:
    def test_deterministic(self):
        pmf = deterministic(42.0)
        assert len(pmf) == 1
        assert pmf.mean() == 42.0
        assert pmf.var() == 0.0

    def test_from_pairs(self):
        pmf = from_pairs([(1.0, 0.3), (2.0, 0.7)])
        assert pmf.mean() == pytest.approx(1.7)

    def test_from_pairs_empty(self):
        with pytest.raises(PMFError):
            from_pairs([])

    def test_from_mapping(self):
        pmf = from_mapping({1.0: 0.5, 3.0: 0.5})
        assert pmf.mean() == pytest.approx(2.0)

    def test_uniform_support(self):
        pmf = uniform_support([2.0, 4.0, 6.0])
        assert np.allclose(pmf.probs, 1 / 3)

    def test_uniform_support_empty(self):
        with pytest.raises(PMFError):
            uniform_support([])


class TestFromSamples:
    def test_exact_mode(self):
        pmf = from_samples([1.0, 1.0, 2.0, 4.0])
        assert pmf.values.tolist() == [1.0, 2.0, 4.0]
        assert pmf.probs.tolist() == [0.5, 0.25, 0.25]

    def test_binned_mode_preserves_mean(self, rng):
        samples = rng.normal(100.0, 10.0, size=5000)
        pmf = from_samples(samples, bins=40)
        assert len(pmf) <= 40
        assert pmf.mean() == pytest.approx(float(samples.mean()), rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(PMFError):
            from_samples([])


class TestDiscretizedNormal:
    def test_mean_and_std_recovered(self):
        pmf = discretized_normal(1800.0, 180.0)
        assert pmf.mean() == pytest.approx(1800.0, rel=1e-6)
        assert pmf.std() == pytest.approx(180.0, rel=1e-3)

    def test_mass_sums_to_one(self):
        pmf = discretized_normal(100.0, 30.0, n_points=101)
        assert float(pmf.probs.sum()) == pytest.approx(1.0)

    def test_zero_std_degenerates(self):
        pmf = discretized_normal(50.0, 0.0)
        assert len(pmf) == 1

    def test_clip_at_zero(self):
        pmf = discretized_normal(1.0, 2.0, clip_at_zero=True)
        assert pmf.support()[0] >= 0.0

    def test_without_clip_allows_negative(self):
        pmf = discretized_normal(0.0, 1.0, clip_at_zero=False)
        assert pmf.support()[0] < 0.0

    def test_negative_std_rejected(self):
        with pytest.raises(PMFError):
            discretized_normal(10.0, -1.0)

    @pytest.mark.parametrize(
        "mean, std, field",
        [
            (math.nan, 1.0, "mean"),
            (math.inf, 1.0, "mean"),
            (100.0, math.nan, "std"),
            (100.0, math.inf, "std"),
        ],
    )
    def test_non_finite_parameters_named(self, mean, std, field):
        # These used to fail deep inside PMF construction ("support
        # contains non-finite values"), naming no argument.
        with pytest.raises(PMFError, match=f"^{field} must be finite"):
            discretized_normal(mean, std)
        with pytest.raises(PMFError, match=f"^{field} must be finite"):
            sampled_normal(mean, std, rng=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(PMFError):
            discretized_normal(10.0, 1.0, n_points=1)

    def test_all_mass_below_zero_rejected(self):
        with pytest.raises(PMFError):
            discretized_normal(-100.0, 1.0, clip_at_zero=True)

    @pytest.mark.parametrize("clip", [True, False])
    @pytest.mark.parametrize("n_sigma", [0.0, -1.0, math.nan, math.inf])
    def test_bad_n_sigma_named(self, n_sigma, clip):
        # These used to blame the mean ("no mass above zero"), the
        # probabilities or the support, or warn before failing.
        with pytest.raises(PMFError, match="^n_sigma must be finite and positive"):
            discretized_normal(100.0, 10.0, n_sigma=n_sigma, clip_at_zero=clip)

    @pytest.mark.parametrize(
        "mean, std, n_points, clip",
        [
            (1800.0, 180.0, 501, True),
            (100.0, 30.0, 101, True),
            (1.0, 2.0, 41, True),
            (0.0, 1.0, 7, False),
            (-3.5, 0.25, 2, False),
        ],
    )
    def test_equals_scipy_stats_reference(self, mean, std, n_points, clip):
        # Cell masses come from scipy.special.ndtr; they must keep the
        # bits of the scipy.stats.norm.cdf construction they replaced.
        from scipy import stats

        lo, hi = mean - 5.0 * std, mean + 5.0 * std
        if clip:
            lo = max(lo, 0.0)
        grid = np.linspace(lo, hi, n_points)
        half = (grid[1] - grid[0]) / 2.0
        edges = np.concatenate(
            ([lo - half], (grid[:-1] + grid[1:]) / 2.0, [hi + half])
        )
        probs = np.diff(stats.norm.cdf(edges, loc=mean, scale=std))
        reference = PMF(grid, probs, normalize=True)
        pmf = discretized_normal(mean, std, n_points=n_points, clip_at_zero=clip)
        assert np.array_equal(pmf.support(), reference.support())
        assert np.array_equal(pmf.probs, reference.probs)

    def test_paper_cdf_value(self):
        # Pr(N(8000, 800) parallel-time <= x) enters the phi_1 numbers;
        # check a textbook value: Pr(X <= mu) = 0.5.
        pmf = discretized_normal(8000.0, 800.0)
        assert pmf.prob_leq(8000.0) == pytest.approx(0.5, abs=5e-3)


class TestNormalCdf:
    """``_ndtr`` must return ``scipy.special.ndtr``'s bits exactly."""

    # Cephes switches formula at |z| = 1 (erf to erfc), sqrt(2) (erfc by
    # 1 - erf to the P/Q fraction), 8 sqrt(2) (P/Q to R/S) and where
    # exp(-z^2/2) underflows, z^2/2 = log(DBL_MAX) (z ~ 37.68).
    EDGES = (
        1.0,
        math.sqrt(2.0),
        8.0 * math.sqrt(2.0),
        math.sqrt(2.0 * math.log(sys.float_info.max)),
    )

    @staticmethod
    def assert_scipy_bits(z):
        from scipy.special import ndtr

        ours, ref = _ndtr(z), ndtr(z)
        differ = ours.view(np.int64) != ref.view(np.int64)
        assert not differ.any(), f"{differ.sum()} differ, first at {z[differ][:3]}"

    def test_equals_scipy_on_dense_and_random_points(self):
        rng = np.random.default_rng(2012)
        z = np.concatenate(
            (
                np.linspace(-40.0, 40.0, 400_001),
                rng.normal(0.0, 3.0, 500_000),
                rng.uniform(-40.0, 40.0, 100_000),
            )
        )
        self.assert_scipy_bits(z)

    def test_equals_scipy_around_branch_edges(self):
        z = []
        for edge in self.EDGES:
            up = down = edge
            z.append(edge)
            for _ in range(64):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
                z += [up, down]
        z = np.array(z)
        self.assert_scipy_bits(np.concatenate((z, -z, [0.0, -0.0])))
        # The neighbourhood of the last edge does straddle the underflow.
        tail = _ndtr(-z[-129:])
        assert (tail == 0.0).any() and (tail > 0.0).any()

    @pytest.mark.parametrize(
        "z, bits",
        [
            (-40.0, "0x0.0p+0"),
            (-37.6, "0x0.0c5daf5e2618cp-1022"),
            (-20.0, "0x1.c0bd0f18806a3p-295"),
            (-12.0, "0x1.272b3136661edp-109"),
            (-8.0, "0x1.669d2c90d55a2p-51"),
            (-3.0, "0x1.61de1f985b5d1p-10"),
            (-1.5, "0x1.11a46d89647efp-4"),
            (-1.0, "0x1.44ed0bb7cb20cp-3"),
            (-0.5, "0x1.3bf143b9aa712p-2"),
            (-0.0, "0x1.0000000000000p-1"),
            (0.5, "0x1.62075e232ac77p-1"),
            (1.0, "0x1.aec4bd120d37dp-1"),
            (3.0, "0x1.ff4f10f033d25p-1"),
            (12.0, "0x1.0000000000000p+0"),
        ],
    )
    def test_pinned_values(self, z, bits):
        # One value per Cephes branch, so the bits rest on more than the
        # installed SciPy.
        assert float(_ndtr(np.array([z]))[0]).hex() == bits


class TestSampledNormal:
    def test_reproducible_with_seed(self):
        a = sampled_normal(100.0, 10.0, rng=7)
        b = sampled_normal(100.0, 10.0, rng=7)
        assert a == b

    def test_mean_close(self):
        pmf = sampled_normal(4000.0, 400.0, n_samples=20_000, rng=3)
        assert pmf.mean() == pytest.approx(4000.0, rel=0.01)

    def test_positive_support(self):
        pmf = sampled_normal(5.0, 3.0, rng=11)
        assert pmf.support()[0] > 0.0

    def test_mostly_negative_normal_rejected(self):
        with pytest.raises(PMFError):
            sampled_normal(-50.0, 1.0, rng=1)

    def test_negative_std_rejected(self):
        with pytest.raises(PMFError):
            sampled_normal(10.0, -1.0)


class TestPercentAvailability:
    def test_paper_type2_case1(self):
        pmf = percent_availability([(25, 25), (50, 25), (100, 50)])
        assert pmf.values.tolist() == [0.25, 0.5, 1.0]
        assert pmf.mean() == pytest.approx(0.6875)

    def test_zero_availability_rejected(self):
        with pytest.raises(PMFError):
            percent_availability([(0, 50), (100, 50)])

    def test_above_hundred_rejected(self):
        with pytest.raises(PMFError):
            percent_availability([(120, 100)])

    def test_empty_rejected(self):
        with pytest.raises(PMFError):
            percent_availability([])
