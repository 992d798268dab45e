"""Property-based tests of the PMF algebra (hypothesis).

These check the algebraic laws stage I's correctness rests on: probability
conservation, expectation linearity, CDF monotonicity, and the stochastic
dominance properties of the paper's transforms.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.pmf import (
    PMF,
    amdahl_transform,
    convolve,
    dilate_by_availability,
    joint_prob_leq,
    max_independent,
    min_independent,
    mixture,
    scale,
    shift,
)


@st.composite
def pmfs(draw, min_value=0.0, max_value=1e4, max_pulses=8):
    n = draw(st.integers(1, max_pulses))
    values = draw(
        st.lists(
            st.floats(min_value, max_value, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    )
    total = sum(weights)
    return PMF(values, [w / total for w in weights], normalize=True)


@st.composite
def availability_pmfs(draw):
    n = draw(st.integers(1, 4))
    values = draw(
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n, unique=True)
    )
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return PMF(values, [w / total for w in weights], normalize=True)


class TestInvariants:
    @given(pmfs())
    def test_probabilities_sum_to_one(self, pmf):
        assert abs(float(pmf.probs.sum()) - 1.0) < 1e-9

    @given(pmfs())
    def test_values_sorted_unique(self, pmf):
        assert np.all(np.diff(pmf.values) > 0)

    @given(pmfs())
    def test_cdf_monotone(self, pmf):
        xs = np.linspace(pmf.support()[0] - 1, pmf.support()[1] + 1, 50)
        cdf = np.asarray(pmf.cdf(xs))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] <= 1.0 + 1e-12

    @given(pmfs())
    def test_mean_within_support(self, pmf):
        lo, hi = pmf.support()
        assert lo - 1e-9 <= pmf.mean() <= hi + 1e-9

    @given(pmfs(), st.floats(0.1, 0.9))
    def test_quantile_consistent_with_cdf(self, pmf, q):
        v = pmf.quantile(q)
        assert pmf.cdf(v) >= q - 1e-9

    @given(pmfs(), st.integers(1, 6))
    def test_truncate_preserves_mass_and_mean(self, pmf, k):
        t = pmf.truncate(k)
        assert abs(float(t.probs.sum()) - 1.0) < 1e-9
        assert abs(t.mean() - pmf.mean()) < 1e-6 * max(1.0, abs(pmf.mean()))
        assert len(t) <= max(k, 1)

    @given(
        pmfs(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 1, 7, 100, (2, 3)]),
    )
    def test_sample_matches_generator_choice(self, pmf, seed, size):
        # Same draws, same types and the same generator state afterwards
        # as numpy's own weighted choice.
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = pmf.sample(ours, size)
        want = theirs.choice(pmf.values, size=size, p=pmf.probs)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestAlgebraLaws:
    @given(pmfs(), pmfs())
    def test_convolve_mean_additive(self, a, b):
        c = convolve(a, b)
        assert abs(c.mean() - (a.mean() + b.mean())) < 1e-6 * max(
            1.0, abs(a.mean()) + abs(b.mean())
        )

    @given(pmfs(), pmfs())
    def test_convolve_variance_additive(self, a, b):
        c = convolve(a, b)
        assert abs(c.var() - (a.var() + b.var())) < 1e-5 * max(
            1.0, a.var() + b.var()
        )

    @given(pmfs(), pmfs())
    def test_convolve_commutative(self, a, b):
        assert convolve(a, b).allclose(convolve(b, a), rtol=1e-9, atol=1e-9)

    @given(pmfs(), st.floats(0.1, 10.0))
    def test_scale_then_mean(self, pmf, k):
        assert abs(scale(pmf, k).mean() - k * pmf.mean()) < 1e-6 * max(
            1.0, abs(k * pmf.mean())
        )

    @given(pmfs(), st.floats(-100.0, 100.0))
    def test_shift_preserves_variance(self, pmf, c):
        shifted = shift(pmf, c)
        assert abs(shifted.var() - pmf.var()) < 1e-6 * max(1.0, pmf.var())

    @given(st.lists(pmfs(), min_size=1, max_size=4))
    def test_max_dominates_min(self, pmf_list):
        mx = max_independent(pmf_list)
        mn = min_independent(pmf_list)
        assert mx.mean() >= mn.mean() - 1e-9

    @given(st.lists(pmfs(), min_size=2, max_size=4))
    def test_max_cdf_below_components(self, pmf_list):
        mx = max_independent(pmf_list)
        for p in pmf_list:
            for x in p.values:
                assert mx.cdf(float(x)) <= p.cdf(float(x)) + 1e-9

    @given(st.lists(pmfs(), min_size=1, max_size=3), st.floats(0.0, 1e4))
    def test_joint_prob_bounds(self, pmf_list, deadline):
        j = joint_prob_leq(pmf_list, deadline)
        assert 0.0 <= j <= 1.0
        for p in pmf_list:
            assert j <= p.prob_leq(deadline) + 1e-12

    @given(st.lists(pmfs(), min_size=1, max_size=3))
    def test_mixture_mean_is_weighted(self, pmf_list):
        w = [1.0] * len(pmf_list)
        m = mixture(pmf_list, w)
        expected = sum(p.mean() for p in pmf_list) / len(pmf_list)
        assert abs(m.mean() - expected) < 1e-6 * max(1.0, abs(expected))


class TestPaperTransforms:
    @given(pmfs(min_value=1.0), st.floats(0.0, 0.99), st.integers(1, 64))
    def test_amdahl_never_increases_time(self, pmf, s, n):
        out = amdahl_transform(pmf, s, n)
        assert out.mean() <= pmf.mean() + 1e-9

    @given(pmfs(min_value=1.0), st.floats(0.0, 0.99))
    def test_amdahl_monotone_in_processors(self, pmf, s):
        means = [amdahl_transform(pmf, s, n).mean() for n in (1, 2, 4, 8)]
        for a, b in zip(means, means[1:]):
            assert b <= a + 1e-9

    @given(pmfs(min_value=1.0), availability_pmfs())
    def test_dilation_never_decreases_time(self, pmf, avail):
        out = dilate_by_availability(pmf, avail)
        assert out.mean() >= pmf.mean() - 1e-6 * pmf.mean()

    @given(pmfs(min_value=1.0), availability_pmfs(), st.floats(1.0, 1e5))
    def test_dilation_never_improves_deadline_prob(self, pmf, avail, deadline):
        out = dilate_by_availability(pmf, avail)
        assert out.prob_leq(deadline) <= pmf.prob_leq(deadline) + 1e-9
