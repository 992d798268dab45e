"""Property-based tests of the PMF algebra (hypothesis).

These check the algebraic laws stage I's correctness rests on: probability
conservation, expectation linearity, CDF monotonicity, and the stochastic
dominance properties of the paper's transforms. ``TestSameBits`` pins the
kernels' output bits to plain reference implementations: stage I's tables
print phi_1 in full, so a faster kernel must not move a single bit.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import PMFError
from repro.pmf import (
    PMF,
    amdahl_transform,
    combine,
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


# ------------------------------------------------------------ bit identity
#
# Reference kernels: the direct formulation of the PMF rules (a stable
# argsort of every input, merges accumulated by ``np.add.at``, the CDF
# through a full cumulative sum and two ``np.where``s, the max/min through
# the CDF of every PMF on the union support). The library's kernels skip
# work these do not, and must agree with them bit for bit.


def reference_canonical(values, probs, *, normalize=False, merge_tol=1e-12):
    """``(values, probs)`` of ``PMF(values, probs, normalize=...)``."""
    v = np.array(values, dtype=np.float64).ravel()
    p = np.array(probs, dtype=np.float64).ravel()
    if (p < -1e-9).any():
        raise PMFError("negative")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if normalize:
        if total <= 0.0:
            raise PMFError("zero mass")
    elif abs(total - 1.0) > 1e-6:
        raise PMFError("bad sum")
    p = p / total
    keep = p > 0.0
    v, p = v[keep], p[keep]
    if v.size == 0:
        raise PMFError("all zero")
    order = np.argsort(v, kind="stable")
    v, p = v[order], p[order]
    if v.size > 1:
        distinct = np.diff(v) > merge_tol * np.maximum(1.0, np.abs(v[:-1]))
        if not distinct.all():
            group = np.concatenate(([0], np.cumsum(distinct)))
            merged_probs = np.zeros(group[-1] + 1)
            np.add.at(merged_probs, group, p)
            merged_values = np.zeros(group[-1] + 1)
            np.add.at(merged_values, group, p * v)
            merged_values /= merged_probs
            v, p = merged_values, merged_probs
    return v, p / p.sum()


def reference_cdf(values, probs, x):
    cum = np.minimum(np.cumsum(probs), 1.0)
    idx = np.searchsorted(values, np.asarray(x, dtype=np.float64), side="right")
    out = np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)
    return np.where(idx == 0, 0.0, out)


def reference_extreme(pmf_list, *, largest):
    support = np.unique(np.concatenate([p.values for p in pmf_list]))
    acc = np.ones_like(support)
    for p in pmf_list:
        cdf = reference_cdf(p.values, p.probs, support)
        acc = acc * (cdf if largest else 1.0 - cdf)
    cdf = acc if largest else 1.0 - acc
    return reference_canonical(
        support, np.diff(np.concatenate(([0.0], cdf))), normalize=True
    )


def reference_truncate(pmf, max_points):
    lo, hi = pmf.support()
    edges = np.linspace(lo, hi, max_points + 1)
    bins = np.clip(
        np.searchsorted(edges, pmf.values, side="right") - 1, 0, max_points - 1
    )
    probs = np.zeros(max_points)
    np.add.at(probs, bins, pmf.probs)
    vals = np.zeros(max_points)
    np.add.at(vals, bins, pmf.probs * pmf.values)
    keep = probs > 0
    return reference_canonical(vals[keep] / probs[keep], probs[keep], normalize=True)


def same_bits(pmf, reference):
    values, probs = reference
    return (
        pmf.values.tobytes() == values.tobytes()
        and pmf.probs.tobytes() == probs.tobytes()
    )


#: Support points that collide: 0 (a pulse any positive divisor keeps at
#: 0), small integers (whose sums tie many ways) and near ties inside the
#: default merge tolerance.
_TIED = [0.0, 1.0, 2.0, 3.0, 5.0, 5.0 * (1 + 1e-13), 5.0 * (1 - 2e-13), 2e3, 2e3 * (1 + 3e-13)]


@st.composite
def raw_pulses(draw, max_pulses=16):
    """Unchecked ``(values, weights)`` input of every shape callers pass."""
    n = draw(st.integers(1, max_pulses))
    kind = draw(st.sampled_from(["unsorted", "sorted", "tied", "sorted-tied", "negative"]))
    if kind in ("tied", "sorted-tied"):
        values = draw(st.lists(st.sampled_from(_TIED), min_size=n, max_size=n))
    else:
        lo = -1e3 if kind == "negative" else 0.0
        values = draw(st.lists(st.floats(lo, 1e4), min_size=n, max_size=n))
    if kind.startswith("sorted"):
        values.sort()
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n)
    )
    return np.array(values), np.array(weights)


@st.composite
def tied_pmfs(draw, max_pulses=12, positive=False):
    """PMFs on a small grid, so outer products and unions share points."""
    grid = [v for v in _TIED if v > 0] if positive else _TIED
    values = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=max_pulses))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(values), max_size=len(values)))
    return PMF(values, weights, normalize=True)


def _built_and_reference(values, weights, normalize):
    probs = weights if normalize or weights.sum() == 0 else weights / weights.sum()
    try:
        reference = reference_canonical(values, probs, normalize=normalize)
    except PMFError:
        with pytest.raises(PMFError):
            PMF(values, probs, normalize=normalize)
        return None, None
    return PMF(values, probs, normalize=normalize), reference


#: Outer-product functions: monotone in the first argument (``+``, the
#: availability dilation's ``/``) and not (whose column runs are unsorted
#: and whose exact ties cross columns out of row-major order).
_COMBINE_FNS = {
    "add": lambda x, y: x + y,
    "divide": lambda x, y: x / y,
    "square": lambda x, y: (x - 3.0) ** 2 + y,
}


class TestSameBits:
    @given(raw_pulses(), st.booleans())
    def test_constructor(self, pulses, normalize):
        pmf, reference = _built_and_reference(*pulses, normalize)
        if pmf is not None:
            assert same_bits(pmf, reference)

    @given(tied_pmfs(), tied_pmfs(positive=True), st.sampled_from(sorted(_COMBINE_FNS)))
    @example(  # a 3-way tie at 5 whose column order is not its row order
        PMF([2.0, 3.0, 5.0], [0.3, 0.3, 0.4]),
        PMF([1.0, 4.0, 5.0], [0.1, 0.2, 0.7]),
        "square",
    )
    def test_combine(self, a, b, name):
        fn = _COMBINE_FNS[name]
        values = fn(a.values[:, None], b.values[None, :])
        probs = a.probs[:, None] * b.probs[None, :]
        out = combine(a, b, fn, max_points=None)
        assert same_bits(out, reference_canonical(values.ravel(), probs.ravel()))

    @given(pmfs(max_pulses=30), availability_pmfs())
    def test_dilation(self, time_pmf, availability):
        values = time_pmf.values[:, None] / availability.values[None, :]
        probs = time_pmf.probs[:, None] * availability.probs[None, :]
        out = dilate_by_availability(time_pmf, availability)
        assert same_bits(out, reference_canonical(values.ravel(), probs.ravel()))

    @given(st.one_of(pmfs(max_pulses=40), tied_pmfs()), st.floats(-10.0, 1.1e4))
    def test_cdf(self, pmf, x):
        probes = [x, -1e5, 1e5, *pmf.values.tolist()]
        probes += [(a + b) / 2 for a, b in zip(pmf.values[:-1], pmf.values[1:])]
        reference = reference_cdf(pmf.values, pmf.probs, np.array(probes))
        vector = pmf.cdf(np.array(probes))
        assert vector.tobytes() == reference.tobytes()
        for k, point in enumerate(probes):
            scalar = pmf.cdf(point)
            assert type(scalar) is float
            assert scalar == pmf.cdf(np.array([point]))[0] == reference[k]
            assert pmf.prob_leq(point) == scalar

    @given(
        st.lists(st.one_of(pmfs(), tied_pmfs()), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_extremes(self, pmf_list, largest):
        out = (max_independent if largest else min_independent)(pmf_list)
        assert same_bits(out, reference_extreme(pmf_list, largest=largest))

    @given(st.one_of(pmfs(max_pulses=40), tied_pmfs()), st.integers(1, 12))
    def test_truncate(self, pmf, max_points):
        out = pmf.truncate(max_points)
        if out is not pmf:
            assert same_bits(out, reference_truncate(pmf, max_points))
