"""Property-based tests of availability processes (hypothesis)."""

import math
from bisect import bisect_right

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.pmf import PMF
from repro.system import (
    ConstantAvailability,
    MarkovAvailability,
    ResampledAvailability,
    TraceAvailability,
    quota_levels,
)


@st.composite
def availability_pmfs(draw):
    n = draw(st.integers(1, 4))
    values = draw(
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n, unique=True)
    )
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    return PMF(values, [w / total for w in weights], normalize=True)


@st.composite
def processes(draw):
    kind = draw(st.sampled_from(["constant", "resampled", "trace", "markov"]))
    seed = draw(st.integers(0, 2**31))
    if kind == "constant":
        return ConstantAvailability(draw(st.floats(0.05, 1.0))).spawn(seed)
    if kind == "resampled":
        pmf = draw(availability_pmfs())
        interval = draw(st.floats(0.5, 50.0))
        return ResampledAvailability(pmf, interval=interval).spawn(seed)
    if kind == "trace":
        n = draw(st.integers(1, 6))
        segments = tuple(
            (draw(st.floats(0.5, 20.0)), draw(st.floats(0.05, 1.0)))
            for _ in range(n)
        )
        return TraceAvailability(segments).spawn(seed)
    return MarkovAvailability(
        levels=(1.0, draw(st.floats(0.05, 0.9))),
        mean_sojourn=(draw(st.floats(1.0, 30.0)), draw(st.floats(1.0, 30.0))),
        transition=((0.0, 1.0), (1.0, 0.0)),
    ).spawn(seed)


@settings(max_examples=60, deadline=None)
@given(processes(), st.floats(0.0, 100.0), st.floats(0.0, 200.0))
def test_finish_time_inverts_work_between(proc, start, work):
    finish = proc.finish_time(start, work)
    assert finish >= start
    recovered = proc.work_between(start, finish)
    assert abs(recovered - work) < 1e-6 * max(1.0, work)


@settings(max_examples=60, deadline=None)
@given(processes(), st.floats(0.0, 50.0), st.floats(0.1, 50.0), st.floats(0.1, 50.0))
def test_work_is_additive_over_intervals(proc, t0, d1, d2):
    a = proc.work_between(t0, t0 + d1)
    b = proc.work_between(t0 + d1, t0 + d1 + d2)
    total = proc.work_between(t0, t0 + d1 + d2)
    assert abs((a + b) - total) < 1e-6 * max(1.0, total)


@settings(max_examples=60, deadline=None)
@given(processes(), st.floats(0.0, 50.0))
def test_finish_time_monotone_in_work(proc, start):
    finishes = [proc.finish_time(start, w) for w in (0.0, 1.0, 5.0, 20.0)]
    assert all(a <= b + 1e-12 for a, b in zip(finishes, finishes[1:]))


@settings(max_examples=60, deadline=None)
@given(processes(), st.floats(0.0, 100.0))
def test_levels_in_unit_interval(proc, t):
    level = proc.level_at(t)
    assert 0.0 < level <= 1.0


@settings(max_examples=60, deadline=None)
@given(processes(), st.floats(0.0, 30.0), st.integers(1, 40))
def test_vectorized_finish_times_match_scalar(proc, start, n):
    works = np.cumsum(np.linspace(0.1, 2.0, n))
    vec = proc.finish_times(start, works)
    for k in (0, n // 2, n - 1):
        scalar = proc.finish_time(start, float(works[k]))
        assert abs(vec[k] - scalar) < 1e-6 * max(1.0, scalar)


def segment_search_finish_times(proc, start, works):
    """``finish_times`` by the segment search alone (no single-segment path).

    A copy of the general formula: materialize the timeline through the
    overall finish, accumulate the work each segment from ``start`` on
    delivers, and place every target in the segment where it completes.
    """
    proc._extend_to(proc.finish_time(start, float(works[-1])))
    ends = np.asarray(proc._ends)
    rates = proc.capacity * np.asarray(proc._levels)
    first = int(np.searchsorted(ends, start, side="right"))
    seg_ends = ends[first:]
    seg_rates = rates[first:]
    starts = np.concatenate(([start], seg_ends[:-1]))
    cum_work = np.concatenate(([0.0], np.cumsum(seg_rates * (seg_ends - starts))))
    idx = np.searchsorted(cum_work[1:], works, side="left")
    idx = np.minimum(idx, len(seg_rates) - 1)
    return starts[idx] + (works - cum_work[idx]) / seg_rates[idx]


@st.composite
def chunk_queries(draw):
    """A process, a start time and cumulative works for ``finish_times``.

    Besides free draws, covers the single-segment path's edges: a start
    exactly on a segment end, a total exactly equal to the work left in
    the start's segment (and one ulp above it), and a zero first work.
    """
    proc = draw(processes())
    start = draw(st.floats(0.0, 100.0))
    edge = draw(st.sampled_from(["free", "on-end", "fills", "overfills"]))
    if edge == "on-end":
        proc.level_at(start)
        ends = [e for e in proc._ends if math.isfinite(e)]
        assume(ends)
        start = draw(st.sampled_from(ends))
    if edge in ("fills", "overfills"):
        proc.level_at(start)
        k = bisect_right(proc._ends, start)
        left = proc.capacity * proc._levels[k] * (proc._ends[k] - start)
        assume(math.isfinite(left))
        total = left if edge == "fills" else math.nextafter(left, math.inf)
    else:
        total = draw(st.floats(0.0, 200.0))
    fracs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)))
    if draw(st.booleans()):
        fracs[0] = 0.0
    works = np.array([f * total for f in fracs])
    works[-1] = total
    return proc, start, works


@settings(max_examples=300, deadline=None)
@given(chunk_queries())
def test_finish_times_equal_segment_search(query):
    proc, start, works = query
    got = proc.finish_times(start, works)
    assert got.dtype == np.float64
    assert np.array_equal(got, segment_search_finish_times(proc, start, works))


_ODD_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(_ODD_FLOATS, min_size=1, max_size=8))
def test_decreasing_check_matches_diff_verdict(values):
    # finish_times' pairwise comparison must reject exactly the inputs
    # ``np.any(np.diff(works) < 0)`` rejects, including inf and NaN.
    works = np.array(values)
    with np.errstate(invalid="ignore", over="ignore"):
        decreasing = bool(np.any(np.diff(works) < 0))
    try:
        ConstantAvailability(1.0).spawn().finish_times(0.0, works)
    except SimulationError as exc:
        rejected = "non-decreasing" in str(exc)
    else:
        rejected = False
    assert rejected == decreasing


@settings(max_examples=60, deadline=None)
@given(availability_pmfs(), st.integers(1, 32))
def test_quota_levels_properties(pmf, n):
    levels = quota_levels(pmf, n)
    assert len(levels) == n
    assert all(lvl in set(pmf.values.tolist()) for lvl in levels)
    assert levels == sorted(levels)
    # The quota mean converges to the PMF mean as n grows.
    if n >= 16:
        assert abs(float(np.mean(levels)) - pmf.mean()) <= 1.0 / n * max(
            pmf.values
        ) * len(pmf) + 0.25
