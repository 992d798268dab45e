"""Algebra of independent discrete random variables.

Stage I combines PMFs in a handful of ways:

* sums of independent variables (:func:`convolve`) — e.g. serial + parallel
  phases, or multi-batch completion times;
* affine transforms (:func:`scale`, :func:`shift`);
* extrema of independent variables (:func:`max_independent`,
  :func:`min_independent`) — the batch makespan is the max of the
  applications' finishing times;
* mixtures (:func:`mixture`) — availability scenarios weighted by their
  probability;
* generic products of pulse pairs (:func:`combine`) — the workhorse used by
  the paper's availability "convolution" (see
  :func:`repro.pmf.transforms.dilate_by_availability`).

All operations assume independence, which is the paper's explicit modeling
assumption ("each application execution time is assumed independent").
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..errors import PMFError
from ..obs import incr, obs_enabled, observe_value
from .pmf import PMF

__all__ = [
    "combine",
    "convolve",
    "convolve_many",
    "scale",
    "shift",
    "max_independent",
    "min_independent",
    "mixture",
    "joint_prob_leq",
]

#: Support-size cap applied after n-ary operations to keep repeated
#: convolutions tractable. Past it, :meth:`PMF.truncate` pools pulses into
#: equal-width bins, which moves the CDF by at most one bin width. Stage-I
#: deadline probabilities no longer pass through it (the evaluator reads
#: them from the time CDF); completion and makespan PMFs still do.
DEFAULT_MAX_POINTS = 4096


def combine(
    a: PMF,
    b: PMF,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    max_points: int | None = DEFAULT_MAX_POINTS,
) -> PMF:
    """PMF of ``fn(A, B)`` for independent ``A`` and ``B``.

    ``fn`` must be vectorized over the outer product of supports: it is
    called with broadcastable arrays of shape ``(len(a), 1)`` and
    ``(1, len(b))``.
    """
    va = a.values[:, None]
    vb = b.values[None, :]
    values = np.asarray(fn(va, vb), dtype=np.float64)
    if values.shape != (len(a), len(b)):
        raise PMFError(
            "combine(fn) must return the outer-product shape "
            f"{(len(a), len(b))}, got {values.shape}"
        )
    probs = a.probs[:, None] * b.probs[None, :]
    out = PMF._in_order(values.ravel(), probs.ravel(), _row_major_order(values))
    truncated = max_points is not None and len(out) > max_points
    if truncated:
        assert max_points is not None
        out = out.truncate(max_points)
    if obs_enabled():
        incr("pmf.combines")
        observe_value("pmf.support", float(len(out)))
        # The pulse-product count is the kernel's true work (the outer
        # product is O(|a|·|b|) regardless of the surviving support), so
        # it is the figure the vectorization work must drive down.
        observe_value("pmf.pulse_products", float(len(a) * len(b)))
        if truncated:
            incr("pmf.truncations")
    return out


def _row_major_order(values: np.ndarray) -> np.ndarray:
    """Stable argsort of ``values.ravel()``, sorted through its columns.

    ``values`` is :func:`combine`'s outer product ``fn(a, b)``. When ``fn``
    is monotone in its first argument (``x + y``, ``t / a``), each column
    is sorted, so the column-major layout is ``len(b)`` presorted runs,
    which a stable sort merges far faster than the interleaved row-major
    one. Its ties come out in column-major order; where an exact tie is not
    also in row-major order, sort the row-major layout instead.
    """
    rows, cols = values.shape
    by_column = values.T.ravel()
    by_value = np.argsort(by_column, kind="stable")
    # the row-major index of each column-major position, in value order
    order = np.arange(values.size).reshape(rows, cols).T.ravel()[by_value]
    ranked = by_column[by_value]
    tie = ranked[1:] == ranked[:-1]
    if (tie & (order[1:] < order[:-1])).any():
        return np.argsort(values.ravel(), kind="stable")
    return order


def convolve(a: PMF, b: PMF, *, max_points: int | None = DEFAULT_MAX_POINTS) -> PMF:
    """PMF of the sum ``A + B`` of independent variables."""
    return combine(a, b, lambda x, y: x + y, max_points=max_points)


def convolve_many(
    pmfs: Iterable[PMF], *, max_points: int | None = DEFAULT_MAX_POINTS
) -> PMF:
    """PMF of the sum of many independent variables (left fold)."""
    pmfs = list(pmfs)
    if not pmfs:
        raise PMFError("convolve_many requires at least one PMF")
    acc = pmfs[0]
    for nxt in pmfs[1:]:
        acc = convolve(acc, nxt, max_points=max_points)
    return acc


def scale(a: PMF, factor: float) -> PMF:
    """PMF of ``factor * A`` (``factor`` may be any nonzero real)."""
    if factor == 0.0:
        return PMF([0.0], [1.0])
    return a.map_values(lambda v: v * factor)


def shift(a: PMF, offset: float) -> PMF:
    """PMF of ``A + offset``."""
    return a.map_values(lambda v: v + offset)


def _extreme(pmfs: Sequence[PMF], *, largest: bool) -> PMF:
    """CDF-based max/min of independent variables (exact)."""
    if not pmfs:
        raise PMFError("need at least one PMF")
    support = np.unique(np.concatenate([p.values for p in pmfs]))
    acc = np.ones_like(support)
    for p in pmfs:
        # Each PMF's points lie in the union support, so Pr(X_i <= x) on
        # it is the PMF's CDF table, stepped up at the positions of its
        # own points.
        steps = np.diff(support.searchsorted(p.values), prepend=0, append=support.size)
        cdf = np.repeat(p._cdf_table(), steps)
        if largest:
            # Pr(max <= x) = prod Pr(X_i <= x)
            acc *= cdf
        else:
            # Pr(min <= x) = 1 - prod Pr(X_i > x); use strict survival at x.
            acc *= 1.0 - cdf
    cdf = acc if largest else 1.0 - acc
    probs = np.diff(np.concatenate(([0.0], cdf)))
    return PMF(support, probs, normalize=True)


def max_independent(pmfs: Sequence[PMF]) -> PMF:
    """PMF of ``max(X_1, ..., X_n)`` for independent ``X_i``.

    This is the system makespan of independent application finishing times
    (paper's definition of ``Psi``).
    """
    return _extreme(pmfs, largest=True)


def min_independent(pmfs: Sequence[PMF]) -> PMF:
    """PMF of ``min(X_1, ..., X_n)`` for independent ``X_i``."""
    return _extreme(pmfs, largest=False)


def mixture(pmfs: Sequence[PMF], weights: Sequence[float]) -> PMF:
    """Probability mixture ``sum_k w_k * PMF_k``.

    Used to combine conditional completion-time PMFs over discrete
    availability scenarios.
    """
    if len(pmfs) != len(weights):
        raise PMFError("mixture needs one weight per PMF")
    if not pmfs:
        raise PMFError("mixture requires at least one component")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise PMFError("mixture weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise PMFError("mixture weights must not all be zero")
    w = w / total
    values = np.concatenate([p.values for p in pmfs])
    probs = np.concatenate([wk * p.probs for wk, p in zip(w, pmfs)])
    return PMF(values, probs, normalize=True)


def joint_prob_leq(pmfs: Iterable[PMF], deadline: float) -> float:
    """``prod_i Pr(X_i <= deadline)`` for independent variables.

    The paper's stage-I robustness: "the probability that the entire system
    will complete by the common deadline is given by multiplying each
    application's probability of completion by Delta together."
    """
    prob = 1.0
    for p in pmfs:
        prob *= p.prob_leq(deadline)
    return prob
