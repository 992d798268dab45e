"""Discrete finite random variables (probability mass functions).

Stage I of the CDSF reasons about uncertainty entirely through PMFs: the
single-processor execution time of each application on each processor type,
and the availability of each processor type, are discrete random variables
(paper §III-A). This module provides the immutable :class:`PMF` value type;
the surrounding modules add constructors, algebra, and the paper-specific
transforms (Amdahl scaling, availability dilation).

A :class:`PMF` stores sorted unique support values and strictly positive
probabilities that sum to one, both as read-only ``float64`` arrays. All
operations return new instances.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from ..contracts import check_pmf_canonical, contracts_enabled
from ..errors import PMFError

__all__ = ["PMF", "PROB_TOL"]

#: Slack below zero: a probability down to ``-PROB_TOL`` counts as zero,
#: and :meth:`PMF.quantile` searches the CDF for ``q - PROB_TOL``. It is
#: not the sum tolerance, which is 1e-6 (see :class:`PMF`).
PROB_TOL = 1e-9


def _canonicalize(
    values: np.ndarray, probs: np.ndarray, *, merge_tol: float, presorted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sort by value and merge (near-)duplicate support points.

    The rules, not any sort algorithm, are the contract:

    * points come out in non-decreasing value order, and exact ties keep
      their input order;
    * consecutive points closer than ``merge_tol`` (relative to the value's
      magnitude, absolute below 1) merge into one pulse: its probability is
      their sum and its value their probability-weighted mean, both
      accumulated in sorted order, so merging preserves the expectation;
    * when any pair merges, every value becomes ``(p*v)/p``, a lone
      point's too.

    Non-decreasing input is not sorted again; ``presorted`` says the caller
    already put the points in that order.
    """
    step = values[1:] - values[:-1]
    if not presorted and (step < 0.0).any():
        order = np.argsort(values, kind="stable")
        values = values[order]
        probs = probs[order]
        step = values[1:] - values[:-1]
    # Merge consecutive values that coincide within merge_tol. Scale the
    # tolerance by magnitude so large time values merge sensibly.
    tol = np.abs(values[:-1])
    np.maximum(tol, 1.0, out=tol)
    tol *= merge_tol
    distinct = step > tol
    if distinct.all():
        return values, probs
    # group id per point: 0 for the first, +1 at each distinct value
    group = np.zeros(values.size, dtype=np.intp)
    np.cumsum(distinct, out=group[1:])
    # bincount adds its weights in index order, so each group's sums
    # accumulate in sorted order.
    merged_probs = np.bincount(group, weights=probs)
    # Representative value: probability-weighted mean of the merged
    # points, so expectation is preserved exactly under merging.
    merged_values = np.bincount(group, weights=probs * values)
    merged_values /= merged_probs
    return merged_values, merged_probs


class PMF:
    """An immutable discrete random variable with finite support.

    Parameters
    ----------
    values:
        Support points (any real numbers; times and availabilities in this
        library), in any order. They are sorted with exact ties kept in
        input order, and duplicates are merged (probabilities summed); when
        any pair merges, every value becomes ``(p*v)/p``. These rules, not
        a sort algorithm, fix the stored bits.
    probs:
        Probabilities, same length as ``values``. Must be non-negative
        (entries down to ``-PROB_TOL`` count as zero) and, unless
        ``normalize=True``, sum to 1 within 1e-6; a sum inside that
        tolerance is renormalized to 1.
    normalize:
        If true, rescale ``probs`` to sum to exactly one instead of
        validating the sum. Zero-probability points are always dropped.
    merge_tol:
        Relative tolerance under which two support points are considered the
        same pulse and merged.
    """

    __slots__ = ("_values", "_probs", "_sample_cdf")

    def __init__(
        self,
        values: Iterable[float],
        probs: Iterable[float],
        *,
        normalize: bool = False,
        merge_tol: float = 1e-12,
    ) -> None:
        v = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.float64).ravel()
        p = np.asarray(list(probs) if not isinstance(probs, np.ndarray) else probs,
                       dtype=np.float64).ravel()
        self._build(v, p, normalize=normalize, merge_tol=merge_tol, order=None)

    @classmethod
    def _in_order(cls, values: np.ndarray, probs: np.ndarray, order: np.ndarray) -> PMF:
        """``PMF(values, probs)``, given ``order``, the stable argsort of ``values``.

        The constructor's checks and arithmetic, without its sort.
        """
        pmf = cls.__new__(cls)
        pmf._build(values, probs, normalize=False, merge_tol=1e-12, order=order)
        return pmf

    def _build(
        self,
        values: np.ndarray,
        probs: np.ndarray,
        *,
        normalize: bool,
        merge_tol: float,
        order: np.ndarray | None,
    ) -> None:
        """Validate, normalize and canonicalize flat ``float64`` arrays."""
        if values.size == 0:
            raise PMFError("a PMF needs at least one support point")
        if values.shape != probs.shape:
            raise PMFError(
                f"values and probs must have equal length, got {values.size} != {probs.size}"
            )
        if not np.isfinite(values).all():
            raise PMFError("PMF support contains non-finite values")
        if not np.isfinite(probs).all():
            raise PMFError("PMF probabilities contain non-finite values")
        if (probs < -PROB_TOL).any():
            raise PMFError("PMF probabilities must be non-negative")
        p = np.maximum(probs, 0.0)
        total = p.sum()
        if normalize:
            if total <= 0.0:
                raise PMFError("cannot normalize a PMF with zero total mass")
        elif abs(total - 1.0) > 1e-6:
            raise PMFError(f"PMF probabilities sum to {total!r}, expected 1")
        p = p / total  # without normalize, this removes rounding drift
        v = values
        if order is not None:
            v = v[order]
            p = p[order]
        if not p.min() > 0.0:
            keep = p > 0.0
            v, p = v[keep], p[keep]
            if v.size == 0:
                raise PMFError("all support points have zero probability")
        v, p = _canonicalize(v, p, merge_tol=merge_tol, presorted=order is not None)
        if v is values:  # never share (or freeze) the caller's array
            v = v.copy()
        p = p / p.sum()
        v.setflags(write=False)
        p.setflags(write=False)
        if contracts_enabled():
            check_pmf_canonical(v, p)
        self._values = v
        self._probs = p
        self._sample_cdf: np.ndarray | None = None  # filled by sample()

    # ------------------------------------------------------------------ data

    @property
    def values(self) -> np.ndarray:
        """Sorted support points (read-only array)."""
        return self._values

    @property
    def probs(self) -> np.ndarray:
        """Probabilities aligned with :attr:`values` (read-only array)."""
        return self._probs

    def __len__(self) -> int:
        return int(self._values.size)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        """Iterate over ``(value, probability)`` pulses."""
        return zip(self._values.tolist(), self._probs.tolist())

    def support(self) -> tuple[float, float]:
        """Return ``(min, max)`` of the support."""
        return float(self._values[0]), float(self._values[-1])

    # ------------------------------------------------------------- summaries

    def mean(self) -> float:
        """Expected value ``E[X]``."""
        return float(self._values @ self._probs)

    def var(self) -> float:
        """Variance ``Var[X]`` (non-negative by clamping rounding error)."""
        m = self.mean()
        return float(max(0.0, ((self._values - m) ** 2) @ self._probs))

    def std(self) -> float:
        """Standard deviation."""
        return float(np.sqrt(self.var()))

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """``Pr(X <= x)``, vectorized over ``x``; a NaN ``x`` is rejected."""
        # searchsorted sorts NaN last, so a NaN would read as Pr = 1.
        if isinstance(x, float) or np.ndim(x) == 0:
            xf = float(x)
            if math.isnan(xf):
                raise PMFError(f"cdf argument x must not be NaN, got {x!r}")
            idx = int(self._values.searchsorted(xf, side="right"))
            # cumsum adds in order, so a prefix's last entry is the full
            # cumulative table's entry at idx - 1.
            return min(float(self._probs[:idx].cumsum()[-1]), 1.0) if idx else 0.0
        xs = np.asarray(x, dtype=np.float64)
        if np.isnan(xs).any():
            raise PMFError(f"cdf argument x must not be NaN, got {x!r}")
        return self._cdf_table()[self._values.searchsorted(xs, side="right")]

    def _cdf_table(self) -> np.ndarray:
        """The CDF by rank: entry ``k`` is ``Pr(X <= x)`` for any ``x``
        with exactly ``k`` support points at or below it."""
        table = np.empty(self._values.size + 1)
        table[0] = 0.0
        np.minimum(self._probs.cumsum(), 1.0, out=table[1:])
        return table

    def prob_leq(self, x: float) -> float:
        """``Pr(X <= x)`` — the stage-I deadline probability primitive."""
        return float(self.cdf(float(x)))

    def quantile(self, q: float) -> float:
        """Smallest support value ``v`` with ``Pr(X <= v) >= q``."""
        if not 0.0 <= q <= 1.0:
            raise PMFError(f"quantile level must be in [0, 1], got {q}")
        cum = np.cumsum(self._probs)
        idx = int(np.searchsorted(cum, q - PROB_TOL, side="left"))
        idx = min(idx, len(self._values) - 1)
        return float(self._values[idx])

    def sample(
        self, rng: np.random.Generator, size: int | None = None
    ) -> float | np.ndarray:
        """Draw iid samples from the PMF.

        Inverse-CDF sampling: the arithmetic and the single ``rng.random``
        draw of ``rng.choice(values, size=size, p=probs)``, without its
        argument checks (the constructor guarantees valid probabilities),
        so the samples and the generator's state match it bit for bit.
        The normalized CDF is computed on the first call and kept.
        """
        cdf = self._sample_cdf
        if cdf is None:
            cdf = self._probs.cumsum()
            cdf /= cdf[-1]
            cdf.setflags(write=False)
            self._sample_cdf = cdf
        return self._values[cdf.searchsorted(rng.random(size), side="right")]

    # ------------------------------------------------------------ structural

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray]) -> "PMF":
        """Apply a (not necessarily monotone) function to the support.

        Probabilities are carried over unchanged and colliding images are
        merged. This is how the paper's Eq. 2 recalculates "each pulse" of a
        PMF.
        """
        new_values = np.asarray(fn(self._values), dtype=np.float64)
        if new_values.shape != self._values.shape:
            raise PMFError("map_values function must preserve the support shape")
        return PMF(new_values, self._probs, merge_tol=1e-12)

    def truncate(self, max_points: int) -> "PMF":
        """Reduce the support to at most ``max_points`` pulses.

        Adjacent pulses are pooled into equal-width value bins; each bin's
        representative is the probability-weighted mean, so the expectation
        is preserved exactly and the CDF error is bounded by the bin width.
        Used to keep repeated convolutions from blowing up the support size.
        """
        if max_points < 1:
            raise PMFError("max_points must be >= 1")
        if len(self) <= max_points:
            return self
        lo, hi = self.support()
        if hi == lo:
            return self
        edges = np.linspace(lo, hi, max_points + 1)
        bins = np.clip(np.searchsorted(edges, self._values, side="right") - 1,
                       0, max_points - 1)
        probs = np.bincount(bins, weights=self._probs, minlength=max_points)
        vals = np.bincount(bins, weights=self._probs * self._values, minlength=max_points)
        keep = probs > 0
        vals = vals[keep] / probs[keep]
        return PMF(vals, probs[keep], normalize=True)

    # ----------------------------------------------------------- comparisons

    def allclose(self, other: "PMF", *, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Structural equality within floating-point tolerance."""
        return (
            len(self) == len(other)
            and bool(np.allclose(self._values, other._values, rtol=rtol, atol=atol))
            and bool(np.allclose(self._probs, other._probs, rtol=rtol, atol=atol))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PMF):
            return NotImplemented
        return self.allclose(other)

    def __hash__(self) -> int:
        return hash((self._values.tobytes(), self._probs.tobytes()))

    def __repr__(self) -> str:
        if len(self) <= 4:
            pulses = ", ".join(f"{v:g}:{p:.4g}" for v, p in self)
            return f"PMF({pulses})"
        return (
            f"PMF(<{len(self)} pulses>, mean={self.mean():.6g}, "
            f"support=[{self._values[0]:.6g}, {self._values[-1]:.6g}])"
        )
