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

#: Tolerance used when checking that probabilities sum to one.
PROB_TOL = 1e-9


def _canonicalize(
    values: np.ndarray, probs: np.ndarray, *, merge_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sort by value and merge (near-)duplicate support points."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    probs = probs[order]
    if values.size > 1:
        # Merge consecutive values that coincide within merge_tol. Scale the
        # tolerance by magnitude so large time values merge sensibly.
        scale = np.maximum(1.0, np.abs(values[:-1]))
        distinct = np.diff(values) > merge_tol * scale
        if not distinct.all():
            # group id per element: 0 for the first, +1 at each distinct value
            group = np.concatenate(([0], np.cumsum(distinct)))
            n_groups = group[-1] + 1
            merged_probs = np.zeros(n_groups)
            np.add.at(merged_probs, group, probs)
            # Representative value: probability-weighted mean of the merged
            # points, so expectation is preserved exactly under merging.
            merged_values = np.zeros(n_groups)
            np.add.at(merged_values, group, probs * values)
            merged_values /= merged_probs
            values, probs = merged_values, merged_probs
    return values, probs


class PMF:
    """An immutable discrete random variable with finite support.

    Parameters
    ----------
    values:
        Support points (any real numbers; times and availabilities in this
        library). Duplicates are merged (probabilities summed).
    probs:
        Probabilities, same length as ``values``. Must be non-negative and
        sum to 1 within :data:`PROB_TOL` (unless ``normalize=True``).
    normalize:
        If true, rescale ``probs`` to sum to exactly one instead of
        validating the sum. Zero-probability points are always dropped.
    merge_tol:
        Relative tolerance under which two support points are considered the
        same pulse and merged.
    """

    __slots__ = ("_values", "_probs")

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
        if v.size == 0:
            raise PMFError("a PMF needs at least one support point")
        if v.shape != p.shape:
            raise PMFError(
                f"values and probs must have equal length, got {v.size} != {p.size}"
            )
        if not np.all(np.isfinite(v)):
            raise PMFError("PMF support contains non-finite values")
        if not np.all(np.isfinite(p)):
            raise PMFError("PMF probabilities contain non-finite values")
        if np.any(p < -PROB_TOL):
            raise PMFError("PMF probabilities must be non-negative")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if normalize:
            if total <= 0.0:
                raise PMFError("cannot normalize a PMF with zero total mass")
            p = p / total
        elif abs(total - 1.0) > 1e-6:
            raise PMFError(f"PMF probabilities sum to {total!r}, expected 1")
        else:
            p = p / total  # remove rounding drift
        keep = p > 0.0
        v, p = v[keep], p[keep]
        if v.size == 0:
            raise PMFError("all support points have zero probability")
        v, p = _canonicalize(v, p, merge_tol=merge_tol)
        p = p / p.sum()
        v.setflags(write=False)
        p.setflags(write=False)
        if contracts_enabled():
            check_pmf_canonical(v, p)
        self._values = v
        self._probs = p

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
        xs = np.asarray(x, dtype=np.float64)
        # searchsorted sorts NaN last, so a NaN would read as Pr = 1.
        if (np.isnan(xs).any() if xs.ndim else math.isnan(xs)):
            raise PMFError(f"cdf argument x must not be NaN, got {x!r}")
        cum = np.minimum(np.cumsum(self._probs), 1.0)
        idx = np.searchsorted(self._values, xs, side="right")
        out = np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)
        out = np.where(idx == 0, 0.0, out)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

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
        """
        cdf = self._probs.cumsum()
        cdf /= cdf[-1]
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
        return PMF(new_values, self._probs.copy(), merge_tol=1e-12)

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
        probs = np.zeros(max_points)
        np.add.at(probs, bins, self._probs)
        vals = np.zeros(max_points)
        np.add.at(vals, bins, self._probs * self._values)
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
