"""Execution-time models for applications.

Two views of execution time coexist, one per framework stage:

* :class:`ExecutionTimeModel` — stage I's view: for each processor type, a
  PMF of the application's total execution time on one dedicated processor
  (paper Table III builds these from ``Normal(mu, mu/10)``).
* :class:`IterationTimeModel` — stage II's view: the simulator needs the
  time of *individual loop iterations*. The single-processor total time is
  split across iterations (serial iterations share the serial fraction of
  the total, parallel iterations the parallel fraction); individual
  iteration times are drawn from a Gamma distribution with the requested
  coefficient of variation, which keeps them strictly positive and
  reproduces the "iterations with varying execution times" that DLS
  techniques are designed for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from ..errors import ModelError
from ..pmf import PMF, discretized_normal
from ..rng import ensure_rng

__all__ = ["ExecutionTimeModel", "IterationTimeModel", "normal_exectime_model"]


class ExecutionTimeModel:
    """Per-processor-type PMFs of the single-processor total execution time.

    Keys are processor-type names; values are PMFs in time units.
    """

    def __init__(self, pmfs: Mapping[str, PMF]) -> None:
        if not pmfs:
            raise ModelError("execution-time model needs at least one type")
        for name, pmf in pmfs.items():
            lo, _ = pmf.support()
            if lo < 0:
                raise ModelError(
                    f"execution time on type {name!r} has negative support"
                )
        self._pmfs = dict(pmfs)

    @property
    def type_names(self) -> tuple[str, ...]:
        return tuple(self._pmfs)

    def pmf(self, type_name: str) -> PMF:
        """Single-processor total-time PMF on the given processor type."""
        try:
            return self._pmfs[type_name]
        except KeyError:
            raise ModelError(
                f"no execution-time PMF for processor type {type_name!r}; "
                f"known types: {sorted(self._pmfs)}"
            ) from None

    def supports(self, type_name: str) -> bool:
        return type_name in self._pmfs

    def mean(self, type_name: str) -> float:
        """Expected single-processor total time on a type."""
        return self.pmf(type_name).mean()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{name}: mean={pmf.mean():.6g}" for name, pmf in self._pmfs.items()
        )
        return f"ExecutionTimeModel({inner})"


def normal_exectime_model(
    means: Mapping[str, float],
    *,
    cv: float = 0.1,
    n_points: int = 501,
) -> ExecutionTimeModel:
    """Paper-style model: ``Normal(mu, cv * mu)`` per type, discretized.

    ``cv`` defaults to the paper's ``sigma = mu / 10``.
    """
    if not 0 <= cv < math.inf:  # also rejects NaN
        raise ModelError(f"cv must be finite and >= 0, got {cv}")
    return ExecutionTimeModel(
        {
            name: discretized_normal(mu, cv * mu, n_points=n_points)
            for name, mu in means.items()
        }
    )


@dataclass(frozen=True)
class IterationTimeModel:
    """Stochastic per-iteration execution times for the runtime simulator.

    Parameters
    ----------
    mean:
        Mean time of one iteration on one *dedicated* processor of the
        reference capacity (capacity scaling is applied by the simulator).
    cv:
        Coefficient of variation of individual iteration times. ``0`` makes
        iterations deterministic. Positive values draw from
        ``Gamma(k=1/cv^2, theta=mean*cv^2)``, which has the requested mean
        and cv and strictly positive support.
    """

    mean: float
    cv: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.mean < math.inf:
            raise ModelError(
                f"iteration-time mean must be finite and positive, got {self.mean}"
            )
        if not 0 <= self.cv < math.inf:
            raise ModelError(
                f"iteration-time cv must be finite and >= 0, got {self.cv}"
            )
        # Gamma (shape, scale) of `draw`, computed once per model.
        gamma = (
            (1.0 / (self.cv**2), self.mean * (self.cv**2)) if self.cv else None
        )
        object.__setattr__(self, "_gamma", gamma)

    @property
    def variance(self) -> float:
        return (self.cv * self.mean) ** 2

    def draw(self, n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Vectorized draw of ``n`` iteration times."""
        if n < 0:
            raise ModelError(f"cannot draw a negative number of iterations: {n}")
        if n == 0:
            return np.empty(0)
        gamma = self._gamma
        if gamma is None:
            return np.full(n, self.mean)
        shape, scale = gamma
        return ensure_rng(rng).gamma(shape, scale, size=n)

    def total(self, n: int, rng: np.random.Generator | int | None = None) -> float:
        """Total time of ``n`` iterations (sum of a vectorized draw)."""
        return float(self.draw(n, rng).sum())
