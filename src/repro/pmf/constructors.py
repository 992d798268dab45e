"""Constructors for :class:`~repro.pmf.PMF` instances.

The paper builds its execution-time PMFs "by sampling a normal distribution"
with mean ``mu`` and standard deviation ``mu/10`` (§IV, Table III). Two
equivalent constructors are provided:

* :func:`discretized_normal` — a deterministic quadrature discretization;
  this is the library default because it makes every stage-I number exactly
  reproducible (it recovers the paper's 26% / 74.5% probabilities).
* :func:`sampled_normal` — Monte-Carlo sampling binned to an empirical PMF,
  matching the paper's construction verbatim (numbers then carry sampling
  noise, e.g. the paper's 3800.02 instead of 3800).

The normal CDF behind :func:`discretized_normal` is :func:`_ndtr`, Cephes'
``ndtr`` restated in NumPy. It returns the bits of ``scipy.special.ndtr``
without importing SciPy, whose ``special`` package alone loads hundreds of
modules into every process that builds a PMF.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

import numpy as np

from ..errors import PMFError
from ..rng import ensure_rng
from .pmf import PMF

__all__ = [
    "deterministic",
    "from_pairs",
    "from_mapping",
    "from_samples",
    "uniform_support",
    "discretized_normal",
    "sampled_normal",
    "percent_availability",
]


def deterministic(value: float) -> PMF:
    """A degenerate PMF: ``Pr(X = value) = 1``."""
    return PMF([value], [1.0])


def from_pairs(pairs: Iterable[tuple[float, float]]) -> PMF:
    """Build a PMF from ``(value, probability)`` pairs."""
    pairs = list(pairs)
    if not pairs:
        raise PMFError("from_pairs requires at least one (value, prob) pair")
    values, probs = zip(*pairs)
    return PMF(values, probs)


def from_mapping(mapping: Mapping[float, float]) -> PMF:
    """Build a PMF from a ``{value: probability}`` mapping."""
    return from_pairs(mapping.items())


def from_samples(samples: Iterable[float], *, bins: int | None = None) -> PMF:
    """Empirical PMF from observed samples.

    With ``bins=None`` every distinct sample becomes a pulse; otherwise the
    samples are histogrammed into ``bins`` equal-width bins whose
    representatives are the per-bin sample means (expectation-preserving).
    """
    x = np.asarray(list(samples), dtype=np.float64).ravel()
    if x.size == 0:
        raise PMFError("from_samples requires at least one sample")
    if bins is None:
        values, counts = np.unique(x, return_counts=True)
        return PMF(values, counts.astype(np.float64), normalize=True)
    pmf = PMF(x, np.full(x.size, 1.0 / x.size), merge_tol=1e-12)
    return pmf.truncate(bins)


def uniform_support(values: Iterable[float]) -> PMF:
    """Uniform PMF over the given support points."""
    v = np.asarray(list(values), dtype=np.float64)
    if v.size == 0:
        raise PMFError("uniform_support requires at least one value")
    return PMF(v, np.full(v.size, 1.0 / v.size))


def _check_normal(mean: float, std: float) -> None:
    """Reject ``Normal(mean, std)`` parameters no PMF can be built from."""
    if not math.isfinite(mean):
        raise PMFError(f"mean must be finite, got {mean}")
    if not 0 <= std < math.inf:  # also rejects NaN
        raise PMFError(f"std must be finite and non-negative, got {std}")


# Cephes ``ndtr.c`` (S. L. Moshier), the tables ``scipy.special.ndtr`` runs,
# highest degree first. erfc(w) = exp(-w²) P(w)/Q(w) on [1, 8) and
# exp(-w²) R(w)/S(w) beyond; erf(x) = x T(x²)/U(x²) on |x| < 1. Cephes
# leaves out the leading 1 of Q, S and U (``p1evl``); 1·x is exact, so
# keeping it gives the same bits.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.0,
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    1.0,
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    1.0,
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_SQRT1_2 = 0.70710678118654752440  # Cephes' SQRTH
_MAXLOG = 7.09782712893383996732e2  # log(DBL_MAX): exp(-w²) is 0 past it


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule, highest degree first."""
    ans = coef[0] * x + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` for ``|x| < 1``."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(w: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` for ``w >= sqrt(1/2)`` (NaN passes through)."""
    out = np.zeros_like(w)
    near = w < 1.0
    out[near] = 1.0 - _erf(w[near])
    with np.errstate(over="ignore"):
        neg_sq = -w * w
    live = ~near & ~(neg_sq < -_MAXLOG)
    mid = live & (w < 8.0)
    for mask, num, den in ((mid, _P, _Q), (live & ~mid, _R, _S)):
        if mask.any():
            v = w[mask]
            # libm's exp, as Cephes calls it: NumPy's SIMD exp is not
            # libm's, and it moves the last bit of some values.
            e = np.fromiter(map(math.exp, neg_sq[mask].tolist()), np.float64)
            out[mask] = e * _polevl(v, num) / _polevl(v, den)
    return out


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, bit for bit as ``scipy.special.ndtr``.

    Cephes' ``ndtr`` restated in NumPy, so that building a PMF needs no
    SciPy import. ``tests/unit/test_pmf_constructors.py::TestNormalCdf``
    pins it to SciPy's values, exactly, on a dense grid and at every
    branch edge.
    """
    x = z * _SQRT1_2
    w = np.abs(x)
    out = np.empty_like(x)
    inner = w < _SQRT1_2
    out[inner] = 0.5 + 0.5 * _erf(x[inner])
    tail = ~inner
    y = 0.5 * _erfc(w[tail])
    out[tail] = np.where(x[tail] > 0, 1.0 - y, y)
    return out


def discretized_normal(
    mean: float,
    std: float,
    *,
    n_points: int = 501,
    n_sigma: float = 5.0,
    clip_at_zero: bool = True,
) -> PMF:
    """Deterministic discretization of ``Normal(mean, std)``.

    The support is an equispaced grid over ``mean ± n_sigma * std``; each
    grid point receives the probability mass of its surrounding half-open
    cell (computed from the normal CDF), so the PMF sums to one exactly and
    its mean matches ``mean`` to quadrature accuracy.

    ``clip_at_zero`` truncates negative times — execution times cannot be
    negative — and renormalizes. With the paper's coefficient of variation
    (``std = mean/10``) the clipped mass is ~``Phi(-10)``, i.e. nil.
    """
    _check_normal(mean, std)
    if not 0 < n_sigma < math.inf:  # also rejects NaN
        raise PMFError(f"n_sigma must be finite and positive, got {n_sigma}")
    if std == 0:
        return deterministic(mean)
    if n_points < 2:
        raise PMFError("n_points must be >= 2 for a non-degenerate normal")
    lo = mean - n_sigma * std
    hi = mean + n_sigma * std
    if clip_at_zero:
        lo = max(lo, 0.0)
        if hi <= lo:
            raise PMFError(
                f"normal(mean={mean}, std={std}) has no mass above zero"
            )
    grid = np.linspace(lo, hi, n_points)
    half = (grid[1] - grid[0]) / 2.0
    edges = np.concatenate(([lo - half], (grid[:-1] + grid[1:]) / 2.0, [hi + half]))
    cdf = _ndtr((edges - mean) / std)  # standard normal CDF at the z-scores
    probs = np.diff(cdf)
    return PMF(grid, probs, normalize=True)


def sampled_normal(
    mean: float,
    std: float,
    *,
    n_samples: int = 10_000,
    bins: int | None = 200,
    rng: np.random.Generator | int | None = None,
    clip_at_zero: bool = True,
) -> PMF:
    """Monte-Carlo PMF from ``Normal(mean, std)`` samples (paper-style).

    This reproduces the paper's construction literally ("the PMFs were
    generated by sampling a normal distribution"); seeded runs are
    reproducible. Negative draws are redrawn when ``clip_at_zero`` is set.
    """
    _check_normal(mean, std)
    gen = ensure_rng(rng)
    x = gen.normal(mean, std, size=n_samples)
    if clip_at_zero:
        bad = x <= 0
        guard = 0
        while bad.any():
            x[bad] = gen.normal(mean, std, size=int(bad.sum()))
            bad = x <= 0
            guard += 1
            if guard > 100:
                raise PMFError(
                    f"normal(mean={mean}, std={std}) rarely positive; "
                    "cannot build an execution-time PMF from it"
                )
    return from_samples(x, bins=bins)


def percent_availability(pairs: Iterable[tuple[float, float]]) -> PMF:
    """Availability PMF from ``(availability %, probability %)`` pairs.

    Matches the units of the paper's Table I: both coordinates are percent.
    The returned PMF has support in ``(0, 1]`` fractions.
    """
    pairs = list(pairs)
    if not pairs:
        raise PMFError("percent_availability requires at least one pair")
    values = [a / 100.0 for a, _ in pairs]
    probs = [p / 100.0 for _, p in pairs]
    for a in values:
        if not 0.0 < a <= 1.0:
            raise PMFError(
                f"availability must be in (0, 100] percent, got {a * 100:g}"
            )
    return PMF(values, probs)
