"""Machine-speed normalization for a shared, noisy host.

The benchmark runs on a virtual machine whose CPU share swings between
a fast and a slow state (about 1.8x apart) several times a second and
drifts over minutes, driven by other tenants. Raw wall times of one run
therefore differ by 20-30 % from the next for the same work, more than
any useful regression bound.

A :class:`SpeedMeter` samples a fixed reference loop (:func:`probe`,
the same mix of interpreter work and small NumPy calls as the
simulator's per-chunk step) at many points of a pass — before every
unit of work — and each timed interval is reported at reference speed:
``raw seconds * REFERENCE_PROBE_S / mean(probes around the interval)``,
with the probes' own time taken out of the wall time. The probe is
benchmark code, so a change to the program cannot move it. Raw times
are kept in the run record next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe duration that defines "reference speed": between the fast
#: (~2.7 ms) and slow (~4.5 ms) states of the host the benchmark was
#: defined on (2 vCPUs, x86_64, CPython 3.11, NumPy 2.4).
REFERENCE_PROBE_S = 0.0035

_PROBE_STEPS = 500


def probe() -> float:
    """Seconds taken by one fixed reference loop."""
    rng = np.random.default_rng(0)
    table: dict[int, float] = {}
    t0 = time.perf_counter()
    for i in range(_PROBE_STEPS):
        x = rng.gamma(100.0, 0.01, size=8)
        c = np.cumsum(x)
        j = int(np.searchsorted(c, c[-1] * 0.5))
        table[i & 127] = table.get(i & 127, 0.0) + float(c[j])
    return time.perf_counter() - t0


class SpeedMeter:
    """Probe samples taken during one pass, in order."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take one probe; returns its index."""
        self.samples.append(probe())
        return len(self.samples) - 1

    @property
    def spent_s(self) -> float:
        """Time the probes themselves took (to subtract from the wall)."""
        return sum(self.samples)

    def speed(self, first: int = 0, last: int | None = None) -> float:
        """Scale factor (raw time x factor = reference-speed time) from
        samples ``first..last`` inclusive (default: all)."""
        window = self.samples[first:None if last is None else last + 1]
        return REFERENCE_PROBE_S * len(window) / sum(window)
