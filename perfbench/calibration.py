"""Machine-speed calibration of the end-to-end timings.

The 2-vCPU VM the benchmark was sized on changes speed by up to 1.4x over
minutes, as the host's load changes: a 50k fit takes 0.22 s in one minute
and 0.35 s a few minutes later, and every other timing moves with it.  Ten
seeds run one after another, or two sets of them, then differ by more than
any bound the benchmark may set.

So each run also times a fixed CPU job that calls no program code: numpy
counting, sorting and uniquing over fixed arrays, and a Python dict loop,
the same kinds of work the fit and the sampler do.  The job runs between
the measured operations, never while the program is busy.  Every
end-to-end time is reported as it would read at the speed where one pass
of the job takes :data:`REFERENCE_S`; a rate is scaled the other way.  A
change to the program moves the measured operations and not the job, so
it moves the scaled figures by the same ratio as the raw ones.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one pass of the job takes on the sizing VM at its median speed,
#: so that scaled figures read close to the seconds measured there.
REFERENCE_S = 0.05
#: Passes per :meth:`Calibration.measure`; their median is one sample.
PASSES = 3

_inputs = None


def _job_inputs():
    global _inputs
    if _inputs is None:
        import numpy as np

        rng = np.random.default_rng(0)
        _inputs = (rng.integers(0, 1000, 400_000), rng.random(200_000))
    return _inputs


def one_pass() -> float:
    """Seconds of one pass of the fixed job."""
    import numpy as np

    ints, floats = _job_inputs()
    t0 = time.perf_counter()
    np.bincount(ints, minlength=1000)
    np.argsort(floats, kind="stable")
    np.unique(ints)
    counts: dict = {}
    for i in range(40_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - t0


class Calibration:
    """The job's samples over one run, and the scaling they imply."""

    def __init__(self, samples=()) -> None:
        self.samples = list(samples)

    def measure(self) -> None:
        self.samples.append(statistics.median(one_pass() for _ in range(PASSES)))

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed this run's machine was."""
        return statistics.median(self.samples) / REFERENCE_S

    def seconds(self, raw: float) -> float:
        return raw / self.slowdown

    def rate(self, raw: float) -> float:
        return raw * self.slowdown
