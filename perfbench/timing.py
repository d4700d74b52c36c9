"""The one timing helper every workload uses.

* :func:`warm_up` runs a unit of work untimed; :func:`time_units` then
  runs units in turns until a time budget is spent and returns every
  duration, raw and calibrated to reference speed (:class:`Speedometer`);
* :func:`summarize` turns samples into a median plus the highest
  percentile that still has at least ten samples beyond it, with the
  sample count; :func:`rate` turns them into work per second;
* :func:`fingerprint` describes the machine a measurement came from.

Steadiness comes from run length, medians and calibration, never from
best-of.  The machines this runs on are shared: each core switches, every
few seconds, between a fast and a contended speed about 1.6x slower, and
the share of contended time drifts over minutes.  Raw times of two runs a
few minutes apart then differ by up to 60%.  So each turn of real work is
preceded by a short run of a fixed calibration unit, and the turn's
durations are scaled by how fast that unit ran, to what they would be at
the calibration unit's reference speed.  A change to the program moves
the real work and not the calibration unit, so it still shows in full.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time

__all__ = ["warm_up", "time_units", "Speedometer", "summarize", "rate",
           "fingerprint", "peak_rss_mb"]

#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def warm_up(unit, times: int = 2) -> None:
    """Run ``unit()`` untimed, so caches fill and lazy set-up finishes
    before timing (set-up time counts it; the timed phase does not)."""
    for _ in range(times):
        unit()


class Speedometer:
    """How fast this core runs right now, against a fixed reference.

    The calibration unit is benchmark-owned work shaped like the
    program's: an interpreter loop, a run of small numpy calls and a
    mid-size matrix product.  :meth:`factor` times it for a short while
    and returns ``REFERENCE_S`` over its median time: 1 at reference
    speed, below 1 on a contended spell.  ``REFERENCE_S`` is a fixed
    nominal time, about the unit's median on the reference machine
    (2-core Xeon, python 3.11, numpy 2.4); changing it rescales every
    calibrated figure.
    """

    REFERENCE_S = 1.0e-3

    def __init__(self):
        import numpy as np
        self._small = np.linspace(0.0, 1.0, 64)
        self._a = np.linspace(0.0, 1.0, 256 * 512).reshape(256, 512)
        self._b = np.linspace(1.0, 2.0, 512 * 32).reshape(512, 32)

    def unit(self) -> None:
        total = 0
        for k in range(6000):
            total += k * k
        x = self._small
        for _ in range(100):
            x = (x + 1.0) * 0.5
            x.argmax()
        (self._a @ self._b).sum()

    def gauge(self, seconds: float) -> float:
        """Median time of the calibration unit, run at least once and
        until ``seconds`` have passed."""
        times = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.unit()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            if t1 - start >= seconds:
                return statistics.median(times)

    def factor(self, seconds: float) -> float:
        return self.REFERENCE_S / self.gauge(seconds)


class Samples:
    """Durations of one unit: ``raw`` seconds as timed, and ``calibrated``
    seconds at reference speed (each raw duration times the speed factor
    of its turn)."""

    def __init__(self):
        self.raw: list[float] = []
        self.calibrated: list[float] = []


#: After each timed call the calibration unit runs for this share of the
#: call's duration (at least once).
GAUGE_SHARE = 0.05
#: A call is calibrated by the median gauge of this many calls around it.
GAUGE_WINDOW = 9


def time_units(units: dict, seconds: float,
               slice_seconds: float = 0.25) -> dict[str, Samples]:
    """Time named units of work, taking turns, for ``seconds`` in total.

    Each turn runs one unit back to back for ``slice_seconds``; the next
    unit takes the next turn, and the turns repeat until the budget is
    spent.  Taking turns spreads every unit's samples over the whole run,
    so a slow spell weighs on all of them alike.  After every call the
    calibration unit runs briefly (:data:`GAUGE_SHARE`), and each call is
    calibrated by the median of the gauges of the :data:`GAUGE_WINDOW`
    calls around it, which tracks a change of speed within a few calls.

    A unit must consume its own result (compare it, store it) so no lazy
    work escapes the timed region.
    """
    speedometer = Speedometer()
    samples = {name: Samples() for name in units}
    half = GAUGE_WINDOW // 2
    start = time.perf_counter()
    while True:
        for name, unit in units.items():
            raw, gauges = [], []
            turn = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                unit()
                t1 = time.perf_counter()
                raw.append(t1 - t0)
                gauges.append(speedometer.gauge((t1 - t0) * GAUGE_SHARE))
                if time.perf_counter() - turn >= slice_seconds:
                    break
            out = samples[name]
            for i, duration in enumerate(raw):
                near = gauges[max(0, i - half):i + half + 1]
                out.raw.append(duration)
                out.calibrated.append(duration * speedometer.REFERENCE_S
                                      / statistics.median(near))
        if time.perf_counter() - start >= seconds:
            return samples


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with ``MIN_BEYOND`` samples
    beyond it among ``n`` samples (50 when even the median has fewer)."""
    for q in _TAILS:
        if n * (1.0 - q / 100.0) >= MIN_BEYOND:
            return q
    return 50.0


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(samples) -> dict:
    """``{"median", "tail", "tail_pct", "n"}`` of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples to summarize")
    q = tail_percentile(len(ordered))
    return {"median": statistics.median(ordered),
            "tail": _percentile(ordered, q), "tail_pct": q,
            "n": len(ordered)}


def rate(durations: list[float], work_per_unit: float) -> float:
    """Work completed per second of timed units: total work over total
    time, so every slow spell counts in proportion to its length."""
    return work_per_unit * len(durations) / sum(durations)


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process, in MiB."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """Cores available to this process, CPU model, python and numpy."""
    import numpy
    return {"cores": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}
