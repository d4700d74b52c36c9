"""Ablation XTRA6 — retention drift and die-to-die yield.

Extends Fig. 4's cycling axis with the two other reliability axes a
deployed medical wearable cares about (covered by the paper's companion
references [15], [16]):

* BER versus *storage time* after programming (retention), 1T1R vs 2T2R;
* yield over a simulated die population with process-corner median shifts,
  against a BER budget inside the BNN tolerance (XTRA2).

Shape checks: both retention curves rise with log-time with 2T2R strictly
below 1T1R; 2T2R yield dominates 1T1R yield at every budget.
"""

import numpy as np

from repro.experiments import render_series, render_table
from repro.rram import (DeviceParameters, RetentionModel, YieldAnalysis,
                        analytic_ber_1t1r, analytic_ber_2t2r)

from _util import report

HOURS = np.array([1.0, 1e2, 1e3, 1e4, 1e5])      # up to ~11 years


def _run():
    params = DeviceParameters()
    retention = RetentionModel()
    curve_1t = analytic_ber_1t1r(params, 1e8, retention=retention,
                                 hours=HOURS)
    curve_2t = analytic_ber_2t2r(params, 1e8, retention=retention,
                                 hours=HOURS)
    yields = {}
    for mode in ("2T2R", "1T1R"):
        yields[mode] = YieldAnalysis(params, die_sigma=0.15, n_chips=500,
                                     ber_limit=1e-3, seed=11).run(
            cycles=3e8, mode=mode)
    return curve_1t, curve_2t, yields


def bench_ablation_retention_yield(benchmark):
    curve_1t, curve_2t, yields = benchmark.pedantic(_run, rounds=1,
                                                    iterations=1)
    text = render_series(
        "XTRA6a — BER vs storage time (fresh devices, log-time drift)",
        "hours", [f"{h:.0e}" for h in HOURS],
        {"1T1R": curve_1t, "2T2R": curve_2t}, fmt="{:.2e}")
    text += "\n\n" + render_table(
        "XTRA6b — die-population yield at BER budget 1e-3 (3e8 cycles, "
        "die sigma 0.15)",
        ["sensing", "yield", "worst-chip BER"],
        [[mode, f"{res.yield_fraction:.1%}", f"{res.worst_chip_ber:.2e}"]
         for mode, res in yields.items()])
    text += ("\n\nThe differential margin keeps both storage-time and "
             "process-corner error rates inside\nthe BNN budget without "
             "screening or ECC.")
    report("ablation_retention_yield", text)

    assert np.all(np.diff(curve_1t) > 0)
    assert np.all(np.diff(curve_2t) > 0)
    assert np.all(curve_2t < curve_1t)
    assert yields["2T2R"].yield_fraction >= yields["1T1R"].yield_fraction
    assert yields["2T2R"].yield_fraction > 0.9
