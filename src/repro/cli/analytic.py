"""The analytic experiments the CLI can run directly (seconds each).

Each runner returns the report text; :mod:`repro.cli.main` prints it.
Training-scale experiments live in ``benchmarks/`` and are not duplicated
here.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import model_memory
from repro.experiments import render_table
from repro.models import (BinarizationMode, ECGNet, EEGNet, MobileNetConfig,
                          MobileNetV1)
from repro.rram import (DeviceParameters, EnergyModel, PeripheryModel,
                        RetentionModel, analytic_ber_1t1r, analytic_ber_2t2r)
from repro.rram.analog import AnalogConfig, AnalogCrossbar
from repro.viz import line_plot

__all__ = ["run_fig4", "run_table1", "run_table2", "run_table4",
           "run_energy", "run_retention", "run_analog"]


def run_fig4(jobs: int = 1) -> str:
    """Closed-form Fig. 4 curves (the Monte-Carlo version is the bench).

    With ``jobs != 1`` a Monte-Carlo spot check of the closed forms runs
    on a process pool (array-level programming + noisy read-back of
    16K cells per point) and is appended to the report.
    """
    params = DeviceParameters()
    cycles = np.geomspace(1e8, 7e8, 12)
    ber_bl = analytic_ber_1t1r(params, cycles)
    ber_blb = analytic_ber_1t1r(params, cycles,
                                mismatch=params.device_mismatch)
    ber_2t2r = analytic_ber_2t2r(params, cycles)
    plot = line_plot(
        {"1T1R BL": (cycles, ber_bl),
         "1T1R BLb": (cycles, ber_blb),
         "2T2R": (cycles, ber_2t2r)},
        title="Fig. 4 — bit error rate vs programming cycles (analytic)",
        x_log=True, y_log=True, x_label="cycles", y_label="error rate")
    ratio = ber_bl / ber_2t2r
    text = (plot + "\n\n"
            f"1T1R/2T2R separation: {ratio.min():.0f}x .. {ratio.max():.0f}x"
            "\nPaper: 2T2R approximately two orders of magnitude below 1T1R."
            "\nMonte-Carlo version: pytest "
            "benchmarks/bench_fig4_bit_error_rate.py --benchmark-only -s")
    if jobs == 1:
        return text

    from repro.experiments import map_parallel
    from repro.experiments.workloads import ber_point
    spots = [{"cycles": int(c), "mode": mode, "n_cells": 16384, "seed": 0}
             for mode in ("1T1R", "2T2R")
             for c in np.geomspace(1e8, 7e8, 4)]
    measured = map_parallel(ber_point, spots, jobs=jobs)
    lines = [f"\nMonte-Carlo spot check ({jobs} workers, "
             "16,384 cells/point):"]
    analytic_of = {"1T1R": analytic_ber_1t1r, "2T2R": analytic_ber_2t2r}
    for spot, result in zip(spots, measured):
        closed = float(analytic_of[spot["mode"]](params, spot["cycles"]))
        lines.append(f"  {spot['mode']} @ {spot['cycles']:.1e} cycles: "
                     f"measured {result['ber']:.2e} "
                     f"(analytic {closed:.2e})")
    return text + "\n" + "\n".join(lines)


def _architecture_table(title: str, model) -> str:
    rows = [s.row() for s in model.layer_summaries()]
    table = render_table(title,
                         ["Layer", "Kernels", "Padding", "Output shape",
                          "Params"], rows)
    return (table +
            f"\n\nTotal parameters: {model.num_parameters():,}")


def run_table1() -> str:
    model = EEGNet(rng=np.random.default_rng(0))
    return _architecture_table(
        "Table I — EEG classification network architecture", model)


def run_table2() -> str:
    model = ECGNet(rng=np.random.default_rng(0))
    return _architecture_table(
        "Table II — ECG classification network architecture", model)


def run_table4() -> str:
    rng = np.random.default_rng(0)
    eeg = model_memory("EEG", EEGNet(rng=rng))
    ecg = model_memory("ECG", ECGNet(rng=rng))
    mobilenet_bin = MobileNetV1(MobileNetConfig.paper(),
                                mode=BinarizationMode.BINARY_CLASSIFIER,
                                rng=rng)
    mobilenet = model_memory(
        "ImageNet",
        MobileNetV1(MobileNetConfig.paper(), mode=BinarizationMode.REAL,
                    rng=rng),
        binary_classifier_params=mobilenet_bin.classifier_parameters())
    table = render_table(
        "Table IV — model memory usage and classifier-binarization savings",
        ["Model", "Total params", "Classifier params",
         "Model size 32-bit / 8-bit", "Bin classif. saving 32-bit / 8-bit"],
        [b.table_row() for b in (eeg, ecg, mobilenet)])
    return (table +
            "\n\nPaper rows: EEG 64%/57.8%, ECG 84%/75.8%, "
            "ImageNet 20%/7.3%.")


def run_energy() -> str:
    model = EnergyModel()
    # The paper's EEG classifier: 2520 -> 80 -> 2.
    shapes = [(80, 2520), (2, 80)]
    in_memory = model.in_memory_inference(shapes)
    sram = model.digital_inference(shapes, weight_memory="sram")
    dram = model.digital_inference(shapes, weight_memory="dram")
    rows = [
        ("in-memory 2T2R (Fig. 5)", *in_memory.row()),
        ("digital, SRAM weights + SECDED", *sram.row()),
        ("digital, DRAM weights + SECDED", *dram.row()),
    ]
    table = render_table(
        "Energy per EEG-classifier inference (pJ) and area (mm^2)",
        ["Datapath", "Sense", "Compute", "Movement", "ECC", "Total",
         "Area"], rows)
    advantage = sram.total_pj / in_memory.total_pj
    return (table +
            f"\n\nIn-memory advantage vs SRAM digital: {advantage:.1f}x "
            "(energy; weights never move).")


def run_retention() -> str:
    params = DeviceParameters()
    model = RetentionModel()
    years = np.geomspace(0.01, 10.0, 10)
    hours = years * 365.25 * 24
    ber1 = analytic_ber_1t1r(params, 1e8, retention=model, hours=hours)
    ber2 = analytic_ber_2t2r(params, 1e8, retention=model, hours=hours)
    floor = np.finfo(float).tiny
    plot = line_plot(
        {"1T1R": (years, np.maximum(ber1, floor)),
         "2T2R": (years, np.maximum(ber2, floor * 10))},
        title="Retention — bit error rate vs time since programming",
        x_log=True, y_log=True, x_label="years", y_label="error rate")
    return (plot + "\n\nDifferential storage also suppresses retention "
            "drift: both devices of a pair relax together.")


def run_analog() -> str:
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(32, 128))
    x = rng.normal(size=(64, 128))
    rows = []
    periphery = PeripheryModel()
    energy_model = EnergyModel()
    for adc_bits in (4, 6, 8, 10, 12):
        cfg = AnalogConfig(adc_bits=adc_bits, dac_bits=8,
                           programming_sigma=0.05, read_noise_sigma=0.01)
        xbar = AnalogCrossbar(weights, cfg, np.random.default_rng(1))
        err = xbar.relative_error(weights, x)
        energy = periphery.matvec_energy_pj(128, 32, 8, adc_bits)
        area = periphery.matvec_area_um2(128, 32, 8, adc_bits,
                                         adcs_shared=8)
        rows.append((str(adc_bits), f"{err:.3f}", f"{energy:.0f}",
                     f"{area:.0f}"))
    digital_fj = 128 * 32 * energy_model.xnor_pcsa_sense_fj
    table = render_table(
        "Analog crossbar (128-in, 32-out): matvec error and converter cost "
        "vs ADC resolution",
        ["ADC bits", "rel. error", "converter energy (pJ)",
         "converter area (um^2)"], rows)
    return (table +
            f"\n\nSame matvec on the binary 2T2R fabric: "
            f"{digital_fj / 1000:.1f} pJ of PCSA sensing, no converters."
            "\nPaper §II-A: analog coding needs only two devices per weight "
            "but pays a large ADC/DAC periphery.")
