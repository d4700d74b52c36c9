"""Ablation XTRA11 — convolutional layers on the binary fabric (§II-B).

The paper notes its Fig. 5 dense architecture "can be adapted for
convolutional layers" and defers the mapping decision to the ISAAC/PRIME
line of work.  The repository implements the weight-stationary adaptation
in 1-D (`repro.rram.conv`) and 2-D (`repro.rram.conv2d`); this harness
verifies its two claims:

* fidelity — on ideal devices the on-fabric conv stack is bit-exact with
  the folded software math, and on realistic fresh devices the bit
  agreement stays very high (binary reads, not analog sums);
* cost shape — the weight-stationary mapping stores each kernel once but
  re-senses it per output position, so sense ops scale with the output
  map while the device count scales only with the kernel volume (the
  data-movement / data-reuse trade the paper mentions).
"""

import numpy as np

from repro.experiments import render_table
from repro.nn import BatchNorm2d, BinaryConv2d
from repro.rram import AcceleratorConfig, fold_conv2d_batchnorm_sign
from repro.runtime import RRAMBackend

from _util import report

IMAGE_SIDES = (8, 12, 16, 24)
CHANNELS_IN = 8
CHANNELS_OUT = 16
KERNEL = 3
BATCH = 8


def _build(rng):
    conv = BinaryConv2d(CHANNELS_IN, CHANNELS_OUT, kernel_size=KERNEL,
                        rng=rng)
    bn = BatchNorm2d(CHANNELS_OUT)
    bn.set_buffer("running_mean", rng.normal(scale=1.0, size=CHANNELS_OUT))
    bn.set_buffer("running_var", rng.uniform(0.5, 2.0, size=CHANNELS_OUT))
    bn.gamma.data = rng.normal(size=CHANNELS_OUT)
    bn.beta.data = rng.normal(size=CHANNELS_OUT)
    bn.eval()
    return fold_conv2d_batchnorm_sign(conv, bn)


def _run():
    rng = np.random.default_rng(0)
    folded = _build(rng)
    ideal = RRAMBackend(AcceleratorConfig(ideal=True),
                        np.random.default_rng(1)).prepare_conv2d(folded)
    fresh = RRAMBackend(AcceleratorConfig(),
                        np.random.default_rng(2)).prepare_conv2d(folded)

    rows = []
    exact, agreements = [], []
    for side in IMAGE_SIDES:
        bits = rng.integers(0, 2, size=(BATCH, CHANNELS_IN, side, side)
                            ).astype(np.uint8)
        reference = folded.forward_bits(bits)
        ideal_out = ideal.forward_bits(bits)
        fresh_out = fresh.forward_bits(bits)
        exact.append(bool(np.array_equal(ideal_out, reference)))
        agreements.append(float(np.mean(fresh_out == reference)))
        h_out = side - KERNEL + 1
        positions = BATCH * h_out * h_out
        sense_per_image = positions * folded.fan_in * CHANNELS_OUT / BATCH
        rows.append((f"{side}x{side}", str(exact[-1]),
                     f"{agreements[-1]:.4f}",
                     f"{folded.weight_bits.size * 2:,}",
                     f"{sense_per_image:,.0f}"))
    return rows, exact, agreements


def bench_ablation_conv_fabric(benchmark):
    rows, exact, agreements = benchmark.pedantic(_run, rounds=1,
                                                 iterations=1)

    text = render_table(
        "XTRA11 — weight-stationary binary conv on the 2T2R fabric "
        f"({CHANNELS_IN}->{CHANNELS_OUT}, {KERNEL}x{KERNEL} kernels)",
        ["Input", "Ideal bit-exact", "Fresh-device agreement",
         "Devices (fixed)", "Sense ops / image"], rows)
    text += ("\n\nDevices stay constant (weights stored once); sense "
             "operations grow with the output\nmap — the data-reuse side "
             "of the paper's §II-B trade-off.  Binary reads keep the\n"
             "realistic-device agreement near 1 without ECC.")
    report("ablation_conv_fabric", text)

    assert all(exact)
    assert min(agreements) > 0.95


def bench_ablation_conv_fabric_depthwise(benchmark):
    """Depthwise variant: per-channel arrays, kernel-only fan-in."""
    from repro.nn import BinaryDepthwiseConv2d
    from repro.rram import fold_depthwise2d_batchnorm_sign

    rng = np.random.default_rng(3)
    conv = BinaryDepthwiseConv2d(CHANNELS_IN, kernel_size=KERNEL, rng=rng)
    bn = BatchNorm2d(CHANNELS_IN)
    bn.set_buffer("running_mean", rng.normal(size=CHANNELS_IN))
    bn.gamma.data = rng.normal(size=CHANNELS_IN)
    bn.eval()
    folded = fold_depthwise2d_batchnorm_sign(conv, bn)

    def run():
        bits = rng.integers(0, 2, size=(BATCH, CHANNELS_IN, 16, 16)
                            ).astype(np.uint8)
        return folded.forward_bits(bits)

    out = benchmark(run)
    assert out.shape == (BATCH, CHANNELS_IN, 14, 14)
    assert folded.fan_in == KERNEL * KERNEL
    report("ablation_conv_fabric_depthwise",
           "XTRA11b — depthwise fold: fan-in limited to the "
           f"{KERNEL}x{KERNEL} kernel ({folded.fan_in} bits/array row), "
           "one tiny array per channel.")
