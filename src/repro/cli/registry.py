"""Registry of every reproduced table, figure and ablation."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentInfo", "EXPERIMENTS"]


@dataclass(frozen=True)
class ExperimentInfo:
    """Catalogue entry for one paper artefact.

    ``kind`` is ``analytic`` when ``python -m repro run <id>`` executes it
    directly (seconds), or ``training`` when it needs the pytest harness
    (minutes); ``runner`` names the function in :mod:`repro.cli.analytic`
    for analytic experiments.
    """

    id: str
    artefact: str
    description: str
    kind: str
    modules: tuple[str, ...]
    bench: str
    runner: str | None = None


EXPERIMENTS: dict[str, ExperimentInfo] = {
    info.id: info for info in [
        ExperimentInfo(
            id="FIG4",
            artefact="Fig. 4 — bit error rate vs programming cycles",
            description=(
                "1T1R BL / 1T1R BLb / 2T2R mean bit error rate over 1e8-7e8 "
                "program cycles; the 2T2R differential read sits about two "
                "orders of magnitude below single-ended sensing."),
            kind="analytic",
            modules=("repro.rram.device", "repro.rram.sense",
                     "repro.rram.errors"),
            bench="benchmarks/bench_fig4_bit_error_rate.py",
            runner="run_fig4"),
        ExperimentInfo(
            id="TAB1",
            artefact="Table I — EEG classification network architecture",
            description=("Layer-by-layer kernels/padding/output shapes of "
                         "the end-to-end EEG model (Dose et al. baseline)."),
            kind="analytic",
            modules=("repro.models.eeg_net",),
            bench="benchmarks/bench_table1_eeg_architecture.py",
            runner="run_table1"),
        ExperimentInfo(
            id="TAB2",
            artefact="Table II — ECG classification network architecture",
            description=("Layer-by-layer geometry of the custom ECG "
                         "electrode-inversion CNN."),
            kind="analytic",
            modules=("repro.models.ecg_net",),
            bench="benchmarks/bench_table2_ecg_architecture.py",
            runner="run_table2"),
        ExperimentInfo(
            id="TAB3",
            artefact="Table III — accuracy: real vs BNN vs binary classifier",
            description=(
                "5-fold cross-validated accuracy of the three binarization "
                "modes on the EEG and ECG tasks, plus the scaled MobileNet "
                "image row."),
            kind="training",
            modules=("repro.models", "repro.experiments"),
            bench="benchmarks/bench_table3_accuracy.py"),
        ExperimentInfo(
            id="TAB4",
            artefact="Table IV — model memory usage and savings",
            description=(
                "Exact parameter/byte accounting of the full-size EEG, ECG "
                "and MobileNet architectures; savings from classifier "
                "binarization vs 32-bit and 8-bit references."),
            kind="analytic",
            modules=("repro.analysis.memory",),
            bench="benchmarks/bench_table4_memory.py",
            runner="run_table4"),
        ExperimentInfo(
            id="FIG7",
            artefact="Fig. 7 — ECG accuracy vs filter augmentation",
            description=(
                "Accuracy of real / all-binarized / binary-classifier ECG "
                "models as the convolution filter count is multiplied."),
            kind="training",
            modules=("repro.models.ecg_net", "repro.experiments"),
            bench="benchmarks/bench_fig7_filter_augmentation.py"),
        ExperimentInfo(
            id="FIG8",
            artefact="Fig. 8 — MobileNet binary-classifier training curves",
            description=("Top-1/Top-5 accuracy per epoch of the modified "
                         "MobileNet with a two-layer binarized classifier."),
            kind="training",
            modules=("repro.models.mobilenet", "repro.experiments"),
            bench="benchmarks/bench_fig8_mobilenet_training.py"),
        ExperimentInfo(
            id="XTRA1",
            artefact="§II-B claim — 2T2R matches single-error-correction ECC",
            description=("Bit error rate of the ECC-less 2T2R read vs "
                         "Hamming-protected 1T1R storage at equal "
                         "redundancy."),
            kind="training",
            modules=("repro.rram.ecc",),
            bench="benchmarks/bench_ablation_2t2r_vs_ecc.py"),
        ExperimentInfo(
            id="XTRA2",
            artefact="§II-B claim — BNN accuracy robust to bit errors",
            description="Fault-injection sweep on a deployed ECG BNN.",
            kind="training",
            modules=("repro.rram.errors",),
            bench="benchmarks/bench_ablation_fault_injection.py"),
        ExperimentInfo(
            id="XTRA3",
            artefact="Eq. 3 — in-memory inference is bit-exact",
            description=("Deployed XNOR-popcount accelerator vs the "
                         "software model at zero bit-error rate."),
            kind="training",
            modules=("repro.rram.accelerator",),
            bench="benchmarks/bench_ablation_accelerator_fidelity.py"),
        ExperimentInfo(
            id="XTRA4",
            artefact="§II energy argument — in-memory vs digital",
            description=("Per-inference energy/area of the Fig. 5 "
                         "architecture vs SRAM/DRAM digital datapaths with "
                         "and without ECC."),
            kind="analytic",
            modules=("repro.rram.energy",),
            bench="benchmarks/bench_ablation_energy.py",
            runner="run_energy"),
        ExperimentInfo(
            id="XTRA5",
            artefact="companion claim — program-verify trades energy for BER",
            description=("Program-and-verify retry loops on a worn device "
                         "corner."),
            kind="training",
            modules=("repro.rram.programming",),
            bench="benchmarks/bench_ablation_program_verify.py"),
        ExperimentInfo(
            id="XTRA6",
            artefact="deployment-life claims — retention and yield",
            description=("Retention-drift BER over years and Monte-Carlo "
                         "die-to-die yield."),
            kind="analytic",
            modules=("repro.rram.reliability",),
            bench="benchmarks/bench_ablation_retention_yield.py",
            runner="run_retention"),
        ExperimentInfo(
            id="XTRA7",
            artefact="§II-A claim — analog coding pays an ADC/DAC overhead",
            description=(
                "Analog crossbar (ISAAC/PRIME-style) matvec error vs ADC "
                "resolution, and converter energy/area against the 1-bit "
                "PCSA periphery."),
            kind="analytic",
            modules=("repro.rram.analog",),
            bench="benchmarks/bench_ablation_analog_adc.py",
            runner="run_analog"),
        ExperimentInfo(
            id="XTRA9",
            artefact="§I reference [14] — stochastic binary input encoding",
            description=(
                "Bernoulli ±1 input streams: dot-product fidelity and BNN "
                "decision agreement vs stream length; the ADC-free front "
                "end of the companion work."),
            kind="training",
            modules=("repro.nn.stochastic",),
            bench="benchmarks/bench_ablation_stochastic_encoding.py"),
        ExperimentInfo(
            id="XTRA13",
            artefact="system payoff — usable write-cycle lifetime",
            description=(
                "Fig. 4's wear model composed with the measured BNN error "
                "tolerance: write-endurance lifetime under an accuracy "
                "budget, 1T1R vs 2T2R."),
            kind="training",
            modules=("repro.analysis.lifetime",),
            bench="benchmarks/bench_ablation_lifetime.py"),
        ExperimentInfo(
            id="XTRA12",
            artefact="Fig. 2 building block — array macro geometry",
            description=(
                "Macro-size sweep for the paper's classifiers: macro "
                "count, stranded-synapse utilization, and silicon area "
                "around the 32x32 test-vehicle geometry."),
            kind="training",
            modules=("repro.rram.floorplan",),
            bench="benchmarks/bench_ablation_macro_geometry.py"),
        ExperimentInfo(
            id="XTRA11",
            artefact="§II-B note — conv layers adapted to the fabric",
            description=(
                "Weight-stationary binary 1-D/2-D convolution on 2T2R "
                "arrays: bit-exactness on ideal devices, near-1 agreement "
                "on fresh ones, and the data-reuse cost shape."),
            kind="training",
            modules=("repro.rram.conv", "repro.rram.conv2d"),
            bench="benchmarks/bench_ablation_conv_fabric.py"),
        ExperimentInfo(
            id="XTRA10",
            artefact="§II-A argument — XNOR replaces multipliers",
            description=(
                "Packed 64-bit-word XNOR-popcount kernels vs the integer "
                "matmul / float im2col formulations: the EEG classifier "
                "dense layer and a binary separable conv block (bit-sliced "
                "depthwise + packed pointwise), bit-exact agreement and "
                "the measured speedups (BENCH_packed_conv.json)."),
            kind="training",
            modules=("repro.nn.bitops", "repro.runtime"),
            bench="benchmarks/bench_ablation_packed_kernel.py"),
        ExperimentInfo(
            id="XTRA14",
            artefact="throughput claim — parallel sweep execution",
            description=(
                "The Fig. 4/7/8 sweeps on a process pool: worker/"
                "persistence contract, wall-clock speedup over the serial "
                "loop on a 16-point grid, and byte-identical resume after "
                "a simulated crash (records BENCH_sweep_parallel.json)."),
            kind="script",
            modules=("repro.experiments.executor",
                     "repro.experiments.sweep"),
            bench="benchmarks/bench_sweep_parallel.py"),
        ExperimentInfo(
            id="XTRA15",
            artefact="throughput claim — fast-path RRAM simulation kernels",
            description=(
                "Noise-free Fig. 5 configurations dispatched to the packed "
                "uint64 XNOR-popcount kernels at program time vs full "
                "device simulation on the quickstart-scale EEG classifier, "
                "bit-exact against the reference backend (records "
                "BENCH_rram_hotpath.json)."),
            kind="script",
            modules=("repro.rram.accelerator", "repro.nn.bitops",
                     "repro.runtime"),
            bench="benchmarks/bench_rram_hotpath.py"),
        ExperimentInfo(
            id="XTRA16",
            artefact="throughput claim — trial-batched Monte-Carlo engine",
            description=(
                "A Fig. 4-style BER grid evaluated with the trial-batched "
                "noisy read engine and the per-worker programmed-plan "
                "cache vs the per-trial rebuild baseline: >=5x wall-clock "
                "with bit-identical statistics under fixed per-trial RNG "
                "streams, and cached-plan sweeps byte-identical to cold "
                "runs (records BENCH_mc_trials.json)."),
            kind="script",
            modules=("repro.rram.mc", "repro.rram.array",
                     "repro.rram.accelerator",
                     "repro.experiments.executor",
                     "repro.experiments.workloads"),
            bench="benchmarks/bench_mc_trials.py"),
        ExperimentInfo(
            id="XTRA17",
            artefact="scale claim — sharded multi-macro backend",
            description=(
                "Every folded layer split across fixed-geometry simulated "
                "RRAM chips by its floorplan shard map (fan-in slices, "
                "partial-popcount reduction, fan-out stripes): bit-"
                "identical to the monolithic RRAM backend on noise-free "
                "configs at divisible and tail-shard geometries, chunk-"
                "invariant Monte-Carlo trials with per-(shard, trial) "
                "noise streams, and sharded-vs-monolithic throughput "
                "(records BENCH_sharded_backend.json)."),
            kind="script",
            modules=("repro.rram.accelerator", "repro.rram.floorplan",
                     "repro.rram.mc", "repro.runtime"),
            bench="benchmarks/bench_sharded_backend.py"),
        ExperimentInfo(
            id="XTRA18",
            artefact="reliability claim — lifetime faults, spares, ECC",
            description=(
                "Lifetime fault injection through the MC engine: "
                "retention aging (Arrhenius bake), split-stable stuck-at "
                "fault maps, dead-macro remap onto spare chips "
                "(bit-identical degraded execution), and the executable "
                "SECDED weight store — agreement-vs-years curves showing "
                "ECC extends the usable lifetime of a deployed "
                "classifier (records BENCH_reliability.json)."),
            kind="script",
            modules=("repro.rram.faults", "repro.rram.reliability",
                     "repro.rram.ecc", "repro.rram.accelerator",
                     "repro.runtime"),
            bench="benchmarks/bench_reliability.py"),
        ExperimentInfo(
            id="XTRA19",
            artefact="serving claim — micro-batched inference daemon",
            description=(
                "The always-on daemon (``repro serve``) keeps one "
                "compiled plan resident and coalesces concurrent "
                "requests into batched dispatches on the noise-free "
                "packed kernels: bounded admission queue with "
                "backpressure, window/fill micro-batcher, single "
                "executor, per-request demux — bit-identical to solo "
                "predict, with a saturated-throughput-vs-batch-window "
                "curve (records BENCH_serve.json)."),
            kind="script",
            modules=("repro.serve.batcher", "repro.serve.server",
                     "repro.serve.stats", "repro.serve.client",
                     "repro.metrics"),
            bench="benchmarks/bench_serve.py"),
        ExperimentInfo(
            id="XTRA20",
            artefact="multi-tenant claim — co-resident model bundles",
            description=(
                "Several models resident on one simulated chip and one "
                "daemon: pickle-free bundle artifacts, ChipPlacer "
                "first-fit-decreasing co-resident placement with a "
                "pooled spare reserve (EEG+ECG on 3 macros vs 13 "
                "solo), and a tenant-routing serve front running each "
                "tenant's plan bit-identical to solo.  Aggregate req/s "
                "is ~1.8x sequential solo daemons, mostly from booting "
                "one daemon instead of two; serve-phase throughput is "
                "at parity (~1.09x) (records BENCH_multitenant.json)."),
            kind="script",
            modules=("repro.io.plans", "repro.rram.floorplan",
                     "repro.rram.accelerator", "repro.serve.server",
                     "repro.serve.stats"),
            bench="benchmarks/bench_multitenant.py"),
        ExperimentInfo(
            id="XTRA21",
            artefact="noise-aware training claim — hardware in the loop",
            description=(
                "The train -> compile -> deploy loop closed in-repo: "
                "deterministic training recipes for the demo models, an "
                "RRAM read-noise surrogate (per-bit sense-flip CLT "
                "model, straight-through backward) armed on the "
                "classifier layers during training, and the "
                "trained_robustness sweep comparing seeded vs clean- "
                "trained vs noise-trained weights across the Fig. 4 "
                "sense-sigma grid on a deployed zero-variability chip "
                "(records BENCH_noise_training.json)."),
            kind="script",
            modules=("repro.nn.noise", "repro.experiments.training",
                     "repro.experiments.workloads", "repro.io.plans"),
            bench="benchmarks/bench_noise_training.py"),
        ExperimentInfo(
            id="XTRA8",
            artefact="§I reference point — 8-bit quantization",
            description=(
                "Accuracy and size of post-training-quantized models "
                "across bit widths; the paper's 8-bit reference column."),
            kind="training",
            modules=("repro.nn.quant", "repro.analysis.quantization"),
            bench="benchmarks/bench_ablation_quantization.py"),
    ]
}
