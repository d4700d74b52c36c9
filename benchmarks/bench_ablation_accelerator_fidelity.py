"""Ablation XTRA3 — Eq. (3) / Fig. 5 fidelity: the in-memory pipeline must
be bit-exact with the software model on ideal hardware, and nearly exact on
fresh realistic hardware.

This is the deployment contract of the whole paper: training happens
off-chip in floating point; what the chip executes is XNOR sensing +
popcount + folded thresholds.  Any mismatch here would invalidate every
accuracy number reported for the hardware.

Harness: train a binarized-classifier ECG model, deploy twice (ideal and
realistic device parameters), compare predictions sample by sample; also
benchmark in-memory inference throughput.
"""

import numpy as np

from repro.data import ECGConfig, make_ecg_dataset
from repro.experiments import TrainConfig, render_table, train_model
from repro.models import BinarizationMode, ECGNet
from repro.rram import AcceleratorConfig, classifier_input_bits
from repro.runtime import RRAMBackend, fold_classifier_stack, plan_from_folded
from repro.tensor import Tensor, no_grad

from _util import report


def _prepare():
    dataset = make_ecg_dataset(ECGConfig(n_trials=200, n_samples=300,
                                         noise_amplitude=0.05, seed=23))
    model = ECGNet(mode=BinarizationMode.BINARY_CLASSIFIER, n_samples=300,
                   base_filters=8, rng=np.random.default_rng(6))
    model.fit_input_norm(dataset.inputs)
    train_model(model, dataset.inputs, dataset.labels,
                TrainConfig(epochs=25, batch_size=16, lr=2e-3, seed=5))
    model.eval()
    with no_grad():
        software = model(Tensor(dataset.inputs)).data.argmax(1)
    bits = classifier_input_bits(model, dataset.inputs)
    ideal, realistic = (
        plan_from_folded(*fold_classifier_stack(model),
                         backend=RRAMBackend(config))
        for config in (AcceleratorConfig(ideal=True), AcceleratorConfig()))
    return dataset, software, bits, ideal, realistic


def _meter(plan, name: str) -> int:
    """Sum one controller meter over the plan's in-memory layers."""
    return sum(getattr(op.executor.controller, name)
               for op in plan.layer_ops)


def bench_ablation_accelerator_fidelity(benchmark):
    dataset, software, bits, ideal, realistic = _prepare()

    ideal_pred = ideal.predict(bits)
    realistic_pred = realistic.predict(bits)
    # Read the meters before the timing loop, whose round count varies:
    # both rows count exactly one predict over the whole dataset.
    sense_ops = {plan: _meter(plan, "sense_ops")
                 for plan in (ideal, realistic)}

    # Benchmark steady-state in-memory inference on the realistic hardware.
    benchmark(lambda: realistic.predict(bits[:32]))

    ideal_agree = float((ideal_pred == software).mean())
    real_agree = float((realistic_pred == software).mean())
    text = render_table(
        "XTRA3 — hardware/software fidelity of the Fig. 5 pipeline",
        ["deployment", "agreement with software", "devices", "sense ops"],
        [["ideal devices", f"{ideal_agree:.1%}",
          f"{_meter(ideal, 'n_devices'):,}",
          f"{sense_ops[ideal]:,}"],
         ["realistic fresh devices", f"{real_agree:.1%}",
          f"{_meter(realistic, 'n_devices'):,}",
          f"{sense_ops[realistic]:,}"]])
    text += ("\n\nIdeal hardware is bit-exact by construction (Eq. 3 + "
             "batch-norm folding);\nfresh realistic devices read at BER "
             "~1e-6, so disagreements are rare.")
    report("ablation_accelerator_fidelity", text)

    assert ideal_agree == 1.0
    assert real_agree > 0.97
