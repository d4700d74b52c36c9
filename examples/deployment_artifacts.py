"""The two-phase deployment flow: train once, program chips from a file.

§II-B of the paper: weights are "obtained by off-chip training" and
"programming occurs before the use of the inference circuit and is managed
by a memory controller".  In production that hand-off is a file, not a
Python object.  This example runs the full flow on the compiled-plan
artifact format:

1. train the fully binarized ECG model (the *lab* phase);
2. write two artefacts: a training checkpoint (`.npz` state dict) and the
   **plan artifact** — the whole compiled plan as weight words, integer
   thresholds and periphery specs (`repro.io.save_plan`);
3. discard the training stack, reload only the plan artifact, and rebind
   it to every registered backend — CPU verification kernels and
   simulated RRAM chips run from the same file (the *factory* phase);
4. verify the reloaded plans are bit-identical to plans compiled from the
   live model, and print the sharded floorplan the artifact programs;
5. save the classifier alone as a plan artifact
   (`plan_from_folded(*fold_classifier_stack(model))`) and run it from
   activation bits.

Run:  python examples/deployment_artifacts.py
"""

import tempfile
import pathlib

import numpy as np

from repro.data import ECGConfig, make_ecg_dataset
from repro.experiments import (TrainConfig, artifact_agreement,
                               evaluate_accuracy, evaluate_compiled,
                               train_model)
from repro.io import load_compiled, load_model, load_plan, save_model, save_plan
from repro.models import BinarizationMode, ECGNet
from repro.rram import (AcceleratorConfig, MacroGeometry,
                        classifier_input_bits)
from repro.runtime import (RRAMBackend, ShardedRRAMBackend, compile,
                           fold_classifier_stack, plan_from_folded)


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro_deploy_"))
    checkpoint = workdir / "ecg_checkpoint.npz"
    artifact = workdir / "ecg_plan.npz"

    print("LAB PHASE")
    print("1) Training the fully binarized ECG model ...")
    dataset = make_ecg_dataset(ECGConfig(n_trials=300, n_samples=300,
                                         noise_amplitude=0.05, seed=9))
    n_train = 240
    model = ECGNet(mode=BinarizationMode.FULL_BINARY, n_samples=300,
                   base_filters=8, conv_keep_prob=1.0,
                   rng=np.random.default_rng(10))
    model.fit_input_norm(dataset.inputs[:n_train])
    train_model(model, dataset.inputs[:n_train], dataset.labels[:n_train],
                TrainConfig(epochs=12, batch_size=16, lr=2e-3, seed=11))
    model.eval()
    acc = evaluate_accuracy(model, dataset.inputs[n_train:],
                            dataset.labels[n_train:])
    print(f"   software accuracy: {acc:.1%}")

    print("2) Writing artefacts ...")
    save_model(model, checkpoint)
    plan = compile(model, backend="reference", lower_features=True)
    save_plan(plan, artifact)
    print(f"   checkpoint: {checkpoint.name} "
          f"({checkpoint.stat().st_size / 1024:.0f} KB, full float state)")
    print(f"   plan artifact: {artifact.name} "
          f"({artifact.stat().st_size / 1024:.0f} KB, weight words + "
          f"thresholds + periphery specs)")

    print("\nFACTORY PHASE (no training stack needed)")
    print("3) Reloading the artifact on every substrate ...")
    loaded = load_plan(artifact)
    print("   " + loaded.describe().replace("\n", "\n   "))
    test_inputs = dataset.inputs[n_train:]
    test_labels = dataset.labels[n_train:]
    backends = ("reference", "packed",
                RRAMBackend(AcceleratorConfig(ideal=True)),
                ShardedRRAMBackend(AcceleratorConfig(ideal=True),
                                   macro=MacroGeometry(32, 32)))
    _, agreement = artifact_agreement(loaded, test_inputs,
                                      backends=backends)
    print(f"   cross-backend agreement: {agreement}")

    print("4) Verifying against plans compiled from the live model ...")
    for backend in ("reference", "packed"):
        fresh = compile(model, backend=backend, lower_features=True)
        from_file = load_compiled(loaded, backend=backend)
        identical = bool(np.array_equal(from_file.scores(test_inputs),
                                        fresh.scores(test_inputs)))
        print(f"   {backend}: scores bit-identical to fresh compile: "
              f"{identical}")
    chip_acc = evaluate_compiled(
        load_compiled(loaded,
                      backend=RRAMBackend(AcceleratorConfig(ideal=True))),
        test_inputs, test_labels)
    print(f"   accuracy from the file, on simulated RRAM: {chip_acc:.1%} "
          f"(software: {acc:.1%})")

    print("5) Floorplan programmed by the artifact (sharded backend):")
    sharded = load_compiled(
        loaded, backend=ShardedRRAMBackend(AcceleratorConfig(ideal=True)))
    print(sharded.floorplan().report())

    print("\n6) A classifier-only plan artifact (activation bits in):")
    classifier = save_plan(plan_from_folded(*fold_classifier_stack(model)),
                           workdir / "ecg_classifier.npz")
    bits = classifier_input_bits(model, test_inputs)
    packed = load_compiled(classifier, backend="packed")
    reference = load_compiled(classifier, backend="reference")
    identical = bool(np.array_equal(packed.predict(bits),
                                    reference.predict(bits)))
    print(f"   {classifier.name}: packed and reference predictions "
          f"bit-identical on classifier bits: {identical}")

    print("\n7) Round-tripping the checkpoint restores the lab model:")
    fresh = ECGNet(mode=BinarizationMode.FULL_BINARY, n_samples=300,
                   base_filters=8, conv_keep_prob=1.0,
                   rng=np.random.default_rng(99))
    load_model(fresh, checkpoint)
    fresh.eval()
    restored_acc = evaluate_accuracy(fresh, dataset.inputs[n_train:],
                                     dataset.labels[n_train:])
    print(f"   restored accuracy: {restored_acc:.1%} "
          f"(identical: {restored_acc == acc})")


if __name__ == "__main__":
    main()
