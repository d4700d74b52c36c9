"""Quantization vs binarization on the ECG task.

The paper positions binarization against the 8-bit quantized reference
(§I, Table IV).  This example makes that comparison concrete on one model:

1. train a real-weight ECG network once;
2. post-training-quantize its weights at 16/8/4/2 bits ("no retraining");
3. lower the first classifier layer to the pure-integer kernel an 8-bit
   edge accelerator executes;
4. train the paper's binarized-classifier variant;
5. report accuracy and weight memory side by side.

Run:  python examples/quantization_vs_binarization.py
"""

import numpy as np

from repro.analysis import model_memory, quantize_model_weights
from repro.data import ECGConfig, make_ecg_dataset
from repro.experiments import (TrainConfig, evaluate_accuracy, render_table,
                               train_model)
from repro.models import BinarizationMode, ECGNet
from repro.nn import deploy_dense_int, quant_scale
from repro.tensor import Tensor

EPOCHS = 40
N_SAMPLES = 300


def make_data():
    dataset = make_ecg_dataset(ECGConfig(n_trials=300, n_samples=N_SAMPLES,
                                         noise_amplitude=0.05, seed=11))
    n_train = 240
    return (dataset.inputs[:n_train], dataset.labels[:n_train],
            dataset.inputs[n_train:], dataset.labels[n_train:])


def train_ecg(mode: BinarizationMode, train_x, train_y, seed: int) -> ECGNet:
    model = ECGNet(mode=mode, n_samples=N_SAMPLES, base_filters=8,
                   rng=np.random.default_rng(seed))
    model.fit_input_norm(train_x)
    train_model(model, train_x, train_y,
                TrainConfig(epochs=EPOCHS, batch_size=16, lr=2e-3,
                            seed=seed + 1))
    model.eval()
    return model


def main() -> None:
    train_x, train_y, test_x, test_y = make_data()
    rows = []

    print("Training the real-weight reference ...")
    real = train_ecg(BinarizationMode.REAL, train_x, train_y, seed=1)
    real_acc = evaluate_accuracy(real, test_x, test_y)
    n_params = real.num_parameters()
    rows.append(("real weights (32-bit float)", f"{real_acc:.1%}",
                 f"{n_params * 4 / 1024:.0f} KB"))

    print("Post-training quantization sweep (no retraining) ...")
    reference = real.state_dict()
    for bits in (16, 8, 4, 2):
        real.load_state_dict(reference)
        quantize_model_weights(real, bits=bits)
        acc = evaluate_accuracy(real, test_x, test_y)
        rows.append((f"PTQ {bits}-bit weights", f"{acc:.1%}",
                     f"{n_params * bits / 8 / 1024:.0f} KB"))
    real.load_state_dict(reference)

    print("Demonstrating the integer deployment kernel on dense layer 1 ...")
    # Calibrate the input scale on training features, then check the pure
    # integer kernel agrees with the float computation within 8-bit error.
    feats = real.features(Tensor(train_x[:64])).data.reshape(64, -1)
    dense = real.fc1  # first classifier layer of the Table II model
    deployed = deploy_dense_int(dense, x_scale=quant_scale(feats, 8))
    int_out = deployed.forward(feats)
    float_out = feats @ dense.weight.data.T + dense.bias.data
    err = np.abs(int_out - float_out).max() / (np.abs(float_out).max() or 1)
    print(f"   int8 kernel vs float on {feats.shape[1]} features: "
          f"max relative deviation {err:.2%}")

    print("Training the paper's binarized-classifier variant ...")
    bin_clf = train_ecg(BinarizationMode.BINARY_CLASSIFIER, train_x,
                        train_y, seed=3)
    acc = evaluate_accuracy(bin_clf, test_x, test_y)
    breakdown = model_memory("ECG", bin_clf)
    size_kb = breakdown.binarized_classifier_bytes() / 1024
    rows.append(("binarized classifier (paper)", f"{acc:.1%}",
                 f"{size_kb:.0f} KB"))

    print()
    print(render_table(
        "ECG task — accuracy vs weight memory across precision regimes",
        ["Configuration", "Accuracy", "Weight memory"], rows))
    print("\nPaper's conclusion: 8-bit PTQ is free, binarizing everything "
          "costs accuracy,\nbinarizing only the classifier keeps accuracy "
          "at a fraction of the memory.")


if __name__ == "__main__":
    main()
