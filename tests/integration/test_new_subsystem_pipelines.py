"""Integration tests tying the newer subsystems to the original pipeline.

Each test exercises a chain the individual unit tests cannot: trained model
-> folding -> packed kernel / analog crossbar / integer kernel / floorplan,
with the deployed artefact checked against the software stack.
"""

import numpy as np
import pytest

from repro.data import ECGConfig, make_ecg_dataset
from repro.experiments import (TrainConfig, evaluate_accuracy,
                               evaluate_report, train_model)
from repro.metrics import accuracy as metric_accuracy
from repro.models import BinarizationMode, ECGNet
from repro.nn import PackedBinaryDense
from repro.rram import (AcceleratorConfig, AnalogConfig, AnalogLinear,
                        MacroGeometry, classifier_input_bits, plan_classifier)
from repro.runtime import RRAMBackend, fold_classifier_stack, plan_from_folded
from repro.tensor import Tensor


def _ideal_chip(model):
    """The model's classifier on noise-free RRAM, fed activation bits."""
    return plan_from_folded(*fold_classifier_stack(model),
                            backend=RRAMBackend(AcceleratorConfig(ideal=True)))


@pytest.fixture(scope="module")
def trained_binary_ecg():
    """One binarized-classifier ECG model trained once for the module."""
    dataset = make_ecg_dataset(ECGConfig(n_trials=240, n_samples=300,
                                         noise_amplitude=0.05, seed=31))
    n_train = 180
    model = ECGNet(mode=BinarizationMode.BINARY_CLASSIFIER, n_samples=300,
                   base_filters=8, rng=np.random.default_rng(32))
    model.fit_input_norm(dataset.inputs[:n_train])
    train_model(model, dataset.inputs[:n_train], dataset.labels[:n_train],
                TrainConfig(epochs=30, batch_size=16, lr=2e-3, seed=33))
    model.eval()
    return model, dataset.inputs[n_train:], dataset.labels[n_train:]


@pytest.fixture(scope="module")
def trained_real_ecg():
    dataset = make_ecg_dataset(ECGConfig(n_trials=240, n_samples=300,
                                         noise_amplitude=0.05, seed=41))
    n_train = 180
    model = ECGNet(mode=BinarizationMode.REAL, n_samples=300,
                   base_filters=8, rng=np.random.default_rng(42))
    model.fit_input_norm(dataset.inputs[:n_train])
    train_model(model, dataset.inputs[:n_train], dataset.labels[:n_train],
                TrainConfig(epochs=30, batch_size=16, lr=2e-3, seed=43))
    model.eval()
    return model, dataset.inputs[n_train:], dataset.labels[n_train:]


class TestPackedKernelDeployment:
    def test_packed_hidden_layer_matches_accelerator(self,
                                                     trained_binary_ecg):
        """Packed software kernel == ideal in-memory hardware, per layer."""
        model, test_x, _ = trained_binary_ecg
        hidden, _ = fold_classifier_stack(model)
        hardware = _ideal_chip(model)
        bits = classifier_input_bits(model, test_x)

        packed = PackedBinaryDense(hidden[0])
        hw_out = hardware.layer_ops[0].executor.forward_bits(bits)
        assert np.array_equal(packed.forward_bits(bits), hw_out)

    def test_packed_pipeline_end_to_end_predictions(self,
                                                    trained_binary_ecg):
        """Chaining packed layers + output layer reproduces the hardware
        classifier's predictions exactly (ideal devices)."""
        model, test_x, test_y = trained_binary_ecg
        hidden, output = fold_classifier_stack(model)
        hardware = _ideal_chip(model)
        bits = classifier_input_bits(model, test_x)

        hidden_bits = bits
        for folded in hidden:
            hidden_bits = PackedBinaryDense(folded).forward_bits(hidden_bits)
        scores = output.forward_scores(hidden_bits)
        assert np.array_equal(scores.argmax(axis=1),
                              hardware.predict(bits))


class TestIntegerKernelDeployment:
    def test_int8_classifier_stage_accuracy(self, trained_real_ecg):
        """Replacing fc1 with the integer kernel keeps test accuracy."""
        from repro.nn import deploy_dense_int, quant_scale

        model, test_x, test_y = trained_real_ecg
        float_acc = evaluate_accuracy(model, test_x, test_y)

        feats = model.features(Tensor(test_x)).data.reshape(len(test_x), -1)
        deployed = deploy_dense_int(
            model.fc1, x_scale=quant_scale(feats, 8), bits=8)
        h = deployed.forward(feats)
        h = model.bn_fc1(Tensor(h)).data
        h = np.clip(h, -1.0, 1.0)
        scores = h @ model.fc2.weight.data.T + model.fc2.bias.data
        int_acc = metric_accuracy(test_y, scores.argmax(axis=1))
        assert int_acc >= float_acc - 0.05


class TestAnalogDeployment:
    def test_analog_classifier_report(self, trained_real_ecg):
        """High-resolution analog deployment preserves the diagnostic
        metrics of the software model."""
        model, test_x, test_y = trained_real_ecg
        sw_report = evaluate_report(model, test_x, test_y)

        cfg = AnalogConfig(adc_bits=12, dac_bits=12,
                           programming_sigma=0.02, read_noise_sigma=0.005)
        rng = np.random.default_rng(50)
        layer1 = AnalogLinear(model.fc1, cfg, rng)
        layer2 = AnalogLinear(model.fc2, cfg, rng)
        feats = model.features(Tensor(test_x)).data.reshape(len(test_x), -1)
        h = np.clip(model.bn_fc1(Tensor(layer1.forward(feats))).data,
                    -1.0, 1.0)
        pred = layer2.forward(h).argmax(axis=1)
        hw_acc = metric_accuracy(test_y, pred)
        assert hw_acc >= sw_report.accuracy - 0.08


class TestFloorplanConsistency:
    def test_plan_covers_trained_model(self, trained_binary_ecg):
        model, _, _ = trained_binary_ecg
        shapes = [(model.fc1.out_features, model.fc1.in_features),
                  (model.fc2.out_features, model.fc2.in_features)]
        plan = plan_classifier(shapes)
        total_weights = sum(o * i for o, i in shapes)
        assert plan.n_devices >= 2 * total_weights
        assert plan.programming_cost()["device_writes"] == 2 * total_weights

    def test_macro_choice_tradeoff_holds_for_model(self, trained_binary_ecg):
        """Across macro sizes: bigger macros, fewer of them, but the
        provisioned device count never drops below the weight count."""
        model, _, _ = trained_binary_ecg
        shapes = [(model.fc1.out_features, model.fc1.in_features),
                  (model.fc2.out_features, model.fc2.in_features)]
        macro_counts = []
        for size in (16, 32, 64, 128):
            plan = plan_classifier(shapes, MacroGeometry(size, size))
            macro_counts.append(plan.n_macros)
            assert plan.n_devices >= 2 * sum(o * i for o, i in shapes)
        assert macro_counts == sorted(macro_counts, reverse=True)


class TestMetricsOnHardwarePredictions:
    def test_report_from_deployed_classifier(self, trained_binary_ecg):
        """Metrics work directly on hardware predictions, and hardware
        accuracy matches the software report (ideal devices)."""
        from repro.metrics import classification_report

        model, test_x, test_y = trained_binary_ecg
        hardware = _ideal_chip(model)
        bits = classifier_input_bits(model, test_x)
        pred = hardware.predict(bits)
        scores = hardware.scores(bits)
        report = classification_report(
            test_y, pred, scores=scores[:, 1] - scores[:, 0])
        assert report.accuracy == pytest.approx(
            evaluate_accuracy(model, test_x, test_y), abs=1e-9)
        assert report.confusion.sum() == len(test_y)
