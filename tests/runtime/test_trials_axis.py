"""Monte-Carlo trial axis on compiled plans (CompiledModel.scores_trials,
evaluate_compiled(trials=...))."""

import numpy as np
import pytest

from repro.experiments import evaluate_compiled
from repro.models import BinarizationMode, ECGNet
from repro.rram import (AcceleratorConfig, MacroGeometry, SenseParameters,
                        trial_streams)
from repro.runtime import (RRAMBackend, ShardedRRAMBackend,
                           compile as compile_model)
from repro.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def model_and_inputs():
    rng = np.random.default_rng(0)
    model = ECGNet(mode=BinarizationMode.BINARY_CLASSIFIER, n_samples=120,
                   base_filters=4, conv_keep_prob=1.0,
                   classifier_keep_prob=1.0, rng=rng)
    inputs = rng.standard_normal((12, 12, 120))
    model.fit_input_norm(inputs)
    model.train()
    with no_grad():
        model(Tensor(inputs))
    model.eval()
    return model, inputs


def _noisy_backend():
    return RRAMBackend(AcceleratorConfig(
        sense=SenseParameters(offset_sigma=0.4)), fast_path=False)


class TestScoresTrials:
    def test_shape_and_determinism(self, model_and_inputs):
        model, inputs = model_and_inputs
        plan = compile_model(model, backend=_noisy_backend())
        first = plan.scores_trials(inputs, trials=4, seed=9)
        again = plan.scores_trials(inputs, trials=4, seed=9)
        assert first.shape == (4, len(inputs), 2)
        assert np.array_equal(first, again)

    def test_batched_equals_serial_per_trial_pass(self, model_and_inputs):
        model, inputs = model_and_inputs
        plan = compile_model(model, backend=_noisy_backend())
        batched = plan.scores_trials(inputs, trials=3, seed=5)
        serial = []
        for stream in trial_streams(5, 3):
            x = plan.ops[0].run(np.asarray(inputs))
            for op in plan.ops[1:-1]:
                x = op.executor.forward_bits_trials(x, [stream])[0] \
                    if hasattr(op, "executor") else op.run(x)
            serial.append(plan.ops[-1].executor.forward_scores_trials(
                x, [stream])[0])
        assert np.array_equal(batched, np.stack(serial))

    @pytest.mark.parametrize("trial_chunk", [1, 2, 4])
    @pytest.mark.parametrize("backend", [
        _noisy_backend,
        lambda: ShardedRRAMBackend(AcceleratorConfig(
            sense=SenseParameters(offset_sigma=0.4)),
            macro=MacroGeometry(8, 16), fast_path=False),
        lambda: RRAMBackend(AcceleratorConfig(), ecc="secded",
                            fast_path=False)], ids=["rram", "sharded", "ecc"])
    def test_trial_chunk_invariant(self, model_and_inputs, backend,
                                   trial_chunk):
        """Plan-level trial windows are the only ``trial_chunk``: the
        windowed stack and its meters equal the unchunked ones."""
        model, inputs = model_and_inputs
        plan = compile_model(model, backend=backend())

        def sense_ops():
            return sum(op.executor.controller.sense_ops
                       for op in plan.layer_ops)

        before = sense_ops()
        wide = plan.scores_trials(inputs, trials=4, seed=2)
        wide_ops = sense_ops() - before
        narrow = plan.scores_trials(inputs, trials=4, seed=2,
                                    trial_chunk=trial_chunk)
        assert np.array_equal(wide, narrow)
        assert sense_ops() - before == 2 * wide_ops > 0

    def test_deterministic_backends_broadcast(self, model_and_inputs):
        model, inputs = model_and_inputs
        for backend in ("reference", "packed"):
            plan = compile_model(model, backend=backend)
            stack = plan.scores_trials(inputs, trials=3)
            assert np.array_equal(stack[0], plan.scores(inputs))
            assert np.array_equal(stack[0], stack[1])
            assert np.array_equal(stack[1], stack[2])

    def test_ideal_rram_trials_match_reference(self, model_and_inputs):
        model, inputs = model_and_inputs
        plan = compile_model(
            model, backend=RRAMBackend(AcceleratorConfig(ideal=True)))
        reference = compile_model(model, backend="reference")
        stack = plan.predict_trials(inputs, trials=2)
        assert np.array_equal(stack[0], reference.predict(inputs))
        assert np.array_equal(stack[0], stack[1])


class TestEvaluateCompiledTrials:
    def test_returns_per_trial_accuracy_vector(self, model_and_inputs):
        model, inputs = model_and_inputs
        labels = np.zeros(len(inputs), dtype=np.int64)
        plan = compile_model(model, backend=_noisy_backend())
        accuracies = evaluate_compiled(plan, inputs, labels, trials=5,
                                       seed=1)
        assert accuracies.shape == (5,)
        assert np.all((0.0 <= accuracies) & (accuracies <= 1.0))

    def test_default_path_unchanged(self, model_and_inputs):
        model, inputs = model_and_inputs
        labels = np.zeros(len(inputs), dtype=np.int64)
        plan = compile_model(model, backend="reference")
        scalar = evaluate_compiled(plan, inputs, labels)
        assert isinstance(scalar, float)
        # A deterministic plan's per-trial accuracies all equal the
        # scalar path.
        trials = evaluate_compiled(plan, inputs, labels, trials=3)
        assert np.all(trials == scalar)
