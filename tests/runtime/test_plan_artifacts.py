"""Plan artifacts: save/load semantics, backend rebinding, registry rules.

Companion to the golden-artifact suite: these tests pin down the *API*
contracts — external front-ends degrade loudly, every single-plan load
runs the same checks, version checks fail forward, the registry refuses silent shadowing, and
``begin_plan`` isolates consecutive compiles on one backend instance.
"""

import json

import numpy as np
import pytest

from repro.io import load_bundle, load_compiled, load_plan, save_plan
from repro.io.common import write_npz
from repro.models import golden_classifier
from repro.nn.binary import FoldedBinaryDense, FoldedOutputDense
from repro.rram import (AcceleratorConfig, MacroGeometry,
                        classifier_input_bits)
from repro.runtime import (PlanSerializationError, ReferenceBackend,
                           ShardedRRAMBackend, compile,
                           fold_classifier_stack, plan_from_folded,
                           register_backend, resolve_backend)
from repro.runtime.backends import _BACKENDS


@pytest.fixture(scope="module")
def eeg_demo():
    return golden_classifier("eeg")


@pytest.fixture(scope="module")
def binary_classifier_demo():
    """A classifier-only (non-lowered) model: its front-end is the float
    feature stack, i.e. external to any artifact."""
    from repro.models import demo_model_and_inputs
    model, inputs = demo_model_and_inputs("ecg", "binary_classifier")
    return model, inputs[:8]


class TestSaveSemantics:
    def test_refuses_to_clobber_unless_overwrite(self, eeg_demo, tmp_path):
        model, _ = eeg_demo
        plan = compile(model, backend="reference")
        path = tmp_path / "plan.npz"
        plan.save(path)
        with pytest.raises(FileExistsError, match="overwrite=True"):
            plan.save(path)
        plan.save(path, overwrite=True)        # second branch: replaces

    def test_save_appends_npz_suffix(self, eeg_demo, tmp_path):
        model, _ = eeg_demo
        plan = compile(model, backend="reference")
        written = save_plan(plan, tmp_path / "plan")
        assert written.name == "plan.npz"
        # The overwrite guard must see through the implicit suffix too.
        with pytest.raises(FileExistsError):
            save_plan(plan, tmp_path / "plan")

    def test_external_front_end_refused_by_default(
            self, binary_classifier_demo, tmp_path):
        model, _ = binary_classifier_demo
        plan = compile(model, backend="reference")
        with pytest.raises(PlanSerializationError, match="front-end"):
            save_plan(plan, tmp_path / "plan.npz")

    def test_external_front_end_roundtrip_with_closure(
            self, binary_classifier_demo, tmp_path):
        model, inputs = binary_classifier_demo
        plan = compile(model, backend="reference")
        path = save_plan(plan, tmp_path / "plan.npz",
                         allow_external_front_end=True)
        artifact = load_plan(path)
        assert not artifact.self_contained
        with pytest.raises(PlanSerializationError, match="front_end"):
            load_compiled(artifact, backend="packed")
        loaded = load_compiled(
            artifact, backend="packed",
            front_end=lambda x: classifier_input_bits(model, x))
        assert np.array_equal(loaded.predict(inputs), plan.predict(inputs))

    def test_method_and_function_write_identical_payloads(self, eeg_demo,
                                                          tmp_path):
        model, _ = eeg_demo
        plan = compile(model, backend="reference")
        a = load_plan(plan.save(tmp_path / "a.npz"))
        b = load_plan(save_plan(plan, tmp_path / "b.npz"))
        assert a.ops == b.ops
        assert all(np.array_equal(a.arrays[k], b.arrays[k])
                   for k in a.arrays)


class TestLoadValidation:
    def test_wrong_kind_rejected(self, tmp_path):
        path = write_npz(tmp_path / "model.npz", {"w": np.zeros(3)},
                         {"kind": "model"})
        with pytest.raises(ValueError, match="not a compiled plan"):
            load_plan(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_plan(tmp_path / "nope.npz")

    def test_newer_format_version_fails_forward(self, eeg_demo, tmp_path):
        model, _ = eeg_demo
        path = save_plan(compile(model, backend="reference"),
                         tmp_path / "plan.npz")
        arrays, meta = _raw(path)
        meta["format_version"] = 99
        path2 = write_npz(tmp_path / "future.npz", arrays, meta)
        with pytest.raises(ValueError, match="v99"):
            load_plan(path2)

    def test_malformed_version_rejected(self, eeg_demo, tmp_path):
        model, _ = eeg_demo
        path = save_plan(compile(model, backend="reference"),
                         tmp_path / "plan.npz")
        arrays, meta = _raw(path)
        meta["format_version"] = "one"
        path2 = write_npz(tmp_path / "bad.npz", arrays, meta)
        with pytest.raises(ValueError, match="malformed"):
            load_plan(path2)

    def test_unknown_spec_kind_fails_forward(self, eeg_demo, tmp_path):
        model, _ = eeg_demo
        path = save_plan(compile(model, backend="reference"),
                         tmp_path / "plan.npz")
        arrays, meta = _raw(path)
        meta["ops"][0]["op"] = "hologram_front"
        path2 = write_npz(tmp_path / "odd.npz", arrays, meta)
        with pytest.raises(PlanSerializationError, match="newer repro"):
            load_compiled(path2, backend="reference")


def _folded_classifier_file(path, hidden, output):
    """Write a classifier in the pre-plan ``folded_classifier`` layout,
    which no loader reads any more."""
    arrays = {f"hidden{index}.{name}": getattr(layer, name)
              for index, layer in enumerate(hidden)
              for name in ("weight_bits", "theta", "gamma_sign",
                           "beta_sign")}
    arrays.update({f"output.{name}": getattr(output, name)
                   for name in ("weight_bits", "scale", "offset")})
    return write_npz(path, arrays, {"kind": "folded_classifier",
                                    "n_hidden": len(hidden)})


def _broadcasting_classifier():
    """16 hidden units into 4 classes whose output scale/offset have
    shape (1,): numpy would broadcast them over every class."""
    rng = np.random.default_rng(0)
    hidden = FoldedBinaryDense(
        rng.integers(0, 2, (16, 20)).astype(np.uint8),
        rng.standard_normal(16), np.ones(16), np.ones(16))
    output = FoldedOutputDense(
        rng.integers(0, 2, (4, 16)).astype(np.uint8), np.ones(1),
        np.zeros(1))
    return [hidden], output


class TestSingleLoadPath:
    """Plan artifacts are the only single-plan format: every loader runs
    the kind check, then the version and array checks."""

    @pytest.mark.parametrize("loader", [load_plan, load_bundle,
                                        load_compiled])
    def test_folded_classifier_file_refused(self, loader, eeg_demo,
                                            tmp_path):
        model, _ = eeg_demo
        path = _folded_classifier_file(tmp_path / "program.npz",
                                       *fold_classifier_stack(model))
        with pytest.raises(ValueError, match="'folded_classifier' "
                                             "artefact, not a compiled plan"):
            loader(path)

    def test_broadcasting_output_scale_refused_in_both_layouts(
            self, tmp_path):
        hidden, output = _broadcasting_classifier()
        plan_path = save_plan(plan_from_folded(hidden, output),
                              tmp_path / "plan.npz")
        with pytest.raises(ValueError, match=r"array 'scale' has shape "
                                             r"\(1,\), not \(4,\)"):
            load_plan(plan_path)
        folded_path = _folded_classifier_file(tmp_path / "program.npz",
                                              hidden, output)
        with pytest.raises(ValueError, match="not a compiled plan"):
            load_compiled(folded_path, backend="packed")

    def test_bits_front_end_validates_width(self, eeg_demo, tmp_path):
        model, _ = eeg_demo
        hidden, output = fold_classifier_stack(model)
        path = save_plan(plan_from_folded(hidden, output),
                         tmp_path / "classifier.npz")
        loaded = load_compiled(path, backend="reference")
        with pytest.raises(ValueError, match="activation bits"):
            loaded.predict(np.zeros((3, hidden[0].in_features + 1),
                                    dtype=np.uint8))


class TestBackendRegistryRules:
    def test_duplicate_registration_refused(self):
        with pytest.raises(ValueError, match="overwrite=True"):
            register_backend("reference", ReferenceBackend)

    def test_overwrite_replaces_and_restores(self):
        class Patched(ReferenceBackend):
            name = "reference"

        original = _BACKENDS["reference"]
        try:
            register_backend("reference", Patched, overwrite=True)
            assert isinstance(resolve_backend("reference"), Patched)
        finally:
            register_backend("reference", original, overwrite=True)
        assert _BACKENDS["reference"] is original

    def test_overwrite_flag_for_plugin_names(self):
        register_backend("plugin-under-test", ReferenceBackend)
        try:
            with pytest.raises(ValueError):
                register_backend("plugin-under-test", ReferenceBackend)
            register_backend("plugin-under-test", ReferenceBackend,
                             overwrite=True)
        finally:
            _BACKENDS.pop("plugin-under-test", None)


class TestBeginPlanIsolation:
    def test_two_compiles_on_one_sharded_instance_do_not_merge(self):
        """One backend instance, two models back-to-back: the second
        plan's floorplan must hold only its own layers."""
        backend = ShardedRRAMBackend(AcceleratorConfig(ideal=True),
                                     macro=MacroGeometry(16, 16))
        eeg_model, _ = golden_classifier("eeg")
        ecg_model, _ = golden_classifier("ecg")
        first = compile(eeg_model, backend=backend, lower_features=True)
        n_first = len(first.placements)
        assert n_first == 3                 # conv2d + fc1 + output
        second = compile(ecg_model, backend=backend, lower_features=True)
        assert len(second.placements) == 6  # 4 conv stages + fc1 + output
        # The backend's floorplan is rebuilt from scratch, not merged:
        # exactly the second plan's layers, not first + second.
        assert [p.name for p in backend.placements] == \
            [p.name for p in second.placements]
        assert len(backend.floorplan().placements) == 6

    def test_loaded_plans_also_reset_backend_state(self, tmp_path):
        backend = ShardedRRAMBackend(AcceleratorConfig(ideal=True))
        eeg_model, inputs = golden_classifier("eeg")
        path = save_plan(compile(eeg_model, backend="reference",
                                 lower_features=True),
                         tmp_path / "eeg.npz")
        first = load_compiled(path, backend=backend)
        second = load_compiled(path, backend=backend)
        assert len(second.placements) == len(first.placements)
        assert np.array_equal(second.scores(inputs), first.scores(inputs))

    def test_loaded_plans_hit_the_fast_path(self, tmp_path):
        """Regression: artifacts rebind through ``prepare_*``, so a
        reloaded noise-free sharded plan must take the fast path — not
        silently fall back to the per-shard dispatch loop."""
        eeg_model, inputs = golden_classifier("eeg")
        path = save_plan(compile(eeg_model, backend="reference",
                                 lower_features=True),
                         tmp_path / "eeg.npz")
        backend = ShardedRRAMBackend(AcceleratorConfig(ideal=True),
                                     macro=MacroGeometry(7, 13))
        loaded = load_compiled(path, backend=backend)
        controllers = [op.executor.controller for op in loaded.layer_ops]
        assert controllers and all(c.fast_path for c in controllers)
        assert "via fast path" in loaded.summary()
        reference = load_compiled(
            path, backend=ShardedRRAMBackend(AcceleratorConfig(ideal=True),
                                             macro=MacroGeometry(7, 13),
                                             fast_path=False))
        assert "noisy per-shard path" in reference.summary()
        assert np.array_equal(loaded.scores(inputs),
                              reference.scores(inputs))


def _raw(path):
    """Read an artifact's raw arrays + meta for tamper tests."""
    from repro.io.common import read_npz
    arrays, meta = read_npz(path)
    return arrays, json.loads(json.dumps(meta))
