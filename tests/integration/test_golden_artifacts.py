"""Golden-artifact regression tests: the deployment format, pinned.

The fixtures under ``tests/fixtures/plans/`` are plan artifacts of the
:func:`repro.models.golden_classifier` demo models, committed to the
repository.  Reloading them on every registered backend and comparing
bit-for-bit against freshly compiled plans catches two drift classes:

* **format drift** — a change to the artifact layout, spec kinds or
  array naming silently breaking old files (a fresh save must also match
  the committed arrays exactly);
* **kernel drift** — a change to any backend's packed/simulated kernels
  producing different scores from the same weight words.

If a format change is intentional, bump ``FORMAT_VERSION`` and rerun
``tests/fixtures/plans/make_fixtures.py`` (see its docstring).
"""

import pathlib

import numpy as np
import pytest

from repro.experiments import artifact_agreement, evaluate_compiled
from repro.io import load_compiled, load_plan, save_plan
from repro.models import GOLDEN_NAMES, golden_classifier
from repro.rram import AcceleratorConfig, MacroGeometry
from repro.runtime import (FORMAT_VERSION, RRAMBackend, ShardedRRAMBackend,
                           compile)

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "plans"


def _all_backends():
    return (("reference", "reference"),
            ("packed", "packed"),
            ("rram", RRAMBackend(AcceleratorConfig(ideal=True))),
            ("sharded", ShardedRRAMBackend(AcceleratorConfig(ideal=True))))


def _fixture(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}_full_binary.npz"


class TestGoldenArtifacts:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_fixture_is_committed(self, name):
        assert _fixture(name).exists(), (
            f"missing golden artifact {name}; regenerate with "
            "tests/fixtures/plans/make_fixtures.py")

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_fixture_format_version_is_current(self, name):
        artifact = load_plan(_fixture(name))
        assert artifact.format_version == FORMAT_VERSION
        assert artifact.self_contained

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_reload_matches_fresh_compile_on_every_backend(self, name):
        """The acceptance contract: a committed artifact, loaded without
        the model, scores bit-identically to a fresh compile on all four
        registered backends."""
        model, inputs = golden_classifier(name)
        artifact = load_plan(_fixture(name))
        for label, backend in _all_backends():
            fresh = compile(model, backend=backend, lower_features=True)
            # A fresh instance for the loaded plan: backends prepared a
            # plan already and must not leak state into the reload.
            reload_backend = backend if isinstance(backend, str) else \
                type(backend)(AcceleratorConfig(ideal=True))
            loaded = load_compiled(artifact, backend=reload_backend)
            assert np.array_equal(loaded.scores(inputs),
                                  fresh.scores(inputs)), label
            assert np.array_equal(loaded.predict(inputs),
                                  fresh.predict(inputs)), label

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_fresh_save_matches_committed_arrays(self, name, tmp_path):
        """Format drift check: saving the same golden model today must
        produce exactly the committed payload, array for array."""
        model, _ = golden_classifier(name)
        plan = compile(model, backend="reference", lower_features=True)
        fresh_path = save_plan(plan, tmp_path / "fresh.npz")
        fresh = load_plan(fresh_path)
        committed = load_plan(_fixture(name))
        assert fresh.ops == committed.ops
        assert sorted(fresh.arrays) == sorted(committed.arrays)
        for key in committed.arrays:
            assert np.array_equal(fresh.arrays[key],
                                  committed.arrays[key]), key
            assert fresh.arrays[key].dtype == committed.arrays[key].dtype

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_artifact_agreement_all_backends(self, name):
        model, inputs = golden_classifier(name)
        backends = [backend for _, backend in _all_backends()]
        predictions, agreement = artifact_agreement(
            _fixture(name), inputs, backends=backends)
        assert set(predictions) == {"reference", "packed", "rram",
                                    "sharded"}
        assert agreement == {key: 1.0 for key in predictions}

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_evaluate_compiled_runs_from_the_file(self, name):
        """The experiments layer consumes loaded plans like compiled
        ones: accuracy from the file equals accuracy from the model."""
        model, inputs = golden_classifier(name)
        labels = compile(model, backend="reference",
                         lower_features=True).predict(inputs)
        loaded = load_compiled(_fixture(name), backend="packed")
        assert evaluate_compiled(loaded, inputs, labels) == 1.0

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_sharded_reload_at_tail_forcing_geometry(self, name):
        """Reloading on a 7x13 macro grid (tail shards everywhere) stays
        bit-identical to the reference reload."""
        _, inputs = golden_classifier(name)
        artifact = load_plan(_fixture(name))
        reference = load_compiled(artifact, backend="reference")
        sharded = load_compiled(
            artifact,
            backend=ShardedRRAMBackend(AcceleratorConfig(ideal=True),
                                       macro=MacroGeometry(7, 13)))
        assert np.array_equal(sharded.scores(inputs),
                              reference.scores(inputs))


def _mutated_copy(tmp_path, source: pathlib.Path, mutate) -> pathlib.Path:
    """A copy of ``source`` with ``mutate(arrays)`` applied to its arrays
    (the metadata record is kept as it is)."""
    from repro.io.common import read_npz, write_npz
    arrays, meta = read_npz(source)
    mutate(arrays)
    return write_npz(tmp_path / source.name, arrays, meta)


def _set(key, index, value):
    def mutate(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key].flat[index] = value
    return mutate


def _resize(key, length):
    def mutate(arrays):
        arrays[key] = np.resize(arrays[key], length)
    return mutate


class TestCorruptedArtifactRefused:
    """Array values that used to load and score silently — front weight
    bits outside {0, 1}, a negative or non-finite batch-norm array (NaN
    thresholds), output scale/offset that broadcast over the classes —
    are refused at load with an error naming the file, op and array."""

    @pytest.mark.parametrize("op,name,mutate", [
        (0, "weight_bits", _set("op0.weight_bits", 7, 2)),
        (0, "weight_bits", _set("op0.weight_bits", 0, 3)),
        (0, "bn_var", _set("op0.bn_var", 1, -0.5)),
        (2, "bn_var", _set("op2.bn_var", 11, -1e-9)),
        (0, "bn_gamma", _set("op0.bn_gamma", 2, np.nan)),
        (0, "bn_beta", _set("op0.bn_beta", 0, -np.inf)),
        (2, "bn_mean", _set("op2.bn_mean", 4, np.inf)),
        (2, "bn_gamma", _set("op2.bn_gamma", 0, np.nan)),
        (4, "scale", _resize("op4.scale", 1)),
        (4, "offset", _resize("op4.offset", 1)),
        (4, "scale", _resize("op4.scale", 3)),
    ])
    def test_mutation_is_refused_naming_file_op_and_array(
            self, tmp_path, op, name, mutate):
        path = _mutated_copy(tmp_path, _fixture("eeg"), mutate)
        for load in (load_plan,
                     lambda p: load_compiled(p, backend="packed")):
            with pytest.raises(ValueError) as err:
                load(path)
            message = str(err.value)
            assert str(path) in message
            assert f"op {op} " in message and repr(name) in message

    def test_bundle_tenant_is_refused_naming_the_model(self, tmp_path):
        path = _mutated_copy(tmp_path, FIXTURES / "eeg_ecg_bundle.npz",
                             _set("model0.op0.bn_var", 0, -1.0))
        with pytest.raises(ValueError, match="'bn_var'") as err:
            load_plan(path, model="eeg")
        assert str(path) in str(err.value) and "'eeg'" in str(err.value)

    @pytest.mark.parametrize("source", [
        "eeg_full_binary.npz", "ecg_full_binary.npz", "eeg_ecg_bundle.npz"])
    def test_fixtures_and_untouched_copies_load_and_score_alike(
            self, tmp_path, source):
        from repro.io import load_compiled_bundle
        copy = _mutated_copy(tmp_path, FIXTURES / source, lambda arrays: None)
        committed = load_compiled_bundle(FIXTURES / source, backend="packed")
        copied = load_compiled_bundle(copy, backend="packed")
        for name, plan in committed.items():
            _, inputs = golden_classifier(name.split("_")[0])
            assert plan.scores(inputs).tobytes() == \
                copied[name].scores(inputs).tobytes()
