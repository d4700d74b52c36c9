"""Consistency checks between the examples, benches and documentation."""

import pathlib
import py_compile

import pytest

ROOT = pathlib.Path(__file__).parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHES = sorted((ROOT / "benchmarks").glob("bench_*.py"))


class TestExamples:
    def test_at_least_ten_examples(self):
        assert len(EXAMPLES) >= 10

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_compiles(self, path, tmp_path):
        py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"),
                           doraise=True)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_has_docstring_and_run_line(self, path):
        source = path.read_text()
        assert source.startswith('"""'), f"{path.name} lacks a docstring"
        assert "Run:" in source, f"{path.name} docstring lacks a Run: line"
        assert '__main__' in source

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_listed_in_readme(self, path):
        readme = (ROOT / "README.md").read_text()
        assert f"examples/{path.name}" in readme, (
            f"{path.name} missing from the README examples table")


class TestBenches:
    def test_every_paper_artefact_has_a_bench(self):
        names = {p.name for p in BENCHES}
        for required in ("bench_fig4_bit_error_rate.py",
                         "bench_table1_eeg_architecture.py",
                         "bench_table2_ecg_architecture.py",
                         "bench_table3_accuracy.py",
                         "bench_table4_memory.py",
                         "bench_fig7_filter_augmentation.py",
                         "bench_fig8_mobilenet_training.py"):
            assert required in names

    @pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
    def test_bench_compiles(self, path, tmp_path):
        py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"),
                           doraise=True)

    @pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
    def test_bench_documents_its_claim(self, path):
        """Every harness docstring must tie itself to the paper artefact
        it regenerates (a table, figure, section or reference claim)."""
        source = path.read_text()
        head = source.split('"""')[1]
        assert any(token in head for token in
                   ("Fig.", "Table", "§", "sec.", "ref.", "claim",
                    "reference", "companion")), path.name

    def test_benches_covered_by_registry(self):
        """Every bench file is reachable from the CLI registry (so
        `repro list` is a complete catalogue)."""
        from repro.cli import EXPERIMENTS
        registered = {info.bench.split("/")[-1]
                      for info in EXPERIMENTS.values()}
        on_disk = {p.name for p in BENCHES}
        assert registered <= on_disk
        missing = on_disk - registered
        assert not missing, f"benches not in the registry: {missing}"


class TestDocs:
    def test_experiments_md_mentions_every_registry_id(self):
        from repro.cli import EXPERIMENTS
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for exp_id, info in EXPERIMENTS.items():
            bench_name = info.bench.split("/")[-1].removesuffix(".py")
            assert exp_id in text or bench_name in text, (
                f"{exp_id} ({bench_name}) absent from EXPERIMENTS.md")

    def test_design_md_covers_new_subsystems(self):
        text = (ROOT / "DESIGN.md").read_text()
        for module in ("repro.rram.analog", "repro.rram.floorplan",
                       "repro.nn.bitops", "repro.nn.quant",
                       "repro.data.filters", "repro.metrics", "repro.io",
                       "repro.viz", "repro.cli", "repro.rram.conv2d",
                       "repro.runtime.analog_front"):
            assert module in text, f"{module} missing from DESIGN.md"

    def test_readme_quickstart_code_runs_conceptually(self):
        """The README's code block imports must all resolve."""
        from repro.data import make_ecg_dataset, ECGConfig          # noqa
        from repro.models import ECGNet, BinarizationMode           # noqa
        from repro.experiments import train_model, TrainConfig      # noqa
        from repro.rram import (deploy_classifier,                  # noqa
                                classifier_input_bits,
                                AcceleratorConfig)
