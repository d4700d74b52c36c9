"""Tests for the command-line interface (repro.cli)."""

import json
import pathlib

import pytest

from repro.cli import EXPERIMENTS, main
from repro.cli import analytic
from repro.cli.main import _canonical_id, _cmd_info, _cmd_list, _cmd_run
from repro.cli.registry import ExperimentInfo

PLANS = pathlib.Path(__file__).parents[1] / "fixtures" / "plans"


class TestRegistry:
    def test_every_paper_artefact_catalogued(self):
        for exp_id in ("FIG4", "TAB1", "TAB2", "TAB3", "TAB4", "FIG7",
                       "FIG8"):
            assert exp_id in EXPERIMENTS

    def test_ids_are_keys(self):
        for exp_id, info in EXPERIMENTS.items():
            assert info.id == exp_id

    def test_analytic_entries_have_runners(self):
        for info in EXPERIMENTS.values():
            if info.kind == "analytic":
                assert info.runner is not None
                assert callable(getattr(analytic, info.runner))
            else:
                assert info.runner is None

    def test_bench_paths_exist(self):
        import pathlib
        root = pathlib.Path(__file__).parents[2]
        for info in EXPERIMENTS.values():
            assert (root / info.bench).exists(), info.bench

    def test_kinds_are_valid(self):
        assert all(i.kind in ("analytic", "training", "script")
                   for i in EXPERIMENTS.values())

    def test_info_is_frozen(self):
        info = next(iter(EXPERIMENTS.values()))
        with pytest.raises(AttributeError):
            info.id = "HACK"

    def test_modules_importable(self):
        import importlib
        for info in EXPERIMENTS.values():
            for module in info.modules:
                importlib.import_module(module)


class TestCanonicalId:
    @pytest.mark.parametrize("raw,expected", [
        ("fig4", "FIG4"),
        ("Figure 4", "FIG4"),
        ("table1", "TAB1"),
        ("TABLE 4", "TAB4"),
        ("tab2", "TAB2"),
        ("xtra7", "XTRA7"),
    ])
    def test_aliases(self, raw, expected):
        assert _canonical_id(raw) == expected


class TestCommands:
    def test_list_mentions_every_id(self):
        text = _cmd_list()
        for exp_id in EXPERIMENTS:
            assert exp_id in text

    def test_info_known_id(self):
        text = _cmd_info("FIG4")
        assert "Fig. 4" in text
        assert "benchmarks/bench_fig4_bit_error_rate.py" in text

    def test_info_unknown_id_exits(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            _cmd_info("NOPE")

    def test_run_training_id_points_to_pytest(self):
        with pytest.raises(SystemExit, match="pytest"):
            _cmd_run("TAB3")

    def test_run_unknown_id_exits(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            _cmd_run("FIG99")

    def test_run_fig4_jobs_adds_monte_carlo_check(self):
        text = _cmd_run("FIG4", jobs=2)
        assert "Monte-Carlo spot check (2 workers" in text
        assert "ignored" not in text

    def test_run_script_id_points_to_python(self):
        with pytest.raises(SystemExit, match="python benchmarks/"):
            _cmd_run("XTRA14")

    def test_info_script_id_shows_smoke_invocation(self):
        text = _cmd_info("XTRA15")
        assert "python benchmarks/bench_rram_hotpath.py" in text
        assert "--smoke" in text

    def test_sweep_command_runs_and_resumes(self, tmp_path, capsys):
        out = tmp_path / "robustness.jsonl"
        assert main(["sweep", "robustness", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "points/sec" in text and "agreement" in text
        n_lines = len(out.read_text().splitlines())
        assert n_lines > 0
        # Second invocation resumes: nothing recomputed, file untouched.
        assert main(["sweep", "robustness", "--out", str(out)]) == 0
        assert "(0 computed" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == n_lines

    def test_compile_accepts_jobs(self, capsys):
        assert main(["compile", "ecg", "--backend", "reference",
                     "--jobs", "1"]) == 0
        assert "reference" in capsys.readouterr().out

    def test_compile_sharded_reports_macro_map(self, capsys):
        assert main(["compile", "eeg", "--backend", "sharded",
                     "--macros", "8x24"]) == 0
        text = capsys.readouterr().out
        assert "sharded" in text
        assert "placed on" in text and "8x24" in text
        assert "Scan pJ/macro" in text

    def test_compile_bad_macros_exits(self):
        with pytest.raises(SystemExit, match="32x32"):
            main(["compile", "eeg", "--backend", "sharded",
                  "--macros", "banana"])

    def test_compile_zero_macro_reports_value_error(self):
        # Well-formed spec, invalid value: the geometry's own message
        # surfaces, not a format complaint.
        with pytest.raises(SystemExit, match="positive"):
            main(["compile", "eeg", "--backend", "sharded",
                  "--macros", "0x32"])

    def test_compile_save_then_deploy_roundtrip(self, tmp_path, capsys):
        """The closed deploy loop: compile --save writes an artifact the
        deploy command reloads (no model) with 100% backend agreement."""
        artifact = tmp_path / "ecg_plan.npz"
        assert main(["compile", "ecg", "--mode", "full_binary",
                     "--backend", "reference",
                     "--save", str(artifact)]) == 0
        text = capsys.readouterr().out
        assert "plan artifact ->" in text and "self-contained" in text
        assert artifact.exists()

        assert main(["deploy", str(artifact), "--backend", "all"]) == 0
        text = capsys.readouterr().out
        for backend in ("reference", "packed", "rram", "sharded"):
            assert backend in text
        assert text.count("100.0%") >= 4
        assert "plan artifact v1" in text
        assert "Per-macro shard map" in text

    def test_compile_save_refuses_clobber_without_overwrite(self, tmp_path,
                                                            capsys):
        artifact = tmp_path / "plan.npz"
        assert main(["compile", "ecg", "--mode", "full_binary",
                     "--backend", "reference",
                     "--save", str(artifact)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--overwrite"):
            main(["compile", "ecg", "--mode", "full_binary",
                  "--backend", "reference", "--save", str(artifact)])
        assert main(["compile", "ecg", "--mode", "full_binary",
                     "--backend", "reference", "--save", str(artifact),
                     "--overwrite"]) == 0

    def test_compile_save_binary_classifier_warns_external(self, tmp_path,
                                                           capsys):
        artifact = tmp_path / "plan.npz"
        assert main(["compile", "ecg", "--backend", "reference",
                     "--save", str(artifact)]) == 0
        assert "front-end stays off-artifact" in capsys.readouterr().out
        # ... and deploy refuses it with guidance instead of crashing.
        with pytest.raises(SystemExit, match="full_binary"):
            main(["deploy", str(artifact)])

    def test_ideal_rram_backend_accepted(self, capsys):
        """``ideal-rram`` runs under ``--backend all`` and ``serve``, so
        ``compile`` and ``deploy`` accept it by name too."""
        assert main(["compile", "eeg", "--backend", "ideal-rram"]) == 0
        text = capsys.readouterr().out
        assert "backend 'rram'" in text and "100.0%" in text
        assert main(["deploy", str(PLANS / "eeg_full_binary.npz"),
                     "--backend", "ideal-rram"]) == 0
        text = capsys.readouterr().out
        assert "rram" in text and "100.0%" in text
        with pytest.raises(SystemExit, match="ideal-rram"):
            main(["compile", "eeg", "--backend", "banana"])

    def test_deploy_missing_artifact_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="compile --save"):
            main(["deploy", str(tmp_path / "nope.npz")])

    def test_deploy_single_backend_and_macros(self, tmp_path, capsys):
        artifact = tmp_path / "eeg_plan.npz"
        assert main(["compile", "eeg", "--mode", "full_binary",
                     "--backend", "reference",
                     "--save", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["deploy", str(artifact), "--backend", "sharded",
                     "--macros", "8x24"]) == 0
        text = capsys.readouterr().out
        assert "sharded" in text and "8x24 macros" in text

    def test_sweep_sharded_with_cache_stats(self, tmp_path, capsys):
        out = tmp_path / "sharded.jsonl"
        assert main(["sweep", "sharded", "--cache-stats",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "agreement by macro_cols" in text
        assert "plan cache:" in text and "misses" in text
        # Resumed run: no points recomputed, stats still reported.
        assert main(["sweep", "sharded", "--cache-stats",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "(0 computed" in text and "plan cache:" in text


class TestSweepRegistry:
    """Sweep workloads come from the SWEEP_WORKLOADS registry, not an
    if/elif chain; the parser and summaries follow the registry."""

    def test_registry_covers_reliability_workloads(self):
        from repro.experiments.workloads import SWEEP_WORKLOADS
        assert {"ber", "robustness", "sharded", "lifetime",
                "yield"} <= set(SWEEP_WORKLOADS)
        for spec in SWEEP_WORKLOADS.values():
            assert spec.description
            assert callable(spec.fn)

    def test_unknown_workload_rejected(self, capsys):
        from repro.experiments.workloads import SWEEP_WORKLOADS
        with pytest.raises(SystemExit) as info:
            main(["sweep", "banana"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "'banana'" in err
        for name, spec in SWEEP_WORKLOADS.items():
            assert f"{name}: {spec.description}" in err

    def test_sweep_lifetime_resumable_jsonl(self, tmp_path, capsys):
        out = tmp_path / "lifetime.jsonl"
        assert main(["sweep", "lifetime", "--trials", "1",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "agreement by years" in text
        assert "ecc=secded" in text
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert all("agreement" in r["metrics"] for r in records)
        # Resume: nothing recomputed.
        assert main(["sweep", "lifetime", "--trials", "1",
                     "--out", str(out)]) == 0
        assert "(0 computed" in capsys.readouterr().out

    def test_sweep_yield_runs(self, tmp_path, capsys):
        out = tmp_path / "yield.jsonl"
        assert main(["sweep", "yield", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "chips_needed by traffic_msps" in text
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert all("yield_fraction" in r["metrics"] for r in records)


class TestDeployReliabilityFlags:
    @pytest.fixture
    def artifact(self, tmp_path, capsys):
        path = tmp_path / "eeg_plan.npz"
        assert main(["compile", "eeg", "--mode", "full_binary",
                     "--backend", "reference",
                     "--save", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_kill_macro_degrades_but_agrees(self, artifact, capsys):
        assert main(["deploy", str(artifact), "--backend", "sharded",
                     "--macros", "8x24", "--kill-macro", "1",
                     "--kill-macro", "5"]) == 0
        text = capsys.readouterr().out
        assert "100.0%" in text
        assert "2 dead macro(s) remapped onto spares" in text
        assert "Spare macros (degraded placements)" in text

    def test_ecc_reported(self, artifact, capsys):
        assert main(["deploy", str(artifact), "--backend", "rram",
                     "--ecc", "secded"]) == 0
        text = capsys.readouterr().out
        assert "ECC: (72,64) SECDED" in text

    def test_too_many_dead_for_spares_exits_cleanly(self, artifact):
        with pytest.raises((SystemExit, RuntimeError)):
            main(["deploy", str(artifact), "--backend", "sharded",
                  "--macros", "8x24", "--kill-macro", "0",
                  "--kill-macro", "1", "--kill-macro", "2",
                  "--spares", "1"])

    def test_bad_spares_value_exits(self, artifact):
        with pytest.raises(SystemExit, match="spares"):
            main(["deploy", str(artifact), "--backend", "sharded",
                  "--spares", "many"])

    def test_flags_no_requested_backend_uses_exit(self):
        """A reliability flag that no requested backend models exits
        non-zero, naming the flag and the backends that use it."""
        with pytest.raises(SystemExit) as info:
            main(["deploy", str(PLANS / "eeg_full_binary.npz"),
                  "--backend", "packed", "--ecc", "secded",
                  "--kill-macro", "3", "--years", "10"])
        message = str(info.value.code)
        assert "--ecc (used by rram, ideal-rram)" in message
        assert "--years (used by rram, ideal-rram, sharded)" in message
        assert "--kill-macro (used by sharded)" in message
        with pytest.raises(SystemExit, match=r"--spares \(used by sharded\)"):
            main(["deploy", str(PLANS / "eeg_full_binary.npz"),
                  "--backend", "rram", "--spares", "2"])
        with pytest.raises(SystemExit, match=r"--temp \(used by"):
            main(["deploy", str(PLANS / "eeg_full_binary.npz"),
                  "--backend", "reference", "--temp", "85"])

    def test_temp_without_years_exits(self):
        """``--temp`` only sets the storage temperature of ``--years``:
        on an aging backend without ``--years`` it would be silently
        ignored, so it exits non-zero and names both flags."""
        for backend in ("rram", "ideal-rram", "sharded", "all"):
            with pytest.raises(SystemExit) as info:
                main(["deploy", str(PLANS / "eeg_full_binary.npz"),
                      "--backend", backend, "--temp", "85"])
            assert isinstance(info.value.code, str)   # exit status 1
            assert "--temp" in info.value.code
            assert "--years" in info.value.code

    def test_bundle_deploy_reports_ecc_and_repeat_footer(self, capsys):
        """Bundle deploy runs the same per-model loop as a single plan:
        the ECC line and the timed-repeat footer print for bundles too."""
        assert main(["deploy", str(PLANS / "eeg_ecg_bundle.npz"),
                     "--backend", "rram", "--ecc", "secded",
                     "--repeat", "3"]) == 0
        text = capsys.readouterr().out
        assert "[eeg] ECC: (72,64) SECDED" in text
        assert "[ecg] ECC: (72,64) SECDED" in text
        assert "ms/batch is the p50 of 3 timed repeats" in text


class TestAnalyticRunners:
    """Each analytic runner must execute quickly and mention its artefact."""

    @pytest.mark.parametrize("runner,keyword", [
        ("run_fig4", "Fig. 4"),
        ("run_table1", "Table I"),
        ("run_table2", "Table II"),
        ("run_table4", "Table IV"),
        ("run_energy", "in-memory"),
        ("run_retention", "Retention"),
        ("run_analog", "ADC"),
    ])
    def test_runner_output(self, runner, keyword):
        text = getattr(analytic, runner)()
        assert keyword in text
        assert len(text.splitlines()) > 3

    def test_fig4_reports_separation(self):
        assert "orders of magnitude" in analytic.run_fig4()

    def test_table1_matches_paper_totals(self):
        text = analytic.run_table1()
        assert "2520" in text          # flattened feature width
        assert "305,842" in text       # ~0.31M parameters

    def test_analog_error_decreases_down_the_table(self):
        lines = [l for l in analytic.run_analog().splitlines()
                 if l and l[0].isdigit()]
        errors = [float(l.split("|")[1]) for l in lines]
        assert errors == sorted(errors, reverse=True)


class TestMainEntry:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "FIG4" in capsys.readouterr().out

    def test_info_command(self, capsys):
        assert main(["info", "TAB4"]) == 0
        assert "Table IV" in capsys.readouterr().out

    def test_run_command(self, capsys):
        assert main(["run", "TAB1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_memory_alias(self, capsys):
        assert main(["memory"]) == 0
        assert "Table IV" in capsys.readouterr().out

    def test_energy_alias(self, capsys):
        assert main(["energy"]) == 0
        assert "in-memory" in capsys.readouterr().out

    def test_floorplan_command(self, capsys):
        assert main(["floorplan", "eeg"]) == 0
        out = capsys.readouterr().out
        assert "fc1" in out and "mm^2" in out

    def test_floorplan_custom_macro(self, capsys):
        assert main(["floorplan", "ecg", "--macro", "64x64"]) == 0
        assert "64x64" in capsys.readouterr().out

    def test_floorplan_bad_macro_exits(self):
        with pytest.raises(SystemExit, match="32x32"):
            main(["floorplan", "eeg", "--macro", "banana"])

    def test_floorplan_unknown_model_exits(self):
        with pytest.raises(SystemExit):
            main(["floorplan", "resnet"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestDeployRepeat:
    def test_repeat_timing_footer(self, tmp_path, capsys):
        artifact = tmp_path / "eeg_plan.npz"
        assert main(["compile", "eeg", "--mode", "full_binary",
                     "--backend", "reference",
                     "--save", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["deploy", str(artifact), "--backend", "packed",
                     "--repeat", "5"]) == 0
        text = capsys.readouterr().out
        assert "p50 of 5 timed repeats" in text

    def test_single_repeat_omits_footer(self, tmp_path, capsys):
        artifact = tmp_path / "eeg_plan.npz"
        assert main(["compile", "eeg", "--mode", "full_binary",
                     "--backend", "reference",
                     "--save", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["deploy", str(artifact), "--backend", "packed",
                     "--repeat", "1"]) == 0
        assert "timed repeats" not in capsys.readouterr().out


class TestServeCommand:
    """The daemon CLI: guard rails in-process, the happy path as a real
    subprocess (signal handlers need the main thread)."""

    FIXTURE = __import__("pathlib").Path(__file__).parents[1] \
        / "fixtures" / "plans" / "eeg_full_binary.npz"

    def test_registry_entry(self):
        assert "XTRA19" in EXPERIMENTS
        assert EXPERIMENTS["XTRA19"].bench == "benchmarks/bench_serve.py"

    def test_missing_artifact_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="compile --save"):
            main(["serve", str(tmp_path / "nope.npz")])

    def test_unknown_backend_exits(self):
        with pytest.raises(SystemExit, match="unknown backend"):
            main(["serve", str(self.FIXTURE), "--backend", "banana"])

    def test_non_self_contained_artifact_exits(self, tmp_path, capsys):
        artifact = tmp_path / "classifier_only.npz"
        assert main(["compile", "ecg", "--backend", "reference",
                     "--save", str(artifact)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="self-contained"):
            main(["serve", str(artifact)])

    def test_daemon_boot_serve_sigterm_drain(self, tmp_path):
        """Boot the real daemon, serve one request over the wire,
        SIGTERM it, and require a clean drain (exit 0 + stats report)."""
        import os
        import re
        import signal
        import subprocess
        import sys
        import time

        import numpy as np

        root = self.FIXTURE.parents[3]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(self.FIXTURE),
             "--port", "0", "--batch-window", "100"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(root))
        try:
            url = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                found = re.search(r"serving .* on (http://\S+)", line)
                if found:
                    url = found.group(1)
                    break
            assert url, "daemon never announced its URL"

            from repro.io import load_compiled, load_plan
            from repro.serve import ServeClient

            artifact = load_plan(self.FIXTURE)
            plan = load_compiled(artifact, backend="packed")
            request = np.random.default_rng(0).integers(
                0, 2, (1,) + artifact.input_shape).astype(np.uint8)
            client = ServeClient(url, timeout=30.0, retries=50)
            response = client.predict(request)
            assert np.array_equal(response["scores"],
                                  plan.scores(request))
            assert client.health()["status"] == "ok"
            client.close()

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30.0)
            assert proc.returncode == 0
            assert "serve stats" in out and "draining" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestRefusedArtifact:
    """An artifact the loader refuses ends the command with its one-line
    reason, never a traceback."""

    @pytest.mark.parametrize("command", ["deploy", "serve"])
    def test_negative_variance_exits_with_the_reason(self, tmp_path,
                                                     command):
        import numpy as np

        with np.load(PLANS / "eeg_full_binary.npz") as artifact:
            arrays = dict(artifact)
        arrays["op0.bn_var"] = arrays["op0.bn_var"].copy()
        arrays["op0.bn_var"][0] = -1.0
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(bad)])
        message = excinfo.value.code
        assert isinstance(message, str)     # a message exits with status 1
        assert str(bad) in message
        assert "op 0" in message and "'bn_var'" in message

    @pytest.mark.parametrize("command", ["deploy", "serve"])
    def test_folded_classifier_file_exits_with_one_line(self, tmp_path,
                                                        command):
        import numpy as np

        from repro.io.common import write_npz

        bits = np.ones((4, 16), dtype=np.uint8)
        legacy = write_npz(tmp_path / "program.npz",
                           {"output.weight_bits": bits,
                            "output.scale": np.ones(1),
                            "output.offset": np.zeros(1)},
                           {"kind": "folded_classifier", "n_hidden": 0})
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(legacy)])
        message = excinfo.value.code
        assert isinstance(message, str)     # a message exits with status 1
        assert "\n" not in message
        assert str(legacy) in message
        assert "'folded_classifier' artefact, not a compiled plan" in message
