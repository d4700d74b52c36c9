"""The inference path's import surface.

Loading a compiled plan and booting the serving daemon must import only
what inference runs: numpy plus the ``repro`` inference packages, never
scipy and never the training, data, analysis or plotting stacks.  Each
check runs in a fresh interpreter, because the pytest process itself has
imported everything long before.

``repro.tensor`` is deliberately out of scope: the analog front end's
guarded fallback (``repro.runtime.analog_front``) and ``repro.nn`` still
import it.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures" / "plans"

FORBIDDEN = ("scipy", "repro.data", "repro.experiments", "repro.analysis",
             "repro.viz", "repro.optim")

_REPORT = textwrap.dedent("""
    import json, sys
    print(json.dumps(sorted(sys.modules)))
""")


def _modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return its ``sys.modules``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        capture_output=True, text=True, env=env, cwd=str(ROOT),
        timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _forbidden(modules: list[str]) -> list[str]:
    return [m for m in modules
            if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]


def test_bare_package_import_loads_no_subpackage():
    modules = _modules_after("import repro")
    assert [m for m in modules if m.startswith("repro.")] == []
    assert _forbidden(modules) == []


@pytest.mark.parametrize("fixture", ["eeg_full_binary.npz",
                                     "ecg_full_binary.npz"])
def test_plan_load_and_scores(fixture):
    modules = _modules_after(f"""
        import numpy as np
        from repro.io import load_compiled, load_plan
        artifact = load_plan({str(FIXTURES / fixture)!r})
        plan = load_compiled(artifact, backend="packed")
        x = np.random.default_rng(0).normal(
            size=(3,) + artifact.input_shape)
        assert plan.scores(x).shape[0] == 3
    """)
    assert "repro.runtime" in modules          # the check really ran
    assert _forbidden(modules) == []


def test_daemon_boot():
    """``build_parser``, the imports ``_cmd_serve`` makes, then a
    ``PlanServer`` over every model of the bundle fixture."""
    modules = _modules_after(f"""
        from repro.cli.main import build_parser
        build_parser().parse_args(["serve", "bundle.npz"])
        from repro.io import load_bundle, load_compiled
        from repro.rram import AcceleratorConfig
        from repro.runtime import (PlanSerializationError, RRAMBackend,
                                   ShardedRRAMBackend, available_backends)
        from repro.serve import HttpFront, PlanServer
        bundle = load_bundle({str(FIXTURES / "eeg_ecg_bundle.npz")!r})
        plans = {{name: load_compiled(bundle[name], backend="packed")
                 for name in bundle.names}}
        server = PlanServer(plans, input_shape={{
            name: bundle[name].input_shape for name in bundle.names}})
        server.close()
    """)
    assert "repro.serve" in modules
    assert _forbidden(modules) == []


def test_client_module_runs_without_a_reimport_warning():
    """``python -m repro.serve.client`` must not find its own module
    already imported by the ``repro.serve`` package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.serve.client", "--help"],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=120)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
