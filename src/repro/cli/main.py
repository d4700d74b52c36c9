"""Argument parsing and dispatch for ``python -m repro``."""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.cli.registry import EXPERIMENTS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'In-Memory Resistive RAM "
                     "Implementation of Binarized Neural Networks for "
                     "Medical Applications' (DATE 2020)."))
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="catalogue of reproduced tables and figures")

    info = sub.add_parser("info", help="details of one experiment")
    info.add_argument("id", help="experiment id, e.g. FIG4 (see 'list')")

    run = sub.add_parser("run", help="run an analytic experiment now")
    run.add_argument("id", help="experiment id, e.g. FIG4 (see 'list')")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes for runners that sweep "
                          "(forwarded when the runner supports it)")

    sub.add_parser("memory", help="Table IV memory report (alias: run TAB4)")
    sub.add_parser("energy",
                   help="in-memory vs digital energy (alias: run XTRA4)")
    compile_cmd = sub.add_parser(
        "compile",
        help="compile a paper model through the unified runtime and "
             "cross-check every backend")
    compile_cmd.add_argument("model", nargs="+",
                             choices=["eeg", "ecg", "mobilenet"],
                             help="which architecture(s) to compile "
                                  "(reduced geometry, random weights); "
                                  "several names build a multi-model "
                                  "bundle with --save-bundle")
    compile_cmd.add_argument("--backend", default="all",
                             help="backend name, or 'all' (default) for "
                                  "reference/packed/ideal-rram/sharded")
    compile_cmd.add_argument("--macros", default="32x32",
                             help="macro geometry ROWSxCOLS for the "
                                  "sharded backend (default 32x32); each "
                                  "folded layer is split across chips of "
                                  "this size")
    compile_cmd.add_argument("--mode", default="binary_classifier",
                             choices=["binary_classifier", "full_binary"],
                             help="binarization mode (full_binary lowers "
                                  "the EEG/ECG conv stack onto the "
                                  "backend)")
    compile_cmd.add_argument("--jobs", type=int, default=1,
                             help="evaluate backends in N worker "
                                  "processes (1 = in-process)")
    compile_cmd.add_argument("--save", default=None, metavar="PATH",
                             help="write the compiled plan as a "
                                  "deployment artifact (.npz) that "
                                  "'deploy' reloads without the model")
    compile_cmd.add_argument("--save-bundle", default=None, metavar="PATH",
                             help="write ALL compiled models as one "
                                  "multi-tenant bundle artifact (.npz) "
                                  "that 'serve' hosts behind a single "
                                  "daemon and 'deploy' packs onto one "
                                  "macro pool")
    compile_cmd.add_argument("--overwrite", action="store_true",
                             help="allow --save/--save-bundle to replace "
                                  "an existing artifact file")
    deploy_cmd = sub.add_parser(
        "deploy",
        help="load a saved plan artifact (no model needed) and run "
             "inference on every backend, reporting agreement")
    deploy_cmd.add_argument("artifact",
                            help="plan or bundle artifact written by "
                                 "'compile --save', 'compile "
                                 "--save-bundle' or repro.io.save_plan")
    deploy_cmd.add_argument("--backend", default="all",
                            help="backend name, or 'all' (default) for "
                                 "reference/packed/ideal-rram/sharded")
    deploy_cmd.add_argument("--macros", default="32x32",
                            help="macro geometry ROWSxCOLS for the "
                                 "sharded backend (default 32x32)")
    deploy_cmd.add_argument("--batch", type=int, default=32,
                            help="synthetic evaluation batch size "
                                 "(default 32)")
    deploy_cmd.add_argument("--seed", type=int, default=0,
                            help="seed for the synthetic evaluation "
                                 "inputs (default 0)")
    deploy_cmd.add_argument("--ecc", default="none",
                            choices=["none", "secded", "rate-half"],
                            help="protect the rram backend's weight "
                                 "store with this Hamming code "
                                 "(default none)")
    deploy_cmd.add_argument("--years", type=float, default=0.0,
                            help="age the programmed weights by this "
                                 "many years of storage before "
                                 "evaluating (default 0 = fresh)")
    deploy_cmd.add_argument("--temp", type=float, default=37.0,
                            help="storage temperature in deg C for "
                                 "--years, which it requires (default "
                                 "37, body temperature)")
    deploy_cmd.add_argument("--kill-macro", type=int, action="append",
                            default=None, metavar="INDEX",
                            help="mark this chip-global macro index dead "
                                 "on the sharded backend (repeatable); "
                                 "its shards remap onto spares")
    deploy_cmd.add_argument("--spares", default="auto",
                            help="spare macros per layer for dead-macro "
                                 "remapping: 'auto' or an int "
                                 "(default auto)")
    deploy_cmd.add_argument("--repeat", type=int, default=3,
                            help="timed prediction repeats per backend; "
                                 "the table reports the median (p50) "
                                 "instead of a single-shot time "
                                 "(default 3)")
    serve_cmd = sub.add_parser(
        "serve",
        help="run the always-on inference daemon: load a plan artifact "
             "once and serve concurrent requests over HTTP with "
             "micro-batching onto the packed fast path")
    serve_cmd.add_argument("artifact",
                           help="self-contained plan artifact written by "
                                "'compile --save', or a multi-model "
                                "bundle from 'compile --save-bundle' "
                                "(auto-detected; the daemon loads it "
                                "once; no model needed)")
    serve_cmd.add_argument("--bundle", action="store_true",
                           help="require the artifact to be a "
                                "multi-model bundle (bundles are "
                                "auto-detected either way; this makes "
                                "scripts fail loudly on the wrong file)")
    serve_cmd.add_argument("--backend", default="packed",
                           help="execution backend (default packed; "
                                "rram/sharded run their noise-free fast "
                                "paths — noisy configs are not servable)")
    serve_cmd.add_argument("--macros", default="32x32",
                           help="macro geometry ROWSxCOLS for the "
                                "sharded backend (default 32x32)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8373,
                           help="TCP port (default 8373; 0 picks a free "
                                "one and prints it)")
    serve_cmd.add_argument("--max-batch", type=int, default=256,
                           help="rows per coalesced dispatch; a fuller "
                                "queue flushes early (default 256)")
    serve_cmd.add_argument("--batch-window", type=float, default=200.0,
                           help="micro-batch window in microseconds: how "
                                "long the oldest request may wait for "
                                "co-travellers before a flush (default "
                                "200; 0 = flush immediately)")
    serve_cmd.add_argument("--max-queue", type=int, default=1024,
                           help="admission queue depth in rows; requests "
                                "past it are rejected with HTTP 429 "
                                "(default 1024)")
    serve_cmd.add_argument("--request-timeout", type=float, default=30.0,
                           help="seconds a connection waits for its "
                                "response before 504 (default 30)")
    train_cmd = sub.add_parser(
        "train",
        help="train a demo-geometry paper model (optionally with the "
             "RRAM read-noise model in the loop), checkpoint it, and "
             "compile it to a plan artifact for deploy/serve/sweep")
    train_cmd.add_argument("model", choices=["eeg", "ecg"],
                           help="which recipe to run (synthetic dataset "
                                "windows at demo geometry; deterministic "
                                "per seed)")
    train_cmd.add_argument("--mode", default="full_binary",
                           choices=["binary_classifier", "full_binary"],
                           help="binarization mode (default full_binary: "
                                "the compiled artifact is self-contained "
                                "and 'deploy'/'serve' need no model)")
    train_cmd.add_argument("--noise-sigma", type=float, default=0.0,
                           help="train with the RRAM read-noise surrogate "
                                "armed at this sense-offset sigma "
                                "(hardware-in-the-loop; 0 = clean "
                                "training)")
    train_cmd.add_argument("--epochs", type=int, default=None,
                           help="override the recipe's epoch budget")
    train_cmd.add_argument("--seed", type=int, default=None,
                           help="override the recipe's seed (dataset, "
                                "split, init and shuffling all follow)")
    train_cmd.add_argument("--checkpoint", default=None, metavar="PATH",
                           help="write the trained state_dict as a "
                                "checkpoint (.npz) reloadable with "
                                "repro.io.load_model")
    train_cmd.add_argument("--save", default=None, metavar="PATH",
                           help="compile the trained model and write the "
                                "plan artifact (.npz) that 'deploy' and "
                                "'serve' reload without the model")
    train_cmd.add_argument("--overwrite", action="store_true",
                           help="allow --checkpoint/--save to replace "
                                "existing files")
    # The workload name is checked in _cmd_sweep: listing the choices here
    # would import the training stack on every CLI start, daemon included.
    sweep_cmd = sub.add_parser(
        "sweep",
        help="run a persisted, resumable parameter sweep (optionally on "
             "a process pool)")
    sweep_cmd.add_argument("workload",
                           help="stock workload name; an unknown name "
                                "lists the valid ones")
    sweep_cmd.add_argument("--jobs", type=int, default=1,
                           help="worker processes (1 = serial)")
    sweep_cmd.add_argument("--trials", type=int, default=1,
                           help="Monte-Carlo read trials per point, "
                                "evaluated trial-batched on deterministic "
                                "per-trial RNG streams (default 1)")
    sweep_cmd.add_argument("--cache-stats", action="store_true",
                           help="report the programmed-plan cache "
                                "hit/miss counters after the sweep "
                                "(per-process; with --jobs > 1 workers "
                                "keep their own caches)")
    sweep_cmd.add_argument("--out", default=None,
                           help="JSONL result file (default "
                                "benchmarks/results/sweep_<workload>"
                                ".jsonl); an existing file resumes")
    floorplan = sub.add_parser(
        "floorplan",
        help="map a paper model's classifier onto RRAM macros")
    floorplan.add_argument("model", choices=["eeg", "ecg", "mobilenet"],
                           help="which architecture's classifier to plan")
    floorplan.add_argument("--macro", default="32x32",
                           help="macro geometry ROWSxCOLS (default 32x32)")
    return parser


def _canonical_id(raw: str) -> str:
    candidate = raw.strip().upper().replace(".", "").replace(" ", "")
    aliases = {
        "FIGURE4": "FIG4", "TABLE1": "TAB1", "TABLE2": "TAB2",
        "TABLE3": "TAB3", "TABLE4": "TAB4", "FIGURE7": "FIG7",
        "FIGURE8": "FIG8",
    }
    return aliases.get(candidate, candidate)


def _sort_key(exp_id: str) -> tuple[int, int]:
    """Paper artefacts in paper order, then ablations numerically."""
    import re
    match = re.fullmatch(r"([A-Z]+)(\d+)", exp_id)
    prefix, number = match.group(1), int(match.group(2))
    prefix_rank = {"FIG": 0, "TAB": 0, "XTRA": 1}.get(prefix, 2)
    return (prefix_rank, number)


def _cmd_list() -> str:
    width = max(len(i) for i in EXPERIMENTS)
    lines = ["Reproduced artefacts ('run <id>' for analytic ones, the "
             "listed bench for training ones):", ""]
    tags = {"analytic": "run now ", "script": "python  "}
    for exp_id in sorted(EXPERIMENTS, key=_sort_key):
        info = EXPERIMENTS[exp_id]
        tag = tags.get(info.kind, "pytest  ")
        lines.append(f"  {info.id.ljust(width)}  [{tag}]  {info.artefact}")
    return "\n".join(lines)


def _cmd_info(exp_id: str) -> str:
    info = EXPERIMENTS.get(_canonical_id(exp_id))
    if info is None:
        raise SystemExit(
            f"unknown experiment {exp_id!r}; see 'python -m repro list'")
    lines = [info.artefact, "=" * len(info.artefact), info.description, ""]
    lines.append(f"modules : {', '.join(info.modules)}")
    if info.kind == "script":
        lines.append(f"run now : python {info.bench} [--smoke]")
    else:
        lines.append(f"bench   : pytest {info.bench} --benchmark-only -s")
    if info.kind == "analytic":
        lines.append(f"run now : python -m repro run {info.id}")
    return "\n".join(lines)


def _cmd_run(exp_id: str, jobs: int = 1) -> str:
    info = EXPERIMENTS.get(_canonical_id(exp_id))
    if info is None:
        raise SystemExit(
            f"unknown experiment {exp_id!r}; see 'python -m repro list'")
    if info.kind == "script":
        raise SystemExit(
            f"{info.id} is a standalone benchmark script; run it with:\n"
            f"  python {info.bench} [--smoke]")
    if info.kind != "analytic":
        raise SystemExit(
            f"{info.id} is a training experiment; run it with:\n"
            f"  pytest {info.bench} --benchmark-only -s")
    import inspect

    from repro.cli import analytic
    runner = getattr(analytic, info.runner)
    if "jobs" in inspect.signature(runner).parameters:
        return runner(jobs=jobs)
    text = runner()
    if jobs != 1:
        text += f"\n\n(--jobs ignored: {info.id} is closed-form analytic)"
    return text


def _demo_model_and_inputs(model_name: str, mode_name: str):
    """Reduced paper model + calibration inputs, deterministic per name
    (:func:`repro.models.demo_model_and_inputs`, shared with the golden
    fixture tooling); unsupported combinations exit instead of raising."""
    from repro.models import demo_model_and_inputs

    try:
        return demo_model_and_inputs(model_name, mode_name)
    except ValueError as error:
        raise SystemExit(str(error))


def _parse_macro(spec: str):
    """``ROWSxCOLS`` -> :class:`~repro.rram.MacroGeometry` (or exit)."""
    from repro.rram import MacroGeometry

    try:
        rows, cols = (int(part) for part in spec.lower().split("x"))
    except ValueError:
        raise SystemExit(f"macro geometry must look like 32x32, "
                         f"got {spec!r}")
    try:
        return MacroGeometry(rows, cols)
    except ValueError as error:       # well-formed spec, invalid value
        raise SystemExit(str(error))


def _backend_specs(spec: str) -> list[str]:
    """``--backend`` value -> the backend specs to run (``all`` = every
    substrate the agreement contract covers); exits on an unknown name.
    ``ideal-rram`` is the CLI's name for the noise-free rram chip
    (:func:`_make_backend`), so it is accepted alongside the registry."""
    from repro.runtime import available_backends

    if spec == "all":
        return ["reference", "packed", "ideal-rram", "sharded"]
    if spec == "ideal-rram" or spec in available_backends():
        return [spec]
    raise SystemExit(
        f"unknown backend {spec!r}; registered: "
        f"{', '.join(available_backends())}, ideal-rram (or 'all')")


def _make_backend(spec: str, macro, *, ecc: str = "none", lifetime=None,
                  fault_map=None, spares="auto", tenant: str | None = None):
    """The backend a CLI ``spec`` runs on: ``ideal-rram`` and ``sharded``
    are noise-free chips, ``rram`` the realistic device model, and any
    other registered name resolves as is.  Each reliability option
    reaches only the backends that model it.  A fresh instance per call:
    the stateful backends reset their placements on ``begin_plan``."""
    from repro.rram import AcceleratorConfig
    from repro.runtime import RRAMBackend, ShardedRRAMBackend

    ecc = None if ecc == "none" else ecc
    if spec == "ideal-rram":
        return RRAMBackend(AcceleratorConfig(ideal=True), ecc=ecc,
                           lifetime=lifetime)
    if spec == "rram":
        return RRAMBackend(ecc=ecc, lifetime=lifetime)
    if spec == "sharded":
        return ShardedRRAMBackend(AcceleratorConfig(ideal=True),
                                  macro=macro, lifetime=lifetime,
                                  fault_map=fault_map, spares=spares,
                                  tenant=tenant)
    return spec


def _evaluate_backend(model, inputs, spec: str,
                      macro_spec: str = "32x32") -> dict:
    """Compile one backend against a built model and time a prediction."""
    import time

    from repro.runtime import compile

    plan = compile(model, backend=_make_backend(spec,
                                                _parse_macro(macro_spec)))
    t0 = time.perf_counter()
    predicted = plan.predict(inputs)
    elapsed = (time.perf_counter() - t0) * 1e3
    result = {"backend": plan.backend.name, "predicted": predicted,
              "ms": elapsed, "summary": plan.summary()}
    if plan.placements:
        result["macro_report"] = plan.floorplan().macro_report()
    return result


def _evaluate_backend_point(model_name: str, mode_name: str, spec: str,
                            macro_spec: str = "32x32") -> dict:
    """Pool worker: rebuild the deterministic demo model in this process
    and evaluate one backend on it."""
    model, inputs = _demo_model_and_inputs(model_name, mode_name)
    return _evaluate_backend(model, inputs, spec, macro_spec)


def _cmd_compile(model_names: list[str], backend_spec: str,
                 mode_name: str, jobs: int = 1, macro_spec: str = "32x32",
                 save: str | None = None, overwrite: bool = False,
                 save_bundle: str | None = None) -> str:
    """Build reduced paper model(s), compile each for every requested
    backend, and report plan structure, prediction agreement, and latency.

    With ``--jobs N`` the backends are compiled and evaluated in worker
    processes (each rebuilds the deterministic demo model); with 1 they
    run in-process, serially.  The ``sharded`` backend additionally
    reports its per-macro shard map (fill and scan energy).  ``--save``
    additionally writes one plan as a deployment artifact the ``deploy``
    command reloads without the model; ``--save-bundle`` writes every
    named model into one multi-tenant bundle for ``serve`` / ``deploy``.
    """
    from repro.experiments import map_parallel

    _parse_macro(macro_spec)    # reject a bad --macros before any work
    specs = _backend_specs(backend_spec)
    if len(set(model_names)) != len(model_names):
        raise SystemExit(f"duplicate model names: {model_names}")
    if save is not None and len(model_names) > 1:
        raise SystemExit("--save writes a single-plan artifact; use "
                         "--save-bundle for several models")

    lines: list[str] = []
    models: dict[str, object] = {}
    for model_name in model_names:
        model = inputs = None
        if jobs <= 1:
            # In-process: build and calibrate each demo model once.
            model, inputs = _demo_model_and_inputs(model_name, mode_name)
            results = [_evaluate_backend(model, inputs, spec, macro_spec)
                       for spec in specs]
        else:
            results = map_parallel(
                _evaluate_backend_point,
                [{"model_name": model_name, "mode_name": mode_name,
                  "spec": spec, "macro_spec": macro_spec}
                 for spec in specs],
                jobs=jobs)
        models[model_name] = model      # None when evaluated in workers

        if lines:
            lines.append("")
        lines += [results[0]["summary"], ""]
        lines.append(f"{'backend':<12} {'agreement':>10} {'ms/batch':>10}")
        baseline = results[0]["predicted"]
        for result in results:
            agreement = float((result["predicted"] == baseline).mean())
            lines.append(f"{result['backend']:<12} "
                         f"{agreement:>9.1%} "
                         f"{result['ms']:>10.2f}")
        lines.append("")
        lines.append("agreement is relative to the first backend; the "
                     "Eq. 3 contract is 100% for\nreference/packed, "
                     "ideal RRAM and the sharded multi-macro backend.")
        for result in results:
            if "macro_report" in result:
                lines += ["", result["macro_report"]]

    if save is not None or save_bundle is not None:
        from repro.runtime import compile as compile_model

        plans = {}
        for model_name in model_names:
            model = models[model_name]
            if model is None:
                model, _ = _demo_model_and_inputs(model_name, mode_name)
            plans[model_name] = compile_model(model, backend="reference")
    if save is not None:
        from repro.io import load_plan, save_plan

        try:
            path = save_plan(next(iter(plans.values())), save,
                             overwrite=overwrite,
                             allow_external_front_end=True)
        except FileExistsError as error:
            raise SystemExit(f"{error} (or pass --overwrite)")
        artifact = load_plan(path)
        status = "self-contained" if artifact.self_contained else \
            "front-end stays off-artifact (compile --mode full_binary " \
            "for a self-contained one)"
        lines += ["", f"plan artifact -> {path} "
                      f"({path.stat().st_size / 1024:.0f} KB, "
                      f"{status})",
                  "reload it with: python -m repro deploy "
                  f"{path}"]
    if save_bundle is not None:
        from repro.io import load_bundle
        from repro.io import save_bundle as save_bundle_fn

        try:
            path = save_bundle_fn(plans, save_bundle, overwrite=overwrite,
                                  allow_external_front_end=True)
        except FileExistsError as error:
            raise SystemExit(f"{error} (or pass --overwrite)")
        bundle = load_bundle(path)
        lines += ["", f"bundle artifact -> {path} "
                      f"({path.stat().st_size / 1024:.0f} KB, "
                      f"{len(bundle)} model(s): "
                      f"{', '.join(bundle.names)})",
                  "serve all of them behind one daemon with: "
                  f"python -m repro serve {path}"]
    return "\n".join(lines)


def _cmd_deploy(artifact_path: str, backend_spec: str = "all",
                macro_spec: str = "32x32", batch: int = 32,
                seed: int = 0, ecc: str = "none", years: float = 0.0,
                temp: float = 37.0, kill_macros: list[int] | None = None,
                spares: str = "auto", repeat: int = 3) -> str:
    """Load a plan artifact — no model, no training stack — rebind it to
    each requested backend and cross-check predictions on synthetic
    inputs of the artifact's recorded geometry.

    The reliability flags deploy the *same artifact* onto a degraded
    substrate: ``--years/--temp`` age the programmed weights through the
    retention model, ``--ecc`` puts the rram backend's store behind a
    Hamming code, and ``--kill-macro`` marks macros dead on the sharded
    backend (remapped onto spares instead of failing).  A flag that no
    requested backend models exits instead of being ignored.

    A multi-model bundle runs the same loop per model (each tenant on its
    own chips), then packs every tenant's sharded placements first-fit-
    decreasing onto ONE macro pool and reports the tenant-aware macro map
    and the before/after utilization the multi-tenant chip exists for."""
    import pathlib
    import time

    import numpy as np

    from repro.io import load_bundle, load_compiled
    from repro.metrics import latency_summary
    from repro.rram import FaultMap, LifetimeConfig
    from repro.runtime import PlanSerializationError

    macro = _parse_macro(macro_spec)
    specs = _backend_specs(backend_spec)
    aging = ("rram", "ideal-rram", "sharded")
    ignored = [f"{flag} (used by {', '.join(users)})"
               for flag, given, users in (
                   ("--ecc", ecc != "none", ("rram", "ideal-rram")),
                   ("--years", years > 0, aging),
                   ("--temp", temp != 37.0, aging),
                   ("--kill-macro", bool(kill_macros), ("sharded",)),
                   ("--spares", spares != "auto", ("sharded",)))
               if given and not set(users) & set(specs)]
    if ignored:
        raise SystemExit(f"no requested backend ({', '.join(specs)}) uses "
                         f"{'; '.join(ignored)}")
    if temp != 37.0 and years <= 0:
        raise SystemExit("--temp sets the storage temperature for --years "
                         "and has no effect without it; pass --years too")
    lifetime = LifetimeConfig.years(years, temp) if years > 0 else None
    fault_map = FaultMap(dead_macros=tuple(kill_macros)) \
        if kill_macros else None
    if spares != "auto":
        try:
            spares = int(spares)
        except ValueError:
            raise SystemExit(
                f"--spares must be 'auto' or an int, got {spares!r}")
    if not pathlib.Path(artifact_path).exists():
        raise SystemExit(f"no artifact at {artifact_path!r}; write one "
                         "with 'compile --save' first")
    try:
        bundle = load_bundle(artifact_path)
    except ValueError as error:        # malformed or corrupted artifact
        raise SystemExit(str(error))
    tenants = len(bundle) > 1

    rows: list[str] = []
    reports: list[str] = []
    placements: dict[str, list] = {}
    for name in bundle.names:
        artifact = bundle[name]
        where = f"bundle model {name!r}" if tenants else artifact_path
        if not artifact.self_contained:
            raise SystemExit(
                f"{where} is not self-contained (its front-end stays "
                "with the model); re-save from a lowered plan, e.g. "
                "'compile eeg --mode full_binary "
                f"{'--save-bundle' if tenants else '--save'} ...'")
        if artifact.input_shape is None:
            raise SystemExit(f"{where} records no input geometry; cannot "
                             "generate evaluation inputs")
        rng = np.random.default_rng(seed)
        size = (batch,) + artifact.input_shape
        inputs = rng.integers(0, 2, size=size).astype(np.uint8) \
            if artifact.ops[0]["op"] == "bits" else rng.standard_normal(size)
        baseline = None
        for spec in specs:
            backend = _make_backend(spec, macro, ecc=ecc, lifetime=lifetime,
                                    fault_map=fault_map, spares=spares,
                                    tenant=name if tenants else None)
            try:
                plan = load_compiled(artifact, backend=backend)
            except PlanSerializationError as error:
                raise SystemExit(str(error))
            # Timed repeats feed the shared latency helper: the table
            # shows the median, not a single (warmup-polluted) shot.  The
            # first repeat's prediction is the agreement sample.
            predicted = None
            samples_ms = []
            for _ in range(max(1, int(repeat))):
                t0 = time.perf_counter()
                result = plan.predict(inputs)
                samples_ms.append((time.perf_counter() - t0) * 1e3)
                if predicted is None:
                    predicted = result
            if baseline is None:
                baseline = predicted
            agreement = float((predicted == baseline).mean())
            row = (f"{plan.backend.name:<12} {agreement:>9.1%} "
                   f"{latency_summary(samples_ms).p50:>10.2f}")
            rows.append(f"{name:<10} {row}" if tenants else row)
            # The summary's placement line names the fast-path kind (and
            # any dead-macro remaps), so the deploy table shows which
            # read path actually ran and how degraded the substrate is.
            notes = [line.strip() for line in plan.summary().splitlines()
                     if line.strip().startswith(("placed on", "ECC:"))]
            if plan.placements:
                placements[name] = plan.placements
                if not tenants:     # a bundle reports the co-resident map
                    notes.append(plan.floorplan().macro_report())
            if tenants:
                notes = [f"[{name}] {note}" for note in notes]
            if notes:
                reports.append("\n".join(notes))

    if tenants:
        lines = [bundle.describe(), "",
                 f"synthetic inputs: {batch} rows per model (seed {seed})",
                 "", f"{'model':<10} {'backend':<12} {'agreement':>10} "
                     f"{'ms/batch':>10}"]
        footer = ("agreement is relative to each model's first backend; "
                  "one bundle, every substrate.")
    else:
        lines = [artifact.describe(), "",
                 f"synthetic inputs: {inputs.shape} (seed {seed})", "",
                 f"{'backend':<12} {'agreement':>10} {'ms/batch':>10}"]
        footer = ("agreement is relative to the first backend; one "
                  "artifact, every substrate —\nthe deployment contract "
                  "of the saved plan.")
    lines += rows + ["", footer]
    if repeat > 1:
        lines.append(f"ms/batch is the p50 of {repeat} timed repeats "
                     "(repro.metrics.latency_summary).")
    for report in reports:
        lines += ["", report]
    if tenants and placements:
        from repro.rram import ChipFloorplan, ChipPlacer

        placement = ChipPlacer(macro, spares=spares).place(placements)
        lines += ["", "co-resident placement (all tenants on one macro "
                      "pool):", "", placement.report(),
                  "", ChipFloorplan([p for group in placements.values()
                                     for p in group]).macro_report()]
    return "\n".join(lines)


def _cmd_serve(artifact_path: str, backend_spec: str = "packed",
               macro_spec: str = "32x32", host: str = "127.0.0.1",
               port: int = 8373, max_batch: int = 256,
               batch_window_us: float = 200.0, max_queue: int = 1024,
               request_timeout: float = 30.0,
               require_bundle: bool = False) -> int:
    """Run the always-on daemon until SIGTERM/SIGINT, then drain.

    Loads the artifact exactly once, binds it to one backend, and serves
    concurrent HTTP requests through the admission queue + micro-batcher
    onto the noise-free fast-path kernels.  A multi-model bundle
    (``compile --save-bundle``) hosts every model behind the same daemon
    with per-model routing.  Shutdown is graceful: the transport closes,
    every admitted request is served (drain, don't drop), and the
    per-model stats print as the exit report.
    """
    import pathlib
    import signal
    import threading

    from repro.io import load_bundle, load_compiled
    from repro.runtime import PlanSerializationError, available_backends
    from repro.serve import HttpFront, PlanServer

    macro = _parse_macro(macro_spec)
    if not pathlib.Path(artifact_path).exists():
        raise SystemExit(f"no artifact at {artifact_path!r}; write one "
                         "with 'compile --save' first")
    try:
        bundle = load_bundle(artifact_path)
    except ValueError as error:        # malformed or corrupted artifact
        raise SystemExit(str(error))
    if require_bundle and len(bundle) < 2:
        raise SystemExit(
            f"{artifact_path} holds a single plan but --bundle was "
            "given; write a multi-model bundle with 'compile eeg ecg "
            "--mode full_binary --save-bundle ...'")
    if backend_spec not in ("ideal-rram", "sharded") and \
            backend_spec not in available_backends():
        raise SystemExit(
            f"unknown backend {backend_spec!r}; registered: "
            f"{', '.join(available_backends())}")

    plans: dict[str, object] = {}
    shapes: dict[str, tuple] = {}
    for name in bundle.names:
        artifact = bundle[name]
        if not artifact.self_contained:
            raise SystemExit(
                f"{artifact_path}[{name}] is not self-contained; the "
                "daemon has no model to host a front-end — re-save from "
                "a lowered plan ('compile <model> --mode full_binary ...')")
        if artifact.input_shape is None:
            raise SystemExit(f"{artifact_path}[{name}] records no input "
                             "geometry; cannot validate request shapes")
        try:
            plans[name] = load_compiled(
                artifact, backend=_make_backend(backend_spec, macro,
                                                tenant=name))
        except PlanSerializationError as error:
            raise SystemExit(str(error))
        shapes[name] = artifact.input_shape
    try:
        server = PlanServer(plans, max_batch=max_batch,
                            window=batch_window_us * 1e-6,
                            max_queue=max_queue, input_shape=shapes)
    except ValueError as error:        # noisy plan, bad knobs
        raise SystemExit(str(error))
    front = HttpFront(server, host=host, port=port,
                      request_timeout=request_timeout)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    front.start()
    for name, plan in plans.items():
        if len(plans) > 1:
            print(f"[{name}]")
        print(plan.summary())
    backend_names = sorted({p.backend.name for p in plans.values()})
    print(f"\nserving {artifact_path} "
          f"({', '.join(server.models())}) on {front.url} "
          f"(backend {', '.join(backend_names)}, max-batch {max_batch}, "
          f"window {batch_window_us:g} us, queue {max_queue} rows)")
    print("POST /v1/predict | GET /v1/models | GET /v1/stats | "
          "GET /healthz — SIGTERM drains and exits", flush=True)
    stop.wait()
    print("\nshutting down: draining admitted requests ...", flush=True)
    front.shutdown(drain=True)
    print(server.render_stats(), flush=True)
    return 0


def _cmd_train(model_name: str, mode_name: str = "full_binary",
               noise_sigma: float = 0.0, epochs: int | None = None,
               seed: int | None = None, checkpoint: str | None = None,
               save: str | None = None, overwrite: bool = False) -> str:
    """Close the train -> compile -> deploy loop from the command line.

    Runs the named training recipe (optionally with the read-noise
    surrogate in the loop), reports the per-epoch trajectory and the
    best validation accuracy, then optionally writes the checkpoint and
    the compiled plan artifact — from there the trained weights flow
    through ``deploy`` / ``serve`` / ``sweep`` unchanged.
    """
    from repro.experiments import train_demo_model

    if noise_sigma < 0:
        raise SystemExit(f"--noise-sigma must be non-negative, "
                         f"got {noise_sigma}")
    demo = train_demo_model(model_name, mode_name,
                            noise_sigma=noise_sigma, epochs=epochs,
                            seed=seed)
    result = demo.result
    flavour = f"read-noise sigma {noise_sigma:g} in the loop" \
        if noise_sigma > 0 else "clean (no read noise)"
    lines = [f"trained {model_name} [{mode_name}], {flavour}",
             f"  train rows: {len(demo.train_labels)}, "
             f"validation rows: {len(demo.val_labels)}",
             f"  epochs run: {len(result.history)}"
             + (f" (early stop at {result.stopped_epoch})"
                if result.stopped_epoch else ""),
             f"  best validation accuracy: {result.final_accuracy:.1%} "
             "(best epoch restored)"]
    if result.history:
        tail = result.history[-min(5, len(result.history)):]
        series = ", ".join(f"{int(h['epoch'])}:{h['top1']:.3f}"
                           for h in tail)
        lines.append(f"  val top-1 (last epochs): {series}")
    if checkpoint is not None:
        from repro.io import save_model

        try:
            save_model(demo.model, checkpoint, overwrite=overwrite)
        except FileExistsError as error:
            raise SystemExit(f"{error} (or pass --overwrite)")
        lines.append(f"checkpoint -> {checkpoint} (reload with "
                     "repro.io.load_model)")
    if save is not None:
        import pathlib

        from repro.io import load_plan, save_plan
        from repro.runtime import compile as compile_model

        plan = compile_model(demo.model, backend="reference")
        try:
            path = save_plan(plan, save, overwrite=overwrite,
                             allow_external_front_end=True)
        except FileExistsError as error:
            raise SystemExit(f"{error} (or pass --overwrite)")
        artifact = load_plan(path)
        status = "self-contained" if artifact.self_contained else \
            "front-end stays off-artifact (use --mode full_binary " \
            "for a self-contained one)"
        lines += [f"plan artifact -> {path} "
                  f"({pathlib.Path(path).stat().st_size / 1024:.0f} KB, "
                  f"{status})",
                  f"deploy it with: python -m repro deploy {path}"]
    return "\n".join(lines)


def _cmd_sweep(workload: str, jobs: int, out: str | None, trials: int = 1,
               cache_stats: bool = False) -> str:
    """Run a stock sweep workload through the (optionally parallel)
    executor, reporting throughput in points/sec (and trials/sec when the
    points are trial-batched)."""
    import pathlib

    from repro.experiments import RateProgress, Sweep, grid, run_parallel
    from repro.experiments.workloads import SWEEP_WORKLOADS

    spec = SWEEP_WORKLOADS.get(workload)
    if spec is None:
        valid = "\n".join(f"  {name}: {SWEEP_WORKLOADS[name].description}"
                          for name in sorted(SWEEP_WORKLOADS))
        print(f"repro sweep: unknown workload {workload!r}; valid "
              f"workloads:\n{valid}", file=sys.stderr)
        raise SystemExit(2)
    fn = spec.fn
    points = grid(**spec.axes(int(trials)))
    x_axis, metric, split = spec.x_axis, spec.metric, spec.split
    has_trials = bool(points) and "trials" in points[0]

    path = pathlib.Path(out) if out is not None else \
        pathlib.Path("benchmarks/results") / f"sweep_{workload}.jsonl"
    sweep = Sweep(path, fn)
    missing = sum(1 for p in points if not sweep.completed(p))
    progress = RateProgress(missing, trials_per_point=trials) \
        if missing else None
    run_parallel(sweep, points, jobs=jobs, progress=progress)

    lines = [f"{workload} sweep: {len(points)} points x {trials} trial(s) "
             f"({missing} computed, {len(points) - missing} resumed) "
             f"-> {path}"]
    if progress is not None and progress.done:
        throughput = f"throughput: {progress.rate:.2f} points/sec"
        if trials > 1:
            throughput += f" ({progress.trial_rate:.1f} trials/sec)"
        lines.append(f"{throughput} at jobs={jobs}")
    for value in sorted({p[split] for p in points}, key=str):
        # Filter on the trial count too (when the workload has a trial
        # axis), so records from other trial budgets (or pre-trial-axis
        # files) never mix into the series.
        where = {split: value}
        if has_trials:
            where["trials"] = int(trials)
        xs, ys = sweep.series(x_axis, metric, where=where)
        series = ", ".join(f"{x:g}:{y:.4g}" for x, y in zip(xs, ys))
        lines.append(f"  {split}={value}: {metric} by {x_axis}: {series}")
    if cache_stats:
        from repro.experiments import plan_cache_stats
        stats = plan_cache_stats()
        line = (f"plan cache: {stats['hits']} hits, "
                f"{stats['misses']} misses, {stats['size']} resident")
        if jobs > 1:
            line += " (parent process only; workers keep their own caches)"
        lines.append(line)
    return "\n".join(lines)


def _cmd_floorplan(model_name: str, macro_spec: str) -> str:
    from repro.rram import plan_classifier

    macro = _parse_macro(macro_spec)
    # Classifier geometries of the three full-size paper models.
    shapes = {
        "eeg": [(80, 2520), (2, 80)],
        "ecg": [(75, 5152), (2, 75)],
        "mobilenet": [(1024, 1024), (1000, 1024)],
    }[model_name]
    plan = plan_classifier(shapes, macro)
    return plan.report() + "\n\n" + plan.macro_report()


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run one command.

    Returns the process exit code: 0 on success, 1 when no command was
    given (help is printed).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "list":
            print(_cmd_list())
        elif args.command == "info":
            print(_cmd_info(args.id))
        elif args.command == "run":
            print(_cmd_run(args.id, args.jobs))
        elif args.command == "memory":
            from repro.cli import analytic
            print(analytic.run_table4())
        elif args.command == "energy":
            from repro.cli import analytic
            print(analytic.run_energy())
        elif args.command == "compile":
            print(_cmd_compile(args.model, args.backend, args.mode,
                               args.jobs, args.macros, args.save,
                               args.overwrite, args.save_bundle))
        elif args.command == "deploy":
            print(_cmd_deploy(args.artifact, args.backend, args.macros,
                              args.batch, args.seed, args.ecc,
                              args.years, args.temp, args.kill_macro,
                              args.spares, args.repeat))
        elif args.command == "serve":
            return _cmd_serve(args.artifact, args.backend, args.macros,
                              args.host, args.port, args.max_batch,
                              args.batch_window, args.max_queue,
                              args.request_timeout, args.bundle)
        elif args.command == "train":
            print(_cmd_train(args.model, args.mode, args.noise_sigma,
                             args.epochs, args.seed, args.checkpoint,
                             args.save, args.overwrite))
        elif args.command == "sweep":
            print(_cmd_sweep(args.workload, args.jobs, args.out,
                             args.trials, args.cache_stats))
        elif args.command == "floorplan":
            print(_cmd_floorplan(args.model, args.macro))
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early; exit
        # quietly like any well-behaved CLI.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
