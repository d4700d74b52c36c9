"""One fresh interpreter running one in-process workload.

    python3 perfbench/worker.py {offline-eval,mc-robustness} --seed N
        --seconds S [--trace-out PATH] [--setup-only]
    python3 perfbench/worker.py mc-robustness --record-expected

The worker imports the program, loads and prepares its plans and warms
them up, then prints a ``READY`` line; the parent times set-up from spawn
to that line.  It then runs the timed phases and prints one
JSON line of results.  ``--setup-only`` exits right after ``READY``.
``--record-expected`` rewrites ``mc_expected.json``, the simulated
statistics the ``mc-robustness`` check compares against; run it only
when a change is meant to alter the simulation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures" / "plans"
MC_EXPECTED = HERE / "mc_expected.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import timing  # noqa: E402  (the benchmark's own helper, not the program)

MODELS = ("eeg", "ecg")

# -- offline-eval ------------------------------------------------------------
# Throughput unit: one batch-256 `scores` call per model (512 windows).
# Latency unit: one single-window `predict` per model, back to back; the
# pair keeps the sample unimodal (EEG and ECG alone differ ~1.3x).
BATCH = 256
SINGLES = 64          # distinct single windows, cycled
CHECK_ROWS = 32       # rows re-run on the reference backend

# -- mc-robustness -----------------------------------------------------------
# Unit: one sense-offset sigma point, i.e. a trial-batched `scores_trials`
# on EEG and ECG, on both noisy backends.  Sigmas span the Fig. 4 range and
# exclude 0, where offsets are skipped and a unit would cost less.
SIGMAS = (0.5, 1.0, 1.5, 2.0, 2.5)
KINDS = ("rram", "sharded")
TRIALS = 2
ROWS = 8
# The statistics check runs on fixed inputs and streams, independent of
# --seed, so its expected values can be recorded once.
CHECK_INPUT_SEED = 1234
CHECK_TRIAL_SEED = 99
CHECK_TRIALS = 4
CHECK_ROWS_MC = 8


class Tally:
    """Operations attempted and failed (wrong output or error)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _import_program() -> float:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import repro.io  # noqa: F401  (repro imports every subpackage)
    return time.perf_counter() - t0


def _ready() -> None:
    """Measure the machine's speed, then signal readiness as ``READY
    <seconds spent measuring> <speed factor>`` so the parent can take the
    measuring out of set-up time and calibrate the rest."""
    t0 = time.perf_counter()
    factor = timing.Speedometer().factor(0.1)
    print(f"READY {time.perf_counter() - t0} {factor}", flush=True)


# ---------------------------------------------------------------------------
# offline-eval
# ---------------------------------------------------------------------------
def offline_setup(seed: int):
    import numpy as np
    from repro.io import load_compiled, load_plan

    artifacts = {m: load_plan(FIXTURES / f"{m}_full_binary.npz")
                 for m in MODELS}
    plans = {m: load_compiled(artifacts[m], backend="packed")
             for m in MODELS}
    # The deploy/client convention: standard-normal windows of the
    # artifact's recorded geometry.
    rng = np.random.default_rng(seed)
    batches = {m: rng.standard_normal((BATCH,) + artifacts[m].input_shape)
               for m in MODELS}
    singles = {m: rng.standard_normal((SINGLES,)
                                      + artifacts[m].input_shape)
               for m in MODELS}
    # Warm-up, which also fixes the expected outputs of every timed call.
    expected = {m: plans[m].scores(batches[m]) for m in MODELS}
    labels = {m: plans[m].scores(singles[m]).argmax(axis=1) for m in MODELS}
    for m in MODELS:
        timing.warm_up(lambda: plans[m].predict(singles[m][:1]), 8)
    return {"artifacts": artifacts, "plans": plans, "batches": batches,
            "singles": singles, "expected": expected, "labels": labels,
            "plan_names": {id(plan): m for m, plan in plans.items()}}


def offline_run(state, seconds: float, tally: Tally, tracer=None) -> dict:
    import numpy as np

    plans, batches = state["plans"], state["batches"]
    expected, singles, labels = (state["expected"], state["singles"],
                                 state["labels"])

    def throughput_unit():
        for m in MODELS:
            tally.check(np.array_equal(plans[m].scores(batches[m]),
                                       expected[m]))

    cursor = [0]

    def latency_unit():
        i = cursor[0] % SINGLES
        for m in MODELS:
            tally.check(int(plans[m].predict(singles[m][i:i + 1])[0])
                        == int(labels[m][i]))
        cursor[0] += 1

    times = timing.time_units(
        {"throughput": _unit_span(tracer, "unit.throughput", throughput_unit),
         "latency": _unit_span(tracer, "unit.latency", latency_unit)},
        seconds)
    single = timing.summarize(times["latency"].calibrated)
    return {"throughput_per_s": timing.rate(times["throughput"].calibrated,
                                            len(MODELS) * BATCH),
            "latency_p50_ms": single["median"] * 1e3,
            "latency_tail_ms": single["tail"] * 1e3,
            "raw": {"throughput_per_s": timing.rate(
                        times["throughput"].raw, len(MODELS) * BATCH),
                    "latency": timing.summarize(times["latency"].raw)},
            "samples": {"latency": single}}


def offline_check(state, tally: Tally) -> None:
    """``packed`` must equal ``reference`` exactly on a sample."""
    import numpy as np
    from repro.io import load_compiled

    for m in MODELS:
        reference = load_compiled(state["artifacts"][m], backend="reference")
        tally.check(np.array_equal(
            reference.scores(state["batches"][m][:CHECK_ROWS]),
            state["expected"][m][:CHECK_ROWS]))
        tally.check(np.array_equal(
            reference.predict(state["singles"][m][:CHECK_ROWS]),
            state["labels"][m][:CHECK_ROWS]))


def offline_layers(table, state) -> dict:
    """Per-op time of each traced plan call, medians per model and batch."""
    import statistics

    groups: dict[str, list[dict]] = {}
    for sid in table.named("runtime.scores"):
        totals = table.total_by_name(sid)
        call = table.duration(sid)
        ops = sum(totals.get(n, 0.0) for n in _OP_SPANS)
        groups.setdefault(table.label(sid), []).append({
            "front_end_ms": totals.get("runtime.front_end", 0.0) * 1e3,
            "bit_layers_ms": totals.get("runtime.bit_layer", 0.0) * 1e3,
            "periphery_ms": totals.get("runtime.periphery", 0.0) * 1e3,
            "output_ms": totals.get("runtime.output", 0.0) * 1e3,
            "dispatch_us": (call - ops) * 1e6,
            "front_end_share": totals.get("runtime.front_end", 0.0) / call})
    layers = {}
    for m in MODELS:
        for batch in (1, BATCH):
            calls = groups.get(f"{m}.b{batch}", [])
            if not calls:
                continue
            keys = ["front_end_ms", "bit_layers_ms", "periphery_ms",
                    "output_ms", "dispatch_us"]
            if batch == BATCH:
                keys.append("front_end_share")
            for key in keys:
                layers[f"runtime.{key}.{m}.b{batch}"] = statistics.median(
                    c[key] for c in calls)
        words, nbytes = packed_geometry(state["plans"][m],
                                        state["singles"][m][:1])
        layers[f"bitops.xnor_words_per_sample.{m}"] = words
        layers[f"bitops.bytes_per_sample.{m}"] = nbytes
    return layers


_OP_SPANS = ("runtime.front_end", "runtime.bit_layer", "runtime.periphery",
             "runtime.output")


def packed_geometry(plan, window) -> tuple[int, int]:
    """XNOR words and packed operand bytes per sample, from plan geometry.

    Every substrate op is one XNOR-popcount of ``rows`` activation rows
    against ``out`` weight rows of ``words`` 64-bit words each, where
    ``rows`` is 1 for a dense layer and the output positions for a conv.
    Bytes count the activation words read per sample plus the weight words
    amortized over a batch of 256.
    """
    import numpy as np

    words_total, bytes_total = 0, 0.0
    x = window
    for op in plan.ops:
        folded = getattr(op, "folded", None)
        if folded is not None:
            weight = np.asarray(folded.weight_bits)
            out, fan_in = weight.shape
            words = -(-fan_in // 64)
            y = op.run(x)
            rows = int(np.prod(y.shape[2:])) if y.ndim > 2 else 1
            words_total += rows * out * words
            bytes_total += 8 * (rows * words + out * words / BATCH)
            x = y
        else:
            x = op.run(x)
    return words_total, int(round(bytes_total))


# ---------------------------------------------------------------------------
# mc-robustness
# ---------------------------------------------------------------------------
def _noisy_backend(kind: str, sigma: float):
    """A noisy backend on the physical read path: ideal devices, so only
    the sense-amplifier offset (the swept sigma) perturbs reads."""
    from repro.rram import AcceleratorConfig, DeviceParameters, SenseParameters
    from repro.runtime import RRAMBackend, ShardedRRAMBackend

    device = DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0,
                              broadening=0.0, hrs_drift=0.0,
                              device_mismatch=1.0)
    config = AcceleratorConfig(device=device,
                               sense=SenseParameters(offset_sigma=sigma))
    if kind == "rram":
        return RRAMBackend(config, fast_path=False)
    return ShardedRRAMBackend(config, fast_path=False)


def sense_ops(plan) -> int:
    """The plan's sense-operation meter, summed over its controllers."""
    return sum(op.executor.controller.sense_ops for op in plan.layer_ops)


def mc_setup(seed: int):
    import numpy as np
    from repro.io import load_compiled, load_plan

    artifacts = {m: load_plan(FIXTURES / f"{m}_full_binary.npz")
                 for m in MODELS}
    plans = {(kind, sigma, m): load_compiled(
        artifacts[m], backend=_noisy_backend(kind, sigma))
        for kind in KINDS for sigma in SIGMAS for m in MODELS}
    packed = {m: load_compiled(artifacts[m], backend="packed")
              for m in MODELS}
    rng = np.random.default_rng(seed)
    inputs = {m: rng.standard_normal((ROWS,) + artifacts[m].input_shape)
              for m in MODELS}
    state = {"artifacts": artifacts, "plans": plans, "packed": packed,
             "inputs": inputs, "seed": seed, "first": {},
             "plan_names": {id(plan): f"{m}.{kind}"
                            for (kind, _, m), plan in plans.items()}}
    sigmas = iter(SIGMAS)         # warm-up: every plan once
    timing.warm_up(lambda: mc_unit(state, next(sigmas), Tally()),
                   len(SIGMAS))
    return state


def mc_unit(state, sigma: float, tally: Tally) -> None:
    """One sigma point; each result must repeat the first one for the
    same plan, inputs and trial seed."""
    import numpy as np

    for kind in KINDS:
        for m in MODELS:
            key = (kind, sigma, m)
            scores = state["plans"][key].scores_trials(
                state["inputs"][m], TRIALS, seed=state["seed"])
            first = state["first"].setdefault(key, scores)
            tally.check(np.array_equal(scores, first))


def mc_run(state, seconds: float, tally: Tally, tracer=None) -> dict:
    cursor = [0]

    def unit():
        sigma = SIGMAS[cursor[0] % len(SIGMAS)]
        cursor[0] += 1
        mc_unit(state, sigma, tally)

    meters = {kind: _kind_sense_ops(state, kind) for kind in KINDS}
    samples = timing.time_units(
        {"mc": _unit_span(tracer, "unit.mc", unit)}, seconds)["mc"]
    per_unit = len(MODELS) * TRIALS * ROWS
    summary = timing.summarize(samples.calibrated)
    sense = {kind: (_kind_sense_ops(state, kind) - meters[kind])
             / (len(samples.raw) * per_unit) for kind in KINDS}
    return {"throughput_per_s": timing.rate(samples.calibrated,
                                            len(KINDS) * per_unit),
            "latency_p50_ms": summary["median"] * 1e3,
            "latency_tail_ms": summary["tail"] * 1e3,
            "raw": {"throughput_per_s": timing.rate(
                        samples.raw, len(KINDS) * per_unit),
                    "unit": timing.summarize(samples.raw)},
            "samples": {"unit": summary},
            "sense_ops_per_trial_sample": sense}


def _kind_sense_ops(state, kind: str) -> int:
    return sum(sense_ops(plan) for (k, _, _), plan in state["plans"].items()
               if k == kind)


def mc_statistics(state) -> dict:
    """Simulated statistics on the fixed check slice: per-sigma agreement
    with the packed plan, a digest of every predicted label, and the
    sense operations each evaluation meters."""
    import numpy as np

    rng = np.random.default_rng(CHECK_INPUT_SEED)
    inputs = {m: rng.standard_normal((CHECK_ROWS_MC,)
                                     + state["artifacts"][m].input_shape)
              for m in MODELS}
    reference = {m: state["packed"][m].predict(inputs[m]) for m in MODELS}
    stats = {}
    for (kind, sigma, m), plan in sorted(state["plans"].items()):
        before = sense_ops(plan)
        labels = plan.predict_trials(inputs[m], CHECK_TRIALS,
                                     seed=CHECK_TRIAL_SEED)
        stats[f"{kind}.{m}.sigma{sigma}"] = {
            "agree": int((labels == reference[m][None]).sum()),
            "of": int(labels.size),
            "labels_sha256": hashlib.sha256(
                np.ascontiguousarray(labels, dtype=np.int64).tobytes())
            .hexdigest(),
            "sense_ops": sense_ops(plan) - before}
    return stats


def mc_check(state, tally: Tally) -> list[str]:
    """Recorded statistics must repeat exactly, and trial-batched
    evaluation must equal serial per-trial evaluation."""
    import numpy as np

    problems = []
    recorded = json.loads(MC_EXPECTED.read_text())["statistics"]
    observed = mc_statistics(state)
    for key, want in recorded.items():
        ok = observed.get(key) == want
        tally.check(ok)
        if not ok:
            problems.append(f"{key}: recorded {want}, got {observed.get(key)}")
    tally.check(set(observed) == set(recorded))
    for kind in KINDS:
        plan = state["plans"][(kind, 1.5, "eeg")]
        x = state["inputs"]["eeg"]
        batched = plan.scores_trials(x, CHECK_TRIALS, seed=CHECK_TRIAL_SEED)
        serial = plan.scores_trials(x, CHECK_TRIALS, seed=CHECK_TRIAL_SEED,
                                    trial_chunk=1)
        ok = np.array_equal(batched, serial)
        tally.check(ok)
        if not ok:
            problems.append(f"{kind}: trial-batched != serial per-trial")
    return problems


def mc_layers(table) -> dict:
    """Per-sigma-point layer times (medians over units), per backend."""
    import statistics

    rows = []
    for unit in table.named("unit.mc"):
        row = {"front_end": table.self_by_name(unit).get(
            "runtime.front_end", 0.0)}
        for kind in KINDS:
            calls = [c for c in table.children[unit]
                     if table.name(c) == "runtime.scores_trials"
                     and table.label(c).endswith("." + kind)]
            total = {"layer": 0.0, "controller": 0.0, "sense": 0.0}
            for call in calls:
                inclusive = table.total_by_name(call)
                own = table.self_by_name(call)
                total["layer"] += inclusive.get("rram.layer_trials", 0.0)
                total["controller"] += own.get("rram.controller", 0.0)
                total["sense"] += own.get("rram.sense_offset", 0.0)
            for key, value in total.items():
                row[f"{key}.{kind}"] = value
        rows.append(row)

    def median_ms(key):
        return statistics.median(r[key] for r in rows) * 1e3

    layers = {"runtime.front_end_ms.mc": median_ms("front_end")}
    for kind in KINDS:
        layers[f"rram.layer_trials_ms.{kind}"] = median_ms(f"layer.{kind}")
        layers[f"rram.controller_ms.{kind}"] = median_ms(
            f"controller.{kind}")
        layers[f"rram.sense_offset_ms.{kind}"] = median_ms(f"sense.{kind}")
    return layers


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def _unit_span(tracer, name: str, unit):
    """``unit`` inside a root span, so each timed call is one traced tree
    (``unit`` itself when untraced)."""
    if tracer is None:
        return unit

    def traced():
        with tracer.span(name):
            unit()
    return traced


def unit_breakdown(table) -> dict:
    """Self time per span name over every timed unit of one kind; the
    parts add up to the units' wall time (the traced run's accounting
    check)."""
    from collections import defaultdict

    out = {}
    for name in ("unit.throughput", "unit.latency", "unit.mc"):
        roots = table.named(name)
        if not roots:
            continue
        wall, parts = 0.0, defaultdict(float)
        for root in roots:
            wall += table.duration(root)
            for part, value in table.self_by_name(root).items():
                parts[part] += value
        out[name] = {"wall_s": wall, "self_s": dict(parts),
                     "accounted": sum(parts.values()) / wall}
    return out


WORKLOADS = {
    "offline-eval": (offline_setup, offline_run, offline_check),
    "mc-robustness": (mc_setup, mc_run, mc_check),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out", default=None,
                        help="trace the run and write the span tape here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    import_s = _import_program()
    tracer, plan_names = None, {}
    if args.trace_out:
        import probes
        from spans import Tracer
        tracer = Tracer()
        probes.install(tracer, plan_names)
    setup, run, check = WORKLOADS[args.workload]
    if args.record_expected:
        if args.workload != "mc-robustness":
            parser.error("--record-expected applies to mc-robustness")
        state = setup(args.seed)
        MC_EXPECTED.write_text(json.dumps(
            {"statistics": mc_statistics(state)}, indent=1,
            sort_keys=True) + "\n")
        print(f"wrote {MC_EXPECTED}")
        return 0
    state = setup(args.seed)
    plan_names.update(state["plan_names"])
    _ready()
    if args.setup_only:
        return 0

    tally = Tally()
    result = run(state, args.seconds, tally, tracer)
    result["peak_rss_mb"] = timing.peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    problems = check(state, tally) or []
    result.update(import_s=import_s, attempted=tally.attempted,
                  failed=tally.failed, problems=problems)
    if tracer is not None:
        table = tracer.table()
        load_ms = sum(table.duration(s) for s in table.outermost(
            ["io.load"])) * 1e3
        layers = {"setup.import_s": import_s, "io.load_ms": load_ms}
        if args.workload == "offline-eval":
            layers.update(offline_layers(table, state))
        else:
            layers.update(mc_layers(table))
            for kind, value in result["sense_ops_per_trial_sample"].items():
                layers[f"rram.sense_ops_per_trial_sample.{kind}"] = value
        result["layers"] = layers
        result["breakdown"] = unit_breakdown(table)
        tracer.write(args.trace_out, workload=args.workload, seed=args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
