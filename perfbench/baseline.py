"""Repeat the benchmark and record its baseline and spread.

    python3 perfbench/baseline.py [--workloads W ...] [--runs 10]
        [--first-seed 1] [--write]

Runs ``run.py`` once per seed on each workload (``run_seconds`` from
``BENCHMARK.json``), then prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread (the
interquartile distance as a share of the median) against the metric's
bound.  One traced run per workload follows.  ``--write`` stores all of
it, with the machine fingerprint, in ``record.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"
sys.path.insert(0, str(HERE))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line, plus its uncalibrated figures as
    ``"uncalibrated"`` (printed by run.py on an earlier line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    marker = f"{workload} uncalibrated "
    for line in lines:
        if line.startswith(marker):
            result["uncalibrated"] = json.loads(line[len(marker):])
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    import timing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"fingerprint": timing.fingerprint(),
              "run_seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + i, seconds, 0)
                for i in range(args.runs)]
        metrics = {}
        for name, bound in bounds.items():
            row = spread([r["metrics"][name]["value"] for r in runs])
            metrics[name] = row
            ok = name == "setup_s" or row["spread"] < bound / 3
            steady &= ok
            print(f"{workload:14s} {name:18s} median {row['median']:12.5g}"
                  f"  q1 {row['q1']:12.5g}  q3 {row['q3']:12.5g}  spread "
                  f"{row['spread']:7.2%}  bound {bound:.0%}"
                  f"{'' if ok else '  <-- above a third of the bound'}",
                  flush=True)
        traced = run_once(workload, args.first_seed, seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": metrics,
            "uncalibrated": [r.get("uncalibrated") for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "traced": {k: v["value"] for k, v in traced["metrics"].items()
                       if v["value"]}}
    if args.write:
        previous = json.loads(RECORD.read_text()) if RECORD.exists() else {}
        record["workloads"] = {**previous.get("workloads", {}),
                               **record["workloads"]}
        previous.update(record)
        RECORD.write_text(json.dumps(previous, indent=1) + "\n")
        print(f"wrote {RECORD}")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
