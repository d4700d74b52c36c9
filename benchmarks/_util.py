"""Shared benchmark reporting and record validation.

Each harness prints the paper-table/figure it regenerates and also writes it
to ``benchmarks/results/<name>.txt`` so the output survives pytest's capture
(run with ``-s`` to see it live).

Headline benchmarks additionally persist a machine-readable record at the
repo root (``BENCH_<name>.json``).  The records are heterogeneous by
design — each benchmark owns its shape — but every one must satisfy the
structural contract checked here: strict JSON (no NaN/Infinity leaves,
which Python's ``json`` happily emits and every other parser rejects), a
non-empty top-level object, snake_case string keys, and at least one
numeric metric.  ``python benchmarks/_util.py`` validates every committed
record (the CI step).
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
import time

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# Identifier-ish keys: cell topologies like "1T1R" are fine, anything
# with whitespace or punctuation soup is a serialization accident.
_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.+x-]*$")


def report(name: str, text: str) -> None:
    """Print a harness result and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def time_ms(call, repeats: int) -> dict:
    """Median and interquartile range, in ms, of ``repeats`` timed calls
    after one warm-up call."""
    call()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        samples.append((time.perf_counter() - t0) * 1e3)
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_ms": round(float(median), 3),
            "iqr_ms": round(float(q3 - q1), 3)}


def validate_bench_record(path: pathlib.Path) -> list[str]:
    """Structural problems of one ``BENCH_*.json`` record (empty = OK)."""
    problems: list[str] = []
    try:
        # parse_constant fires on NaN/Infinity/-Infinity — the tokens
        # json.dump writes for non-finite floats but strict JSON forbids.
        record = json.loads(path.read_text(), parse_constant=lambda t: (
            problems.append(f"non-finite number {t!r} in the record")))
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable record: {error}"]
    if problems:
        return sorted(set(problems))
    if not isinstance(record, dict):
        return [f"top level must be a JSON object, got "
                f"{type(record).__name__}"]
    if not record:
        return ["record is empty"]

    numeric_leaves = 0

    def walk(node, trail: str) -> None:
        nonlocal numeric_leaves
        if isinstance(node, dict):
            for key, value in node.items():
                if not isinstance(key, str) or not _KEY_RE.match(key):
                    problems.append(f"bad key {key!r} at {trail or '.'}")
                walk(value, f"{trail}.{key}" if trail else str(key))
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, f"{trail}[{index}]")
        elif isinstance(node, bool):
            pass
        elif isinstance(node, (int, float)):
            numeric_leaves += 1

    walk(record, "")
    if not numeric_leaves:
        problems.append("no numeric metric anywhere in the record")
    return problems


def check_bench_records(root: pathlib.Path | None = None) -> int:
    """Validate every ``BENCH_*.json`` at the repo root; returns the
    number of bad records (and prints each problem)."""
    root = root or REPO_ROOT
    records = sorted(root.glob("BENCH_*.json"))
    if not records:
        print(f"no BENCH_*.json records under {root}")
        return 1
    bad = 0
    for path in records:
        problems = validate_bench_record(path)
        if problems:
            bad += 1
            for problem in problems:
                print(f"{path.name}: {problem}")
        else:
            print(f"{path.name}: OK")
    return bad


if __name__ == "__main__":
    sys.exit(1 if check_bench_records() else 0)
