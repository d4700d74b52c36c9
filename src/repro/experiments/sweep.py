"""Parameter sweeps with persisted, resumable results.

The paper's evaluation is built from sweeps — filter augmentation (Fig. 7),
programming cycles (Fig. 4), training epochs (Fig. 8) — and each point can
cost minutes of training.  :class:`Sweep` runs a function over a parameter
grid, persists every completed point as it lands, and skips
already-computed points on re-run, so an interrupted study resumes instead
of restarting.

Results are stored as JSON Lines — one ``{"params": ..., "metrics": ...}``
object per line — so completing a point is a single O(1) append instead of
a rewrite of the whole result set, and the file can be post-processed with
any JSON tooling (or plain ``grep``) without this library.  Any other
layout (a single JSON array included) is refused on load.

For multi-process execution of a grid see
:mod:`repro.experiments.executor`, which dispatches missing points to a
worker pool while this class keeps sole ownership of persistence.
"""

from __future__ import annotations

import json
import pathlib
from itertools import product
from typing import Callable, Iterator, Mapping

__all__ = ["Sweep", "grid"]


def grid(**axes) -> list[dict]:
    """Cartesian product of named axes as a list of parameter dicts.

    ``grid(mult=(1, 2, 4), mode=("real", "bnn"))`` yields six points in
    row-major order (last axis fastest).
    """
    if not axes:
        raise ValueError("grid needs at least one axis")
    names = list(axes)
    for name, values in axes.items():
        values = list(values)
        if not values:
            raise ValueError(f"axis {name!r} is empty")
        axes[name] = values
    return [dict(zip(names, combo))
            for combo in product(*(axes[n] for n in names))]


def _point_key(params: Mapping) -> str:
    """Stable identity of a parameter point (order-independent)."""
    return json.dumps(params, sort_keys=True, default=str)


def _record_line(record: Mapping) -> str:
    """Canonical one-line serialization of a record.

    Compact separators and caller-side key order: two runs that complete
    the same points in the same order produce byte-identical files, which
    is what the parallel-vs-serial equality contract checks.
    """
    return json.dumps(record, separators=(",", ":"), default=str)


class Sweep:
    """Run ``fn(**params) -> dict[str, float]`` over a list of points.

    Completed points persist to ``path`` immediately; constructing a Sweep
    over an existing file resumes it.  ``fn`` must be deterministic in its
    parameters (seed through a ``seed`` parameter, as the harnesses do) for
    resume to be meaningful.
    """

    def __init__(self, path, fn: Callable[..., Mapping[str, float]]):
        self.path = pathlib.Path(path)
        self.fn = fn
        self._results: dict[str, dict] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        text = self.path.read_text()
        lines = [(i, line) for i, line in
                 enumerate(text.splitlines(), start=1) if line.strip()]
        for position, (lineno, line) in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    # A torn final line is what a kill/power-loss during
                    # an append leaves behind.  The completed prefix is
                    # intact: drop the partial record (it re-runs on
                    # resume) and heal the file so later appends don't
                    # land on top of the fragment.
                    import warnings
                    warnings.warn(
                        f"{self.path}:{lineno}: dropping partially "
                        "written final record (interrupted append)")
                    self._rewrite()
                    return
                raise ValueError(
                    f"{self.path}:{lineno} is not a sweep record") from None
            if not isinstance(record, dict) or "params" not in record:
                raise ValueError(f"{self.path} is not a sweep result file")
            self._results[_point_key(record["params"])] = record

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def completed(self, params: Mapping) -> bool:
        return _point_key(params) in self._results

    def result(self, params: Mapping) -> dict[str, float]:
        """Metrics of a completed point; KeyError if not yet run."""
        return dict(self._results[_point_key(params)]["metrics"])

    def records(self) -> list[dict]:
        """All completed records (params + metrics), insertion-ordered."""
        return [dict(r) for r in self._results.values()]

    # ------------------------------------------------------------------
    def _rewrite(self) -> None:
        """Full rewrite (healing a torn final line only — the hot path
        appends).

        Atomic: the healed file lands in a sibling temp file and replaces
        the original in one rename, so a crash mid-rewrite cannot destroy
        previously persisted results.
        """
        import os
        tmp = self.path.with_name(self.path.name + ".healing")
        tmp.write_text(
            "".join(_record_line(r) + "\n" for r in self._results.values()))
        os.replace(tmp, self.path)

    def _append(self, record: Mapping) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as stream:
            stream.write(_record_line(record) + "\n")

    @staticmethod
    def _validated_metrics(metrics: Mapping) -> dict[str, float]:
        bad = {k: v for k, v in metrics.items()
               if not isinstance(v, (int, float))}
        if bad:
            raise TypeError(f"sweep metrics must be numeric, got {bad}")
        return {k: float(v) for k, v in metrics.items()}

    def record_point(self, params: Mapping, metrics: Mapping) -> dict:
        """Persist one externally-computed point (the executor's hook).

        Validates the metrics, stores the record, and appends it to the
        result file.  Returns the stored record.
        """
        record = {"params": dict(params),
                  "metrics": self._validated_metrics(metrics)}
        self._results[_point_key(params)] = record
        self._append(record)
        return record

    def run(self, points: list[Mapping],
            progress: Callable[[str], None] | None = None
            ) -> Iterator[dict]:
        """Execute missing points, yielding every record (old and new).

        Each computed point is appended to the result file before the next
        one starts, so a crash loses at most the point in flight.
        """
        for params in points:
            key = _point_key(params)
            if key not in self._results:
                self.record_point(params, self.fn(**params))
                if progress is not None:
                    progress(f"completed {key}")
            yield dict(self._results[key])

    def run_all(self, points: list[Mapping],
                progress: Callable[[str], None] | None = None
                ) -> list[dict]:
        """Eager form of :meth:`run`."""
        return list(self.run(points, progress))

    def run_parallel(self, points: list[Mapping], jobs: int | None = None,
                     progress: Callable[[str], None] | None = None
                     ) -> list[dict]:
        """Execute missing points on a process pool; see
        :func:`repro.experiments.executor.run_parallel`."""
        from repro.experiments.executor import run_parallel
        return run_parallel(self, points, jobs=jobs, progress=progress)

    def series(self, x_axis: str, metric: str,
               where: Mapping | None = None
               ) -> tuple[list, list[float]]:
        """Extract ``(xs, ys)`` for plotting: one metric against one
        parameter, optionally filtered by fixed values of other params."""
        where = dict(where or {})
        xs, ys = [], []
        for record in self._results.values():
            params = record["params"]
            if x_axis not in params or metric not in record["metrics"]:
                continue
            if any(params.get(k) != v for k, v in where.items()):
                continue
            xs.append(params[x_axis])
            ys.append(record["metrics"][metric])
        order = sorted(range(len(xs)), key=lambda i: xs[i])
        return [xs[i] for i in order], [ys[i] for i in order]
