"""Tests for the resumable parameter sweep (repro.experiments.sweep)."""

import json

import pytest

from repro.experiments import Sweep, grid


class TestGrid:
    def test_cartesian_product(self):
        points = grid(a=(1, 2), b=("x", "y", "z"))
        assert len(points) == 6
        assert {"a": 1, "b": "x"} in points
        assert {"a": 2, "b": "z"} in points

    def test_row_major_order(self):
        points = grid(a=(1, 2), b=(10, 20))
        assert points[0] == {"a": 1, "b": 10}
        assert points[1] == {"a": 1, "b": 20}

    def test_single_axis(self):
        assert grid(mult=(1, 2, 4)) == [{"mult": 1}, {"mult": 2},
                                        {"mult": 4}]

    def test_empty_axis_raises(self):
        with pytest.raises(ValueError, match="empty"):
            grid(a=())

    def test_no_axes_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            grid()


class TestSweep:
    @staticmethod
    def square(x, offset=0):
        return {"y": x * x + offset}

    def test_runs_all_points(self, tmp_path):
        sweep = Sweep(tmp_path / "s.json", self.square)
        records = sweep.run_all(grid(x=(1, 2, 3)))
        assert [r["metrics"]["y"] for r in records] == [1.0, 4.0, 9.0]
        assert len(sweep) == 3

    def test_persists_incrementally(self, tmp_path):
        path = tmp_path / "s.json"
        sweep = Sweep(path, self.square)
        iterator = sweep.run(grid(x=(1, 2)))
        next(iterator)
        # First point already on disk (one JSONL record) before the
        # second is computed.
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["metrics"] == {"y": 1.0}

    def test_resume_skips_completed(self, tmp_path):
        path = tmp_path / "s.json"
        calls = []

        def fn(x):
            calls.append(x)
            return {"y": float(x)}

        Sweep(path, fn).run_all(grid(x=(1, 2)))
        assert calls == [1, 2]
        # New Sweep over the same file: only the new point runs.
        Sweep(path, fn).run_all(grid(x=(1, 2, 3)))
        assert calls == [1, 2, 3]

    def test_crash_recovery_loses_only_in_flight_point(self, tmp_path):
        path = tmp_path / "s.json"

        def fragile(x):
            if x == 3:
                raise RuntimeError("boom")
            return {"y": float(x)}

        sweep = Sweep(path, fragile)
        with pytest.raises(RuntimeError):
            sweep.run_all(grid(x=(1, 2, 3)))
        resumed = Sweep(path, self.square)
        assert len(resumed) == 2
        assert resumed.completed({"x": 1})
        assert not resumed.completed({"x": 3})

    def test_point_identity_is_order_independent(self, tmp_path):
        sweep = Sweep(tmp_path / "s.json",
                      lambda a, b: {"y": float(a + b)})
        sweep.run_all([{"a": 1, "b": 2}])
        assert sweep.completed({"b": 2, "a": 1})

    def test_result_lookup(self, tmp_path):
        sweep = Sweep(tmp_path / "s.json", self.square)
        sweep.run_all(grid(x=(4,)))
        assert sweep.result({"x": 4}) == {"y": 16.0}
        with pytest.raises(KeyError):
            sweep.result({"x": 99})

    def test_non_numeric_metrics_rejected(self, tmp_path):
        sweep = Sweep(tmp_path / "s.json", lambda x: {"y": "nope"})
        with pytest.raises(TypeError, match="numeric"):
            sweep.run_all(grid(x=(1,)))

    def test_series_extraction(self, tmp_path):
        sweep = Sweep(tmp_path / "s.json",
                      lambda x, mode: {"acc": x * (2 if mode == "b" else 1)})
        sweep.run_all(grid(x=(3, 1, 2), mode=("a", "b")))
        xs, ys = sweep.series("x", "acc", where={"mode": "b"})
        assert xs == [1, 2, 3]          # sorted by x
        assert ys == [2.0, 4.0, 6.0]

    def test_progress_callback_fires_per_completed_point(self, tmp_path):
        messages = []
        sweep = Sweep(tmp_path / "s.json", self.square)
        sweep.run_all(grid(x=(1,)), progress=messages.append)
        assert len(messages) == 1 and "completed" in messages[0]
        # Resumed points do not re-fire progress (nothing was computed).
        sweep.run_all(grid(x=(1,)), progress=messages.append)
        assert len(messages) == 1

    def test_rejects_non_sweep_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError, match="not a sweep"):
            Sweep(path, self.square)


class TestJsonlStore:
    """Append-only persistence and legacy-file migration."""

    @staticmethod
    def square(x):
        return {"y": float(x * x)}

    def test_completed_points_append_not_rewrite(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sweep = Sweep(path, self.square)
        sweep.run_all(grid(x=(1, 2)))
        first_two = path.read_text()
        sweep.run_all(grid(x=(1, 2, 3)))
        # The earlier bytes are untouched; the new point is an append.
        assert path.read_text().startswith(first_two)
        assert len(path.read_text().splitlines()) == 3

    @pytest.mark.parametrize("indent", [1, None])
    def test_json_array_file_refused_untouched(self, tmp_path, indent):
        # JSON Lines is the only layout: an array file (indented or on one
        # line) is refused, and the refusal never rewrites the file.
        path = tmp_path / "array.json"
        records = [{"params": {"x": 1}, "metrics": {"y": 1.0}},
                   {"params": {"x": 2}, "metrics": {"y": 4.0}}]
        path.write_text(json.dumps(records, indent=indent))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="is not a sweep"):
            Sweep(path, self.square)
        assert path.read_bytes() == before

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        Sweep(path, self.square).run_all(grid(x=(1,)))
        path.write_text(path.read_text() + "\n")
        assert len(Sweep(path, self.square)) == 1

    def test_torn_final_line_drops_and_resumes(self, tmp_path):
        # A kill mid-append leaves a partial final record; loading must
        # keep the completed prefix, heal the file, and resume.
        path = tmp_path / "s.jsonl"
        Sweep(path, self.square).run_all(grid(x=(1, 2)))
        path.write_text(path.read_text() + '{"params": {"x": 3}, "met')
        with pytest.warns(UserWarning, match="partially written"):
            sweep = Sweep(path, self.square)
        assert len(sweep) == 2 and not sweep.completed({"x": 3})
        sweep.run_all(grid(x=(1, 2, 3)))
        records = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert [r["params"]["x"] for r in records] == [1, 2, 3]

    def test_torn_line_mid_file_still_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        Sweep(path, self.square).run_all(grid(x=(1, 2)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0][:20], lines[1]]) + "\n")
        with pytest.raises(ValueError, match="not a sweep record"):
            Sweep(path, self.square)
