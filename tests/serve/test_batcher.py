"""Unit tests for the pure micro-batch coalescing core.

No threads, no clocks: every ``now`` below is a literal, so these pin
the policy itself — admission bounds, flush triggers, FIFO splits,
drain-don't-drop — exactly as the server relies on it.
"""

import numpy as np
import pytest

from repro.serve import BatchSlice, Flush, MicroBatcher


def _req(rows: int, value: float = 1.0) -> np.ndarray:
    return np.full((rows, 3), value)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError, match="window"):
            MicroBatcher(window=-1e-6)
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatcher(max_queue=0)

    def test_starts_empty(self):
        b = MicroBatcher()
        assert b.depth == 0 and b.n_waiting == 0
        assert not b.ready(now=0.0)
        assert b.next_deadline() is None
        assert b.flush(now=0.0) is None


class TestFlushTriggers:
    def test_zero_window_flushes_immediately(self):
        b = MicroBatcher(max_batch=8, window=0.0)
        assert b.submit(0, _req(1), now=5.0)
        assert b.ready(now=5.0)                 # no aging required
        flush = b.flush(now=5.0)
        assert flush.rows == 1 and flush.slices[0].request_id == 0

    def test_window_holds_then_expires(self):
        b = MicroBatcher(max_batch=8, window=1.0)
        b.submit(0, _req(1), now=10.0)
        assert not b.ready(now=10.5)            # still coalescing
        assert b.ready(now=11.0)                # oldest aged past window
        assert b.next_deadline() == pytest.approx(11.0)

    def test_full_batch_overrides_window(self):
        b = MicroBatcher(max_batch=4, window=1e9)
        for i in range(4):
            b.submit(i, _req(1), now=0.0)
        assert b.ready(now=0.0)

    def test_deadline_tracks_oldest_request(self):
        b = MicroBatcher(max_batch=8, window=1.0)
        b.submit(0, _req(1), now=3.0)
        b.submit(1, _req(1), now=7.0)
        assert b.next_deadline() == pytest.approx(4.0)


class TestFlushContents:
    def test_fifo_order_and_partition(self):
        b = MicroBatcher(max_batch=8, window=0.0)
        b.submit(0, _req(2, value=0.0), now=0.0)
        b.submit(1, _req(3, value=1.0), now=0.0)
        flush = b.flush(now=0.0)
        assert isinstance(flush, Flush)
        assert flush.rows == 5 and flush.fill == 5
        assert [s.request_id for s in flush.slices] == [0, 1]
        first, second = flush.slices
        assert (first.row_start, first.row_stop) == (0, 2)
        assert (second.row_start, second.row_stop) == (2, 5)
        assert all(s.final and s.offset == 0 for s in flush.slices)
        assert np.array_equal(flush.inputs[:2], _req(2, value=0.0))
        assert np.array_equal(flush.inputs[2:], _req(3, value=1.0))
        assert b.depth == 0 and b.n_waiting == 0

    def test_oldest_wait_is_head_request_age(self):
        b = MicroBatcher(max_batch=8, window=0.0)
        b.submit(0, _req(1), now=2.0)
        b.submit(1, _req(1), now=5.0)
        assert b.flush(now=6.0).oldest_wait == pytest.approx(4.0)

    def test_slice_rows_property(self):
        s = BatchSlice(request_id=0, row_start=2, row_stop=7,
                       offset=0, final=True)
        assert s.rows == 5


class TestOversizeSplit:
    def test_request_larger_than_batch_splits_across_flushes(self):
        b = MicroBatcher(max_batch=4, window=0.0, max_queue=64)
        rows = np.arange(10, dtype=np.float64)[:, None]
        b.submit(7, rows, now=0.0)

        first = b.flush(now=0.0)
        assert first.rows == 4
        (s,) = first.slices
        assert (s.offset, s.final) == (0, False)
        assert np.array_equal(first.inputs, rows[:4])
        assert b.depth == 6 and b.n_waiting == 1

        second = b.flush(now=0.0)
        (s,) = second.slices
        assert (s.offset, s.final) == (4, False)
        assert np.array_equal(second.inputs, rows[4:8])

        third = b.flush(now=0.0)
        (s,) = third.slices
        assert (s.offset, s.final, third.rows) == (8, True, 2)
        assert np.array_equal(third.inputs, rows[8:])
        assert b.depth == 0 and b.n_waiting == 0

    def test_split_remainder_keeps_submission_time(self):
        # The tail of a split request keeps aging from the ORIGINAL
        # arrival — its window must not reset at each flush.
        b = MicroBatcher(max_batch=2, window=1.0, max_queue=64)
        b.submit(0, _req(5), now=10.0)
        b.flush(now=11.0)
        assert b.next_deadline() == pytest.approx(11.0)
        assert b.ready(now=11.0)

    def test_split_head_shares_flush_with_followers(self):
        b = MicroBatcher(max_batch=4, window=0.0, max_queue=64)
        b.submit(0, _req(6), now=0.0)
        b.submit(1, _req(2), now=0.0)
        b.flush(now=0.0)                         # rows 0:4 of request 0
        flush = b.flush(now=0.0)                 # tail of 0 + all of 1
        assert [(s.request_id, s.rows, s.final) for s in flush.slices] \
            == [(0, 2, True), (1, 2, True)]


class TestAdmission:
    def test_rejection_is_newest_first(self):
        b = MicroBatcher(max_batch=4, window=1e9, max_queue=8)
        assert b.submit(0, _req(6), now=0.0)
        assert not b.submit(1, _req(3), now=0.0)   # would overflow: bounce
        assert b.depth == 6                        # queued rows untouched
        assert b.submit(2, _req(2), now=0.0)       # exact fit still admits
        assert b.depth == 8

    def test_whole_request_rejected_never_partially_admitted(self):
        b = MicroBatcher(max_batch=4, window=1e9, max_queue=4)
        assert not b.submit(0, _req(5), now=0.0)
        assert b.depth == 0 and b.n_waiting == 0

    def test_empty_request_raises(self):
        with pytest.raises(ValueError, match="zero rows"):
            MicroBatcher().submit(0, _req(0), now=0.0)


class TestDrainAndPad:
    def test_drain_serves_everything(self):
        b = MicroBatcher(max_batch=4, window=1e9, max_queue=64)
        for i in range(3):
            b.submit(i, _req(3), now=0.0)
        flushes = list(b.drain(now=0.0))
        assert sum(f.rows for f in flushes) == 9
        served = [s.request_id for f in flushes for s in f.slices
                  if s.final]
        assert sorted(served) == [0, 1, 2]
        assert b.depth == 0 and b.flush(now=0.0) is None

    def test_no_pad_keeps_exact_rows(self):
        b = MicroBatcher(max_batch=4, window=0.0)
        b.submit(0, _req(2), now=0.0)
        assert b.flush(now=0.0).inputs.shape == (2, 3)
