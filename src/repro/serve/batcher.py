"""Micro-batch coalescing: the pure core of the serving daemon.

The paper's deployment target is a continuous stream of small
classification requests (one EEG/ECG window each) hitting an RRAM chip
whose scan cost is dominated by *dispatch*, not arithmetic — a 256-batch
scan costs barely more than a 1-batch scan.  The daemon therefore
coalesces concurrent requests into one batch per kernel dispatch.  This
module is that coalescing logic and nothing else: no threads, no clocks,
no sockets.  Time enters exclusively through ``now`` parameters, so every
policy decision (admit/reject, flush-now/flush-later, split/carry) is
deterministic and unit-testable.

Policy
------
* **Admission** is bounded: a request whose rows would push the queued
  total past ``max_queue`` is rejected whole (never partially admitted),
  while everything already queued keeps its place — rejection is strictly
  newest-first, the backpressure contract of the HTTP 429 front.
* **Flush** happens when the queue holds ``max_batch`` rows (fill) or the
  oldest waiting request has aged past ``window`` seconds (latency
  bound), whichever comes first.  A flush takes up to ``max_batch`` rows
  in strict FIFO order, splitting a request across flushes when it is
  larger than the batch (each part carries its row offset so the demux
  can reassemble).  A flush is never padded: the packed kernels are
  exact for any N.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BatchSlice", "Flush", "MicroBatcher"]


@dataclass(frozen=True)
class BatchSlice:
    """One request's share of a flushed batch (the demux directions).

    ``rows[row_start:row_stop]`` of the flush belong to request
    ``request_id`` at row ``offset`` of that request; ``final`` marks the
    slice that completes it (always true unless the request was split
    across flushes).
    """

    request_id: int
    row_start: int
    row_stop: int
    offset: int
    final: bool

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start


@dataclass(frozen=True)
class Flush:
    """One coalesced executor dispatch: inputs plus demux directions.

    ``inputs`` is ``(rows,) + sample_shape``; ``slices`` partitions
    those rows among requests in FIFO order; ``oldest_wait`` is how long
    the oldest row had been queued at flush time (the batching-delay
    component of its latency).
    """

    inputs: np.ndarray
    slices: tuple[BatchSlice, ...]
    oldest_wait: float

    @property
    def rows(self) -> int:
        return len(self.inputs)

    @property
    def fill(self) -> int:
        return self.rows


@dataclass
class _Pending:
    request_id: int
    inputs: np.ndarray
    submitted_at: float
    offset: int = field(default=0)     # rows already flushed (splits)

    @property
    def remaining(self) -> int:
        return len(self.inputs) - self.offset


class MicroBatcher:
    """Bounded admission queue + micro-batch coalescing (pure logic).

    Not thread-safe by design: the server serializes access under its own
    condition variable.  All times are caller-supplied monotonic seconds.
    """

    def __init__(self, max_batch: int = 256, window: float = 200e-6,
                 max_queue: int = 1024):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_batch = int(max_batch)
        self.window = float(window)
        self.max_queue = int(max_queue)
        self._pending: deque[_Pending] = deque()
        self._queued_rows = 0

    # -- introspection ---------------------------------------------------
    @property
    def depth(self) -> int:
        """Queued rows awaiting a flush (the backpressure gauge)."""
        return self._queued_rows

    @property
    def n_waiting(self) -> int:
        """Queued requests (a split request counts until fully taken)."""
        return len(self._pending)

    # -- admission -------------------------------------------------------
    def submit(self, request_id: int, inputs: np.ndarray,
               now: float) -> bool:
        """Admit a request (``(rows,) + sample_shape``) or reject it.

        Returns False — rejecting the *new* request, never evicting a
        queued one — when its rows would overflow ``max_queue``.  A
        request larger than ``max_queue`` can therefore never be
        admitted; the server surfaces that as a permanent 413-style
        error rather than a retryable 429.
        """
        inputs = np.asarray(inputs)
        rows = len(inputs)
        if rows == 0:
            raise ValueError("empty request (zero rows)")
        if self._queued_rows + rows > self.max_queue:
            return False
        self._pending.append(_Pending(request_id, inputs, now))
        self._queued_rows += rows
        return True

    # -- flush policy ----------------------------------------------------
    def ready(self, now: float) -> bool:
        """True when a flush should happen *now*: the queue holds a full
        batch, or the oldest request's window has expired (a zero window
        means any queued request flushes immediately)."""
        if not self._pending:
            return False
        if self._queued_rows >= self.max_batch:
            return True
        return now - self._pending[0].submitted_at >= self.window

    def next_deadline(self) -> float | None:
        """When the oldest queued request's window expires (monotonic
        seconds), or None when the queue is empty — the executor's wait
        timeout."""
        if not self._pending:
            return None
        return self._pending[0].submitted_at + self.window

    def flush(self, now: float) -> Flush | None:
        """Take up to ``max_batch`` rows in FIFO order as one dispatch.

        Splits the request at the boundary when it does not fit whole;
        the remainder keeps its queue position (and its submission time,
        so its window keeps aging from the original arrival).  Returns
        None on an empty queue.
        """
        if not self._pending:
            return None
        parts: list[np.ndarray] = []
        slices: list[BatchSlice] = []
        taken = 0
        oldest_wait = now - self._pending[0].submitted_at
        while self._pending and taken < self.max_batch:
            head = self._pending[0]
            take = min(head.remaining, self.max_batch - taken)
            final = take == head.remaining
            parts.append(head.inputs[head.offset:head.offset + take])
            slices.append(BatchSlice(head.request_id, taken, taken + take,
                                     head.offset, final))
            taken += take
            self._queued_rows -= take
            if final:
                self._pending.popleft()
            else:
                head.offset += take
        inputs = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return Flush(inputs=inputs, slices=tuple(slices),
                     oldest_wait=oldest_wait)

    def drain(self, now: float):
        """Flush repeatedly until the queue is empty (shutdown: every
        admitted request is served, none dropped)."""
        while self._pending:
            yield self.flush(now)

    def __repr__(self) -> str:
        return (f"MicroBatcher(max_batch={self.max_batch}, "
                f"window={self.window:g}, max_queue={self.max_queue}, "
                f"depth={self.depth})")
