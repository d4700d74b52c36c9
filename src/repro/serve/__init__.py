"""Always-on inference serving: compiled plans behind a micro-batching
daemon.

The offline entry points (``repro deploy``, the examples) pay artifact
load + kernel dispatch per call; this package keeps one or more
:class:`~repro.runtime.CompiledModel` instances resident and coalesces
concurrent requests into batched dispatches onto the noise-free
packed kernels — the throughput lever the hot-path benchmarks
point at (a 256-batch scan costs barely more than a 1-batch scan).
Multi-model bundles serve behind one daemon with per-model routing
(``model=`` / ``POST /v1/predict {"model": ...}``), per-model stats and
cross-tenant flush coalescing in the single executor.

Layers: :mod:`repro.serve.batcher` (pure admission + coalescing policy),
:mod:`repro.serve.server` (execution core + HTTP transport + lifecycle),
:mod:`repro.serve.stats` (per-model counters with shared latency
percentiles), :mod:`repro.serve.client` (keep-alive client + concurrent
load generator).  ``python -m repro serve <artifact.npz>`` is the CLI
front door.
"""

from repro.serve.batcher import BatchSlice, Flush, MicroBatcher
from repro.serve.server import (HttpFront, PlanServer, QueueFull,
                                ServeRequest, ServerClosed, UnknownModel)
from repro.serve.stats import ServeStats, render_tenant_table

__all__ = [
    "BatchSlice",
    "Flush",
    "MicroBatcher",
    "PlanServer",
    "HttpFront",
    "ServeRequest",
    "QueueFull",
    "ServerClosed",
    "UnknownModel",
    "ServeStats",
    "render_tenant_table",
    "ServeClient",
    "ServeHTTPError",
    "fire",
]


def __getattr__(name: str):
    # The client resolves on first use: imported eagerly here, it would be
    # half-imported already when ``python -m repro.serve.client`` runs it.
    if name in ("ServeClient", "ServeHTTPError", "fire"):
        from repro.serve import client
        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
