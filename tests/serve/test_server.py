"""The serving daemon's execution core and HTTP front.

Deterministic scheduling tricks keep these thread-exercising tests
flake-free: a very long window plus ``max_batch`` fill forces exact
coalescing; a long window with no fill keeps requests queued until a
drain; ``window=0`` serves each submission immediately.
"""

import json
import pathlib
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (HttpFront, PlanServer, QueueFull, ServeClient,
                         ServeHTTPError, ServerClosed, fire)

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "plans"
LONG = 1e9                       # a window that never expires in-test


class _SumPlan:
    """Deterministic toy plan: scores = (row_sum, -row_sum) per row.

    Demuxable by construction — each output row depends only on its
    input row — so any batching must reproduce solo evaluation exactly.
    """

    def scores(self, inputs):
        rows = np.asarray(inputs, dtype=np.float64)
        totals = rows.reshape(len(rows), -1).sum(axis=1)
        return np.stack([totals, -totals], axis=1)


class _ExplodingPlan:
    def scores(self, inputs):
        raise RuntimeError("kernel exploded")


class _PoisonedPlan(_SumPlan):
    """``_SumPlan`` that raises on any batch holding a row of ``POISON``
    (a fault in one request's data), and logs each batch's size."""

    POISON = -7.0

    def __init__(self):
        self.batches = []

    def scores(self, inputs):
        rows = np.asarray(inputs, dtype=np.float64)
        self.batches.append(len(rows))
        if (rows.reshape(len(rows), -1) == self.POISON).all(axis=1).any():
            raise RuntimeError("poisoned row")
        return super().scores(rows)


def _server(**kwargs) -> PlanServer:
    kwargs.setdefault("dtype", np.float64)
    kwargs.setdefault("input_shape", (3,))
    return PlanServer(_SumPlan(), **kwargs)


@pytest.fixture(scope="module")
def eeg_plan():
    from repro.io import load_compiled, load_plan
    artifact = load_plan(FIXTURES / "eeg_full_binary.npz")
    return artifact, load_compiled(artifact, backend="packed")


class TestSubmitAndDemux:
    def test_single_request_bit_identical_to_solo(self):
        server = _server(window=0.0)
        request = np.arange(6, dtype=np.float64).reshape(2, 3)
        handle = server.submit(request)
        assert handle.wait(10.0)
        assert np.array_equal(handle.scores, _SumPlan().scores(request))
        assert np.array_equal(handle.labels,
                              handle.scores.argmax(axis=1))
        assert handle.latency is not None and handle.latency >= 0.0
        server.close()

    def test_bare_sample_is_wrapped_to_one_row(self):
        server = _server(window=0.0)
        handle = server.submit(np.ones(3))
        assert handle.wait(10.0)
        assert handle.scores.shape == (1, 2)
        server.close()

    def test_coalesced_batch_demuxes_per_request(self):
        # Fill-triggered: 8 single-row requests, window never expires,
        # so the executor flushes exactly one 8-row batch.
        server = _server(max_batch=8, window=LONG)
        requests = [np.full((1, 3), float(i)) for i in range(8)]
        handles = [server.submit(r) for r in requests]
        for request, handle in zip(requests, handles):
            assert handle.wait(10.0)
            assert np.array_equal(handle.scores,
                                  _SumPlan().scores(request))
        assert server.stats.snapshot()["batches"] == 1
        assert server.stats.snapshot()["mean_fill"] == pytest.approx(8.0)
        server.close()

    def test_request_split_across_flushes_reassembles(self):
        server = _server(max_batch=4, window=0.0, max_queue=64)
        request = np.arange(30, dtype=np.float64).reshape(10, 3)
        handle = server.submit(request)
        assert handle.wait(10.0)
        assert np.array_equal(handle.scores, _SumPlan().scores(request))
        server.close()

    def test_shape_mismatch_raises(self):
        server = _server(window=0.0)
        with pytest.raises(ValueError, match="request shape"):
            server.submit(np.ones((2, 5)))
        server.close()

    def test_executor_failure_delivered_not_fatal(self):
        server = PlanServer(_ExplodingPlan(), window=0.0,
                            dtype=np.float64, input_shape=(3,))
        handle = server.submit(np.ones((1, 3)))
        assert handle.wait(10.0)
        assert isinstance(handle.error, RuntimeError)
        with pytest.raises(RuntimeError, match="not completed"):
            handle.labels
        # The executor survives a failed flush and keeps serving.
        follow_up = server.submit(np.ones((1, 3)))
        assert follow_up.wait(10.0) and follow_up.error is not None
        server.close()


class TestBackpressure:
    def test_full_queue_rejects_newest_with_retryable_error(self):
        server = _server(max_batch=64, window=LONG, max_queue=4)
        handles = [server.submit(np.ones((1, 3))) for _ in range(4)]
        with pytest.raises(QueueFull) as info:
            server.submit(np.ones((1, 3)))
        assert not info.value.permanent
        assert server.stats.snapshot()["rejected"] == 1
        server.close(drain=True)               # queued 4 still served
        assert all(h.done and h.error is None for h in handles)

    def test_oversized_request_is_permanent(self):
        server = _server(max_batch=64, window=LONG, max_queue=4)
        with pytest.raises(QueueFull) as info:
            server.submit(np.ones((5, 3)))
        assert info.value.permanent
        server.close()


class TestLifecycle:
    def test_drain_serves_everything_queued(self):
        server = _server(max_batch=256, window=LONG)
        requests = [np.full((2, 3), float(i)) for i in range(5)]
        handles = [server.submit(r) for r in requests]
        server.close(drain=True)
        for request, handle in zip(requests, handles):
            assert handle.done and handle.error is None
            assert np.array_equal(handle.scores,
                                  _SumPlan().scores(request))

    def test_drop_fails_queued_requests(self):
        server = _server(max_batch=256, window=LONG)
        handle = server.submit(np.ones((1, 3)))
        server.close(drain=False)
        assert handle.done
        assert isinstance(handle.error, ServerClosed)

    def test_draining_server_refuses_new_requests(self):
        server = _server(window=0.0)
        server.close(drain=True)
        assert server.draining
        with pytest.raises(ServerClosed):
            server.submit(np.ones((1, 3)))

    def test_close_is_idempotent(self):
        server = _server(window=0.0)
        server.close()
        server.close()


class TestNoisyPlanRefused:
    def test_off_fast_path_controller_rejected(self, eeg_plan):
        from repro.io import load_compiled
        from repro.rram import AcceleratorConfig
        from repro.runtime import RRAMBackend

        artifact, _ = eeg_plan
        # Default config = real device variability = off the fast path.
        noisy = load_compiled(artifact,
                              backend=RRAMBackend(AcceleratorConfig()))
        with pytest.raises(ValueError, match="noisy plan"):
            PlanServer(noisy)


class TestFixturePlan:
    def test_served_scores_bit_identical_to_offline(self, eeg_plan):
        artifact, plan = eeg_plan
        rng = np.random.default_rng(0)
        requests = [rng.integers(0, 2, (1,) + artifact.input_shape)
                    .astype(np.uint8) for _ in range(24)]
        server = PlanServer(plan, max_batch=8, window=200e-6,
                            input_shape=artifact.input_shape)
        handles = [server.submit(r) for r in requests]
        for request, handle in zip(requests, handles):
            assert handle.wait(30.0)
            assert np.array_equal(handle.scores, plan.scores(request))
        server.close()

    @pytest.mark.parametrize("backend", ["rram", "sharded"])
    def test_noise_free_in_memory_plans_serve_like_packed(self, eeg_plan,
                                                         backend):
        """Noise-free rram and sharded plans run the packed executors
        over their chips' effective bits, so the daemon serves them and
        answers byte for byte like the packed plan."""
        from repro.io import load_compiled
        from repro.rram import AcceleratorConfig
        from repro.runtime import RRAMBackend, ShardedRRAMBackend

        artifact, packed = eeg_plan
        build = {"rram": RRAMBackend, "sharded": ShardedRRAMBackend}[backend]
        plan = load_compiled(artifact,
                             backend=build(AcceleratorConfig(ideal=True)))
        rng = np.random.default_rng(2)
        requests = [rng.integers(0, 2, (1,) + artifact.input_shape)
                    .astype(np.uint8) for _ in range(12)]
        server = PlanServer(plan, max_batch=4, window=200e-6,
                            input_shape=artifact.input_shape)
        handles = [server.submit(r) for r in requests]
        for request, handle in zip(requests, handles):
            assert handle.wait(30.0)
            expected = packed.scores(request)
            assert handle.scores.dtype == expected.dtype
            assert handle.scores.tobytes() == expected.tobytes()
        server.close()

    def test_dtype_defaults_follow_front_op(self, eeg_plan):
        # Float front (the eeg fixture's conv2d front) -> float64;
        # a raw bits front -> uint8, so admission canonicalization
        # matches what offline predict would have seen.
        from types import SimpleNamespace

        _, plan = eeg_plan
        server = PlanServer(plan)
        assert server.dtype == np.dtype(np.float64)
        server.close()

        bits_plan = _SumPlan()
        bits_plan.ops = [SimpleNamespace(spec={"op": "bits"})]
        server = PlanServer(bits_plan, input_shape=(3,))
        assert server.dtype == np.dtype(np.uint8)
        server.close()


class TestHttpFront:
    def test_end_to_end_over_sockets(self, eeg_plan):
        artifact, plan = eeg_plan
        server = PlanServer(plan, max_batch=16, window=100e-6,
                            input_shape=artifact.input_shape)
        front = HttpFront(server, port=0).start()
        try:
            rng = np.random.default_rng(1)
            requests = [rng.integers(0, 2, (1,) + artifact.input_shape)
                        .astype(np.uint8) for _ in range(10)]
            responses = fire(front.url, requests, threads=4)
            for request, response in zip(requests, responses):
                expected = plan.scores(request)
                assert np.array_equal(response["scores"], expected)
                assert np.array_equal(response["labels"],
                                      expected.argmax(axis=1))
            client = ServeClient(front.url)
            assert client.health()["status"] == "ok"
            stats = client.stats()
            assert stats["completed"] >= 10 and stats["rejected"] == 0
            client.close()
        finally:
            front.shutdown(drain=True)

    def test_error_statuses(self):
        server = _server(window=0.0)
        front = HttpFront(server, port=0).start()
        try:
            client = ServeClient(front.url)
            with pytest.raises(ServeHTTPError) as info:
                client.predict(np.ones((2, 5)))          # bad shape
            assert info.value.status == 400
            with pytest.raises(ServeHTTPError) as info:
                client._request("GET", "/nope")
            assert info.value.status == 404
            with pytest.raises(ServeHTTPError) as info:
                client._request("POST", "/v1/predict", {"not_inputs": 1})
            assert info.value.status == 400
            client.close()
        finally:
            front.shutdown(drain=True)

    def test_poisoned_request_fails_alone(self):
        """Three requests coalesce into one flush whose batched run
        raises on the middle one: the other two still get 200 with their
        solo scores, and only the poisoned one gets a 500."""
        plan = _PoisonedPlan()
        server = PlanServer(plan, max_batch=3, window=LONG,
                            dtype=np.float64, input_shape=(3,))
        front = HttpFront(server, port=0).start()
        requests = [np.full((1, 3), 1.25), np.full((1, 3), plan.POISON),
                    np.arange(3.0).reshape(1, 3) / 3.0]
        results = [None] * len(requests)

        def post(index):
            client = ServeClient(front.url)
            try:
                results[index] = client.predict(requests[index])
            except ServeHTTPError as error:
                results[index] = error
            finally:
                client.close()

        threads = [threading.Thread(target=post, args=(index,))
                   for index in range(len(requests))]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            front.shutdown(drain=True)
        assert plan.batches[0] == 3                  # one coalesced flush
        assert isinstance(results[1], ServeHTTPError)
        assert results[1].status == 500 and "poisoned" in str(results[1])
        for index in (0, 2):
            solo = _PoisonedPlan().scores(requests[index])
            assert results[index]["scores"].tobytes() == solo.tobytes()
        assert not server._handles

    def test_healthz_reports_draining_as_503(self):
        server = _server(window=0.0)
        front = HttpFront(server, port=0).start()
        try:
            server.close(drain=True)                     # now draining
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(front.url + "/healthz")
            assert info.value.code == 503
        finally:
            front.shutdown(drain=True)

    def test_idle_front_starts_and_shuts_down_fast(self):
        server = _server(window=0.0)
        start = time.monotonic()
        front = HttpFront(server, port=0).start()
        front.shutdown(drain=True)
        assert time.monotonic() - start < 0.2
        assert not server.executor_alive

    def test_dead_executor_fails_probe_and_requests_at_once(
            self, monkeypatch):
        """An executor killed outside a plan evaluation (here a raising
        ``batcher.flush``) must not pass for healthy: the request it was
        serving and every new one get a prompt 503, not a 504 after
        ``request_timeout``, and the probe answers a distinct 503."""
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        server = _server(window=0.0)

        def broken_flush(now):
            raise RuntimeError("batcher corrupted")

        monkeypatch.setattr(server._batcher, "flush", broken_flush)
        front = HttpFront(server, port=0, request_timeout=30.0).start()
        try:
            client = ServeClient(front.url)
            start = time.monotonic()
            with pytest.raises(ServeHTTPError) as info:
                client.predict(np.ones((1, 3)))          # kills the executor
            assert info.value.status == 503
            assert time.monotonic() - start < 1.0
            assert not server._handles
            deadline = time.monotonic() + 10.0
            while not uncaught and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [str(args.exc_value) for args in uncaught] == \
                ["batcher corrupted"]
            uncaught[0].thread.join(10.0)

            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(front.url + "/healthz")
            assert info.value.code == 503
            assert json.loads(info.value.read()) == {
                "status": "executor_dead"}

            start = time.monotonic()
            with pytest.raises(ServeHTTPError) as info:
                client.predict(np.ones((1, 3)))
            assert info.value.status == 503
            assert time.monotonic() - start < 5.0
            client.close()
            with pytest.raises(ServerClosed, match="executor"):
                server.submit(np.ones((1, 3)))
            assert not server.executor_alive
        finally:
            front.shutdown(drain=True)


class TestNonFiniteInputs:
    """NaN/Inf rows are refused at admission; the finite requests of the
    same burst still coalesce and get their solo answers."""

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_refused_in_process_burst_unharmed(self, poison):
        server = _server(max_batch=2, window=LONG)
        first = np.full((1, 3), 1.5)
        bad = np.array([[0.0, poison, 1.0]])
        second = np.full((1, 3), -2.25)
        handle_first = server.submit(first)
        with pytest.raises(ValueError, match="non-finite"):
            server.submit(bad)
        handle_second = server.submit(second)      # fills the batch
        for request, handle in ((first, handle_first),
                                (second, handle_second)):
            assert handle.wait(10.0) and handle.error is None
            assert np.array_equal(handle.scores,
                                  _SumPlan().scores(request))
        snapshot = server.stats.snapshot()
        assert snapshot["batches"] == 1 and snapshot["completed"] == 2
        server.close()

    def test_inf_for_a_uint8_model_is_a_value_error(self):
        server = _server(window=0.0, dtype=np.uint8)
        with pytest.raises(ValueError, match="uint8"):
            server.submit([[1, float("inf"), 0]])
        server.close()

    def test_refused_over_http_burst_unharmed(self):
        import threading

        server = _server(max_batch=2, window=LONG)
        front = HttpFront(server, port=0).start()
        first = np.full((1, 3), 0.75)
        second = np.full((1, 3), 4.0)
        answers = {}

        def send(name, request):
            client = ServeClient(front.url, timeout=30.0)
            answers[name] = client.predict(request)
            client.close()

        try:
            sender = threading.Thread(target=send, args=("first", first))
            sender.start()
            for _ in range(10_000):              # until first is admitted
                if server.queue_depth:
                    break
                sender.join(0.001)
            assert server.queue_depth == 1
            client = ServeClient(front.url)
            with pytest.raises(ServeHTTPError) as info:
                client.predict(np.array([[1.0, np.nan, 2.0]]))
            assert info.value.status == 400
            assert "non-finite" in str(info.value)
            client.close()
            send("second", second)                # fills the batch
            sender.join(30.0)
            assert not sender.is_alive()
            for name, request in (("first", first), ("second", second)):
                assert np.array_equal(answers[name]["scores"],
                                      _SumPlan().scores(request))
            assert server.stats.snapshot()["batches"] == 1
        finally:
            front.shutdown(drain=True)


class TestContentLength:
    """The body length is checked before a byte of the body is read."""

    @staticmethod
    def _post_header_only(front, length: str):
        import http.client

        conn = http.client.HTTPConnection(front.host, front.port,
                                          timeout=10.0)
        conn.putrequest("POST", "/v1/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        payload = json.loads(response.read())
        closed = response.getheader("Connection") == "close"
        conn.close()
        return response.status, payload, closed

    @pytest.mark.parametrize("length", ["-1", "12abc", "1.5", "+4", ""])
    def test_malformed_length_is_400(self, length):
        server = _server(window=0.0)
        front = HttpFront(server, port=0).start()
        try:
            status, payload, closed = self._post_header_only(front, length)
            assert status == 400 and "Content-Length" in payload["error"]
            assert closed
            # The front keeps serving fresh connections.
            client = ServeClient(front.url)
            request = np.ones((1, 3))
            assert np.array_equal(client.predict(request)["scores"],
                                  _SumPlan().scores(request))
            client.close()
        finally:
            front.shutdown(drain=True)

    def test_oversized_body_is_413_before_reading(self):
        from repro.serve.server import (JSON_BYTES_PER_NUMBER,
                                        JSON_ENVELOPE_BYTES)

        server = _server(window=0.0, max_queue=4)
        front = HttpFront(server, port=0).start()
        try:
            limit = 4 * 3 * JSON_BYTES_PER_NUMBER + JSON_ENVELOPE_BYTES
            assert front.max_body_bytes == limit
            # No body follows: a front that tried to read it would time
            # the client out instead of answering.
            status, payload, closed = self._post_header_only(
                front, str(10 ** 12))
            assert status == 413 and str(limit) in payload["error"]
            assert closed
            # A full admission queue of the longest float reprs fits.
            client = ServeClient(front.url)
            request = np.full((4, 3), -1.2345678901234567e-308)
            assert np.array_equal(client.predict(request)["scores"],
                                  _SumPlan().scores(request))
            client.close()
        finally:
            front.shutdown(drain=True)

    def test_shapeless_model_has_no_cap(self):
        server = PlanServer(_SumPlan(), window=0.0, dtype=np.float64)
        front = HttpFront(server, port=0).start()
        assert front.max_body_bytes is None
        front.shutdown(drain=True)
