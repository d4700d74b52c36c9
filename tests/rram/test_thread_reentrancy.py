"""Fast-path thread reentrancy: the serving daemon's substrate contract.

The serve transport thread holds the compiled plan (health checks,
stats) while the executor thread dispatches scans; and the noise-free
fast path is documented as reentrant (``MemoryController`` docstring).
These tests pin that: two threads hammering ONE plan/controller must
produce bit-identical scores on every call AND exact op-meter totals
(the meters are the only state a fast-path read mutates — they take
``_meter_lock``).

The noisy path is out of scope by design: it consumes ``self.rng``, so
it is single-caller by contract (and unservable — ``PlanServer``
refuses it).
"""

import pathlib
import threading

import numpy as np
import pytest

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "plans"


def _hammer(n_threads: int, n_calls: int, work):
    """Run ``work(thread_index, call_index)`` from ``n_threads`` threads
    with a start barrier; re-raise the first worker failure."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def run(thread_index):
        try:
            barrier.wait()
            for call_index in range(n_calls):
                work(thread_index, call_index)
        except Exception as error:          # pragma: no cover - fail path
            errors.append(error)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


@pytest.fixture(scope="module")
def packed_plan():
    """The eeg fixture plan on an ideal RRAM backend: fast-path
    controllers with live op meters (the packed backend has no
    controllers to meter)."""
    from repro.io import load_compiled, load_plan
    from repro.rram import AcceleratorConfig
    from repro.runtime import RRAMBackend

    artifact = load_plan(FIXTURES / "eeg_full_binary.npz")
    plan = load_compiled(artifact,
                         backend=RRAMBackend(AcceleratorConfig(ideal=True)))
    return artifact, plan


class TestPlanReentrancy:
    N_THREADS = 2
    N_CALLS = 25

    def test_concurrent_scores_bit_identical_and_meters_exact(
            self, packed_plan):
        artifact, plan = packed_plan
        rng = np.random.default_rng(7)
        batches = [rng.integers(0, 2, (4,) + artifact.input_shape)
                   .astype(np.uint8) for _ in range(self.N_THREADS)]
        expected = [plan.scores(batch) for batch in batches]

        controllers = [op.executor.controller for op in plan.layer_ops
                       if getattr(op.executor, "controller", None)
                       is not None]
        assert controllers, "fixture plan must have RRAM layers"
        assert all(c.fast_path for c in controllers)

        def meter_total():
            return sum(c.popcount_bit_ops + c.sense_ops
                       for c in controllers)

        before = meter_total()
        one_call = None

        # Calibrate the per-call meter delta single-threaded.
        plan.scores(batches[0])
        one_call = meter_total() - before
        assert one_call > 0

        start = meter_total()

        def work(thread_index, call_index):
            scores = plan.scores(batches[thread_index])
            assert np.array_equal(scores, expected[thread_index]), (
                f"thread {thread_index} call {call_index}: concurrent "
                "fast-path scores differ from solo evaluation")

        _hammer(self.N_THREADS, self.N_CALLS, work)

        # Meter updates are read-modify-write under _meter_lock: no
        # increment may be lost to the interleaving.
        assert meter_total() - start \
            == self.N_THREADS * self.N_CALLS * one_call

    def test_concurrent_predict_matches_solo(self, packed_plan):
        artifact, plan = packed_plan
        rng = np.random.default_rng(11)
        batch = rng.integers(0, 2, (8,) + artifact.input_shape) \
            .astype(np.uint8)
        expected = plan.predict(batch)

        def work(thread_index, call_index):
            assert np.array_equal(plan.predict(batch), expected)

        _hammer(4, 10, work)


class TestGradModeIsThreadLocal:
    def test_concurrent_no_grad_cannot_disable_training_thread(self):
        # Compiled fronts run under no_grad(); with a process-global
        # flag, two threads interleaving enter/exit can restore the
        # wrong previous value and permanently kill grad recording for
        # a training loop elsewhere.  The mode must be per-thread.
        from repro.tensor import Tensor, is_grad_enabled, no_grad

        inference_running = threading.Event()
        release_inference = threading.Event()

        def inference():
            with no_grad():
                inference_running.set()
                release_inference.wait(10.0)

        worker = threading.Thread(target=inference)
        worker.start()
        try:
            assert inference_running.wait(10.0)
            # Another thread is inside no_grad() RIGHT NOW; this
            # (training) thread must be unaffected.
            assert is_grad_enabled()
            loss = (Tensor(np.ones(3), requires_grad=True) * 2.0).sum()
            assert loss.requires_grad
            loss.backward()
        finally:
            release_inference.set()
            worker.join()
        assert is_grad_enabled()

    def test_no_grad_nests_per_thread(self):
        from repro.tensor import is_grad_enabled, no_grad

        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestMeterLockPlumbing:
    def test_controller_survives_pickling_without_its_lock(self):
        # __getstate__/__setstate__ must drop and rebuild _meter_lock —
        # the MC engine pickles controllers into worker processes.
        import pickle

        from repro.models import golden_classifier
        from repro.rram import AcceleratorConfig
        from repro.rram.accelerator import MemoryController
        from repro.runtime import fold_classifier_stack

        model, _ = golden_classifier("eeg")
        hidden, _ = fold_classifier_stack(model)
        controller = MemoryController(hidden[0].weight_bits,
                                      AcceleratorConfig(ideal=True))
        clone = pickle.loads(pickle.dumps(controller))
        assert isinstance(clone._meter_lock, type(threading.Lock()))
        assert np.array_equal(clone.effective_bits,
                              controller.effective_bits)
        for meters in (clone, controller):
            meters.meter_reads(1, trials=1)
        assert (clone.sense_ops, clone.popcount_bit_ops) == \
            (controller.sense_ops, controller.popcount_bit_ops) != (0, 0)
