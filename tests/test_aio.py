"""Tests for the asyncio sweep stack (repro.service.aio): executor
parity, retry/batch semantics, event streams, cancellation, codecs."""

import asyncio

import pytest

from repro.backends import BackendError, StubBackend
from repro.eval import Evaluator, SweepConfig, SweepExecutor, SweepPlanner
from repro.eval.export import sweep_to_json
from repro.eval.jobs import RetryPolicy
from repro.problems import PromptLevel
from repro.service.aio import (
    AsyncBackend,
    AsyncSweepExecutor,
    StreamProtocolError,
    assemble_stream_result,
    decode_frame,
    encode_frame,
    ensure_async,
    to_async,
)

SMALL = SweepConfig(
    temperatures=(0.1, 0.5),
    completions_per_prompt=(2,),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2),
)


class AsyncStub(AsyncBackend):
    """Async-native stub: scripted completions, latency, cancel tracking."""

    name = "async-stub"

    def __init__(self, latency=0.0, fail_first=0, **stub_kwargs):
        self.stub = StubBackend(**stub_kwargs)
        self.latency = latency
        self.fail_first = fail_first
        self.calls = 0
        self.batch_calls = 0
        self.started = 0
        self.completed = 0
        self.cancelled = 0

    def models(self):
        return self.stub.models()

    def capabilities(self, model):
        return self.stub.capabilities(model)

    async def generate_async(self, model, prompt, config):
        self.calls += 1
        self.started += 1
        try:
            if self.latency:
                await asyncio.sleep(self.latency)
            if self.calls <= self.fail_first:
                raise BackendError(f"flaky failure #{self.calls}")
            result = self.stub.generate(model, prompt, config)
            self.completed += 1
            return result
        except asyncio.CancelledError:
            self.cancelled += 1
            raise


class AsyncBatchStub(AsyncStub):
    """Adds a native batch path (optionally broken)."""

    def __init__(self, batch_raises=False, **kwargs):
        super().__init__(**kwargs)
        self.batch_raises = batch_raises

    async def generate_batch_async(self, model, requests):
        self.batch_calls += 1
        if self.batch_raises:
            raise BackendError("batch endpoint down")
        if self.latency:
            await asyncio.sleep(self.latency)
        return [
            self.stub.generate(model, prompt, config)
            for prompt, config in requests
        ]


def run(coroutine):
    return asyncio.run(coroutine)


async def collect_stream(executor, plan, stop_after=None, events=None):
    """Consume executor.stream; optionally abort after N frames."""
    frames = []
    stream = executor.stream(plan)
    try:
        async for frame in stream:
            frames.append(frame)
            if events is not None:
                events.append(frame["event"])
            if stop_after is not None and len(frames) >= stop_after:
                break
    finally:
        await stream.aclose()
    return frames


class TestAsyncExecutorParity:
    def test_matches_serial_records_exactly(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        serial = SweepExecutor(stub, evaluator=Evaluator()).run(plan)
        result = AsyncSweepExecutor(
            stub, evaluator=Evaluator(), concurrency=4
        ).run(plan)
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert result.skipped == serial.skipped
        assert result.errors == serial.errors
        assert result.stats["executor"] == "async"
        assert result.stats["concurrency"] == 4

    def test_async_native_backend_parity(self):
        sync_stub = StubBackend()
        astub = AsyncStub()
        plan = SweepPlanner(sync_stub).plan(SMALL)
        serial = SweepExecutor(sync_stub, evaluator=Evaluator()).run(plan)
        result = AsyncSweepExecutor(
            astub, evaluator=Evaluator(), concurrency=8
        ).run(plan)
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert astub.calls == len(plan.jobs)

    def test_zoo_parity_with_skips(self):
        from repro.backends import create_backend

        zoo = create_backend("zoo")
        config = SweepConfig(
            temperatures=(0.1,),
            completions_per_prompt=(2, 25),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1,),
        )
        models = ["codegen-2b-ft", "j1-large-7b-ft"]
        plan = SweepPlanner(zoo).plan(config, models=models)
        assert plan.skipped  # j1 rejects n=25
        serial = SweepExecutor(zoo, evaluator=Evaluator()).run(plan)
        result = AsyncSweepExecutor(
            zoo, evaluator=Evaluator(), concurrency=3
        ).run(plan)
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert result.skipped == serial.skipped

    def test_run_inside_loop_refuses(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        executor = AsyncSweepExecutor(stub)

        async def inside():
            with pytest.raises(RuntimeError, match="running event loop"):
                executor.run(plan)

        run(inside())

    def test_progress_callback_counts_jobs(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        seen = []
        AsyncSweepExecutor(
            stub, progress=lambda done, total, job: seen.append((done, total))
        ).run(plan)
        assert len(seen) == len(plan.jobs)
        assert seen[-1] == (len(plan.jobs), len(plan.jobs))

    def test_concurrency_must_be_positive(self):
        with pytest.raises(ValueError, match="concurrency"):
            AsyncSweepExecutor(StubBackend(), concurrency=0)


class TestAsyncRetryAndBatch:
    def test_retry_recovers_transient_failures(self):
        astub = AsyncStub(fail_first=2)
        plan = SweepPlanner(astub).plan(SMALL)
        naps = []

        async def fake_sleep(delay):
            naps.append(delay)

        result = AsyncSweepExecutor(
            astub,
            concurrency=1,
            retry=RetryPolicy(max_attempts=3, backoff_seconds=0.5),
            sleep=fake_sleep,
        ).run(plan)
        assert not result.errors
        # two failures, each retried immediately: backoff schedule is
        # deterministic (0.5 after first failure of each affected job)
        assert naps and all(n in (0.5, 1.0) for n in naps)

    def test_retry_exhaustion_records_attempts(self):
        astub = AsyncStub(fail_first=99)
        plan = SweepPlanner(astub).plan(SMALL)
        result = AsyncSweepExecutor(
            astub, concurrency=2, retry=RetryPolicy(max_attempts=3)
        ).run(plan)
        assert len(result.errors) == len(plan.jobs)
        assert all(e.attempts == 3 for e in result.errors)
        assert all("flaky failure" in e.error for e in result.errors)

    def test_non_backend_errors_fail_fast(self):
        class Exploding(AsyncStub):
            async def generate_async(self, model, prompt, config):
                raise RuntimeError("not transient")

        astub = Exploding()
        plan = SweepPlanner(astub).plan(SMALL)
        result = AsyncSweepExecutor(
            astub, retry=RetryPolicy(max_attempts=5)
        ).run(plan)
        assert all(e.attempts == 1 for e in result.errors)
        assert all("RuntimeError" in e.error for e in result.errors)

    def test_batching_uses_native_batch_path(self):
        astub = AsyncBatchStub()
        plan = SweepPlanner(astub).plan(SMALL)
        sync_serial = SweepExecutor(
            StubBackend(), evaluator=Evaluator()
        ).run(SweepPlanner(StubBackend()).plan(SMALL))
        result = AsyncSweepExecutor(
            astub, evaluator=Evaluator(), batch_size=4
        ).run(plan)
        assert astub.batch_calls >= 1
        assert astub.calls == 0  # whole plan went through batches
        assert sweep_to_json(result.sweep) == sweep_to_json(
            sync_serial.sweep
        )

    def test_broken_batch_falls_back_to_per_job_retry(self):
        astub = AsyncBatchStub(batch_raises=True, fail_first=1)
        plan = SweepPlanner(astub).plan(SMALL)
        result = AsyncSweepExecutor(
            astub, batch_size=4, retry=RetryPolicy(max_attempts=2)
        ).run(plan)
        assert astub.batch_calls >= 1
        assert astub.calls >= len(plan.jobs)  # per-job fallback ran
        assert not result.errors  # retry absorbed the injected failure


class TestStreamFrames:
    def test_stream_reassembles_to_serial_parity(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        serial = SweepExecutor(stub, evaluator=Evaluator()).run(plan)
        events = []
        frames = run(
            collect_stream(
                AsyncSweepExecutor(stub, evaluator=Evaluator(),
                                   concurrency=4),
                plan,
                events=events,
            )
        )
        result = assemble_stream_result(frames)
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert result.skipped == serial.skipped
        assert events[-1] == "done"
        assert events.count("job_started") == len(plan.jobs)
        assert events.count("record") == len(serial.sweep)
        assert events.count("progress") == len(plan.jobs)

    def test_stream_carries_job_errors(self):
        astub = AsyncStub(fail_first=1)
        plan = SweepPlanner(astub).plan(SMALL)
        frames = run(
            collect_stream(AsyncSweepExecutor(astub, concurrency=1), plan)
        )
        errors = [f for f in frames if f["event"] == "job_error"]
        assert len(errors) == 1
        result = assemble_stream_result(frames)
        assert len(result.errors) == 1
        assert "flaky failure" in result.errors[0].error

    def test_frames_survive_wire_roundtrip(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        frames = run(collect_stream(AsyncSweepExecutor(stub), plan))
        rewired = [decode_frame(encode_frame(f)) for f in frames]
        direct = assemble_stream_result(frames)
        wired = assemble_stream_result(rewired)
        assert sweep_to_json(direct.sweep) == sweep_to_json(wired.sweep)

    def test_early_close_cancels_in_flight_jobs(self):
        class Staggered(AsyncStub):
            """First job returns fast; every other one sleeps forever."""

            async def generate_async(self, model, prompt, config):
                self.calls += 1
                self.started += 1
                try:
                    await asyncio.sleep(0.01 if self.calls == 1 else 30.0)
                    result = self.stub.generate(model, prompt, config)
                    self.completed += 1
                    return result
                except asyncio.CancelledError:
                    self.cancelled += 1
                    raise

        astub = Staggered()
        plan = SweepPlanner(astub).plan(SMALL)
        assert len(plan.jobs) >= 4

        async def abort_after_first_record():
            executor = AsyncSweepExecutor(astub, concurrency=2)
            stream = executor.stream(plan)
            async for frame in stream:
                if frame["event"] == "record":
                    break
            await stream.aclose()

        run(abort_after_first_record())
        assert astub.cancelled >= 1  # the slow in-flight job was cancelled
        assert astub.completed == 1  # nothing else ever finished
        assert astub.started < len(plan.jobs) + 1  # queued chunks never ran


class TestStreamProtocolErrors:
    def test_decode_rejects_non_json(self):
        with pytest.raises(StreamProtocolError, match="not JSON"):
            decode_frame(b"{half a frame")

    def test_decode_rejects_unknown_event(self):
        with pytest.raises(StreamProtocolError, match="unknown frame"):
            decode_frame(b'{"event": "telemetry"}')

    def test_decode_rejects_missing_fields(self):
        with pytest.raises(StreamProtocolError, match="missing required"):
            decode_frame(b'{"event": "record", "job_index": 0}')

    def test_decode_rejects_non_object(self):
        with pytest.raises(StreamProtocolError, match="expected an object"):
            decode_frame(b"[1, 2, 3]")

    def test_assemble_requires_terminal_frame(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        frames = run(collect_stream(AsyncSweepExecutor(stub), plan))
        assert frames[-1]["event"] == "done"
        with pytest.raises(StreamProtocolError, match="without a terminal"):
            assemble_stream_result(frames[:-1])

    def test_assemble_rejects_count_mismatch(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        frames = run(collect_stream(AsyncSweepExecutor(stub), plan))
        # drop one record frame: the lossless terminal must notice
        body = [f for f in frames if f["event"] != "record"]
        records = [f for f in frames if f["event"] == "record"]
        with pytest.raises(StreamProtocolError):
            assemble_stream_result(body + records[:-1])


class TestBackendAdapters:
    def test_roundtrip_unwraps_to_original(self):
        stub = StubBackend()
        adapted = to_async(stub)
        assert adapted.backend is stub
        assert ensure_async(adapted) is adapted

    def test_ensure_async_passthrough(self):
        astub = AsyncStub()
        assert ensure_async(astub) is astub

    def test_threaded_adapter_delegates_metadata(self):
        stub = StubBackend(supports_n25=False, max_tokens=128)
        adapted = to_async(stub)
        assert adapted.name == "stub"
        assert adapted.models() == ["stub"]
        capabilities = adapted.capabilities("stub")
        assert capabilities.supports_n25 is False
        assert capabilities.max_tokens == 128
        assert adapted.identity("stub-ft") == ("stub", True)
