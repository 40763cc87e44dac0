"""Tests for the streamed sweep's frames (repro.service.aio): the
frames a thread-executor run emits, stopping on a closed stream, and the
NDJSON codec."""

import sys
import threading

import pytest

from repro.backends import BackendError, StubBackend
from repro.eval import Evaluator, SweepConfig, SweepExecutor, SweepPlanner
from repro.eval.export import sweep_to_json
from repro.problems import PromptLevel
from repro.service.aio import (
    StreamProtocolError,
    assemble_stream_result,
    decode_frame,
    emit_sweep,
    encode_frame,
)

SMALL = SweepConfig(
    temperatures=(0.1, 0.5),
    completions_per_prompt=(2,),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2),
)


class FlakyStub(StubBackend):
    """Stub whose first ``fail_first`` generate calls raise."""

    def __init__(self, fail_first=0, **kwargs):
        super().__init__(**kwargs)
        self.fail_first = fail_first
        self.calls = 0

    def generate(self, model, prompt, config):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise BackendError(f"flaky failure #{self.calls}")
        return super().generate(model, prompt, config)


def collect_stream(backend, plan, events=None, **options):
    """Every frame :func:`emit_sweep` emits for ``plan``, in order."""
    frames = []

    def emit(frame):
        frames.append(frame)
        if events is not None:
            events.append(frame["event"])

    emit_sweep(plan, emit, backend, **options)
    return frames


class TestStreamFrames:
    def test_stream_reassembles_to_serial_parity(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        serial = SweepExecutor(stub, evaluator=Evaluator()).run(plan)
        events = []
        frames = collect_stream(
            stub, plan, events=events, evaluator=Evaluator(), workers=4
        )
        result = assemble_stream_result(frames)
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert result.skipped == serial.skipped
        assert result.stats["concurrency"] == 4
        assert events[-2:] == ["metric", "done"]
        assert events.count("job_started") == len(plan.jobs)
        assert events.count("record") == len(serial.sweep)
        assert events.count("progress") == len(plan.jobs)
        assert events.count("span") == len(plan.jobs)

    def test_stream_carries_job_errors(self):
        stub = FlakyStub(fail_first=1)
        plan = SweepPlanner(stub).plan(SMALL)
        frames = collect_stream(stub, plan)
        errors = [f for f in frames if f["event"] == "job_error"]
        assert len(errors) == 1
        result = assemble_stream_result(frames)
        assert len(result.errors) == 1
        assert "flaky failure" in result.errors[0].error

    def test_frames_survive_wire_roundtrip(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        frames = collect_stream(stub, plan)
        rewired = [decode_frame(encode_frame(f)) for f in frames]
        direct = assemble_stream_result(frames)
        wired = assemble_stream_result(rewired)
        assert sweep_to_json(direct.sweep) == sweep_to_json(wired.sweep)

    def test_progress_counts_survive_thread_contention(self):
        stub = StubBackend()
        config = SweepConfig(
            temperatures=(0.1, 0.3, 0.5, 0.7),
            completions_per_prompt=(1,),
            levels=(PromptLevel.LOW, PromptLevel.MEDIUM),
            problem_numbers=tuple(range(1, 9)),
        )
        plan = SweepPlanner(stub).plan(config)
        serial = SweepExecutor(stub, evaluator=Evaluator()).run(plan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            frames = collect_stream(stub, plan, workers=8)
        finally:
            sys.setswitchinterval(interval)
        done = [f["jobs_done"] for f in frames if f["event"] == "progress"]
        assert done == list(range(1, len(plan.jobs) + 1))
        result = assemble_stream_result(frames)
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)

    def test_early_close_cancels_in_flight_jobs(self):
        """A closed stream stops the sweep: once ``emit`` refuses a
        frame no further job starts generating; the jobs already in
        flight finish and are discarded."""

        class Gated(StubBackend):
            """The first job returns once a second is in flight; every
            later job waits for ``gate``."""

            def __init__(self):
                super().__init__()
                self.gate = threading.Event()
                self.second = threading.Event()
                self.lock = threading.Lock()
                self.started = 0

            def generate(self, model, prompt, config):
                with self.lock:
                    self.started += 1
                    first = self.started == 1
                if first:
                    self.second.wait(timeout=30)
                else:
                    self.second.set()
                    self.gate.wait(timeout=30)
                return super().generate(model, prompt, config)

        backend = Gated()
        plan = SweepPlanner(backend).plan(SMALL)
        assert len(plan.jobs) >= 4
        closed = threading.Event()
        accepted, refused = [], []

        def emit(frame):
            if closed.is_set():
                refused.append(frame["event"])
                raise ConnectionResetError("client went away")
            accepted.append(frame["event"])
            if frame["event"] == "record":
                closed.set()

        errors = []

        def run():
            try:
                emit_sweep(plan, emit, backend, workers=2)
            except ConnectionResetError as exc:
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        assert closed.wait(timeout=10)
        backend.gate.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert errors  # the refused frame ended the sweep
        # only jobs whose start was accepted before the close generated:
        # the finished first job and the one in flight beside it
        assert backend.started == accepted.count("job_started") == 2
        assert refused and "done" not in refused


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
        frames = collect_stream(stub, plan)
        assert frames[-1]["event"] == "done"
        with pytest.raises(StreamProtocolError, match="without a terminal"):
            assemble_stream_result(frames[:-1])

    def test_assemble_rejects_count_mismatch(self):
        stub = StubBackend()
        plan = SweepPlanner(stub).plan(SMALL)
        frames = collect_stream(stub, plan)
        # drop one record frame: the lossless terminal must notice
        body = [f for f in frames if f["event"] != "record"]
        records = [f for f in frames if f["event"] == "record"]
        with pytest.raises(StreamProtocolError):
            assemble_stream_result(body + records[:-1])
