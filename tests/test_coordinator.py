"""Tests for the shard coordinator (repro.service.coordinator): leases,
expiry/re-serve, streaming merge parity, worker loop, HTTP smoke."""

import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import Session
from repro.backends import BackendError, LocalZooBackend, StubBackend
from repro.eval import SweepConfig, SweepExecutor, SweepPlanner
from repro.eval.export import sweep_result_to_dict, sweep_to_json
from repro.problems import PromptLevel
from repro.service import (
    ProcessPoolSweepExecutor,
    ServiceApp,
    ServiceUnreachableError,
    ShardCoordinator,
    ShardPlanner,
    assemble_stream_result,
    in_process_transport,
    job_ranges,
    merge_shard_files,
    run_worker,
    save_shard_result,
)
from repro.service.aio import decode_stream, emit_sweep, encode_frame

CONFIG = SweepConfig(
    temperatures=(0.1, 0.5),
    completions_per_prompt=(2, 25),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2, 6),
)
MODELS = ["codegen-6b-ft", "j1-large-7b-ft"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_split(num_shards, config=CONFIG, models=MODELS, backend="zoo"):
    session = Session(backend=backend)
    plan = session.plan(config, models=models)
    return plan, ShardPlanner(num_shards).split(plan)


def run_shard(shard, backend="zoo"):
    return SweepExecutor(Session(backend=backend).backend).run(shard.plan)


class TestCoordinatorUnit:
    def test_requires_complete_shard_set(self):
        _, shards = make_split(3)
        with pytest.raises(ValueError, match="complete shard set"):
            ShardCoordinator(shards[:2])
        with pytest.raises(ValueError, match="empty"):
            ShardCoordinator([])

    def test_duplicate_shard_indices_rejected(self):
        _, shards = make_split(2)
        with pytest.raises(ValueError, match="complete shard set"):
            ShardCoordinator([shards[0], shards[0], shards[1]])

    def test_lease_seconds_validated(self):
        _, shards = make_split(1)
        with pytest.raises(ValueError, match="lease_seconds"):
            ShardCoordinator(shards, lease_seconds=0)

    def test_leases_each_shard_once_then_waits(self):
        _, shards = make_split(2)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        first = coordinator.next_shard("w1")
        second = coordinator.next_shard("w2")
        assert {first["shard_index"], second["shard_index"]} == {0, 1}
        assert first["lease_id"] != second["lease_id"]
        third = coordinator.next_shard("w3")
        assert third["shard"] is None
        assert third["done"] is False
        assert third["retry_after"] > 0

    def test_submit_merges_and_reports_done(self):
        _, shards = make_split(2)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        for _ in range(2):
            lease = coordinator.next_shard("w")
            result = run_shard(shards[lease["shard_index"]])
            ack = coordinator.submit_result(
                lease["lease_id"], sweep_result_to_dict(result)
            )
            assert ack["accepted"] is True
        assert coordinator.done
        assert coordinator.next_shard("w")["done"] is True

    def test_unknown_lease_rejected(self):
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards)
        with pytest.raises(ValueError, match="unknown lease"):
            coordinator.submit_result("lease-999-s0", {"records": []})

    def test_mismatched_result_rejected_and_shard_stays_leased(self):
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        lease = coordinator.next_shard("w")
        result = run_shard(shards[0])
        result.sweep.records.pop()
        with pytest.raises(ValueError, match="does not match"):
            coordinator.submit_result(
                lease["lease_id"], sweep_result_to_dict(result)
            )
        status = coordinator.status()
        assert status["leased"] == 1 and status["done"] == 0

    @pytest.mark.parametrize("change", ["missing", "extra", "different"])
    def test_result_with_other_skips_rejected_and_unit_stays_leased(
        self, change
    ):
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        lease = coordinator.next_shard("w")
        result = run_shard(shards[0])
        assert result.skipped
        if change == "missing":
            result.skipped.pop()
        elif change == "extra":
            result.skipped.append(result.skipped[0])
        else:
            result.skipped[-1] = replace(result.skipped[-1], reason="other")
        with pytest.raises(ValueError, match="does not match"):
            coordinator.submit_result(
                lease["lease_id"], sweep_result_to_dict(result)
            )
        status = coordinator.status()
        assert status["leased"] == 1 and status["done"] == 0

    def test_checkpoint_with_a_lost_skip_is_refused(self):
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards)
        lease = coordinator.next_shard("w")
        coordinator.submit_result(
            lease["lease_id"], sweep_result_to_dict(run_shard(shards[0]))
        )
        state = coordinator.state_to_dict()
        state["completed"]["0"]["skipped"].pop()
        with pytest.raises(ValueError, match="does not match"):
            ShardCoordinator.from_state(state)

    def test_expired_lease_is_reserved_and_late_submit_ignored(self):
        clock = FakeClock()
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=30, clock=clock)
        stale = coordinator.next_shard("slow-worker")
        clock.advance(31)
        fresh = coordinator.next_shard("fast-worker")
        assert fresh["shard_index"] == stale["shard_index"] == 0
        assert fresh["lease_id"] != stale["lease_id"]
        assert coordinator.status()["leases_reclaimed"] == 1

        result = sweep_result_to_dict(run_shard(shards[0]))
        assert coordinator.submit_result(fresh["lease_id"], result)["accepted"]
        # the slow worker finally reports in: acknowledged, not re-merged
        late = coordinator.submit_result(stale["lease_id"], result)
        assert late["accepted"] is False and late["duplicate"] is True
        assert coordinator.done

    def test_status_reports_progress_and_leases(self):
        clock = FakeClock()
        _, shards = make_split(3)
        coordinator = ShardCoordinator(shards, lease_seconds=60, clock=clock)
        lease = coordinator.next_shard("w1")
        coordinator.submit_result(
            lease["lease_id"],
            sweep_result_to_dict(run_shard(shards[lease["shard_index"]])),
        )
        coordinator.next_shard("w2")
        status = coordinator.status()
        assert status["num_units"] == 3
        assert (status["done"], status["leased"], status["pending"]) == (1, 1, 1)
        assert status["complete"] is False
        assert status["records_merged"] > 0
        assert status["leases"][0]["worker_id"] == "w2"
        assert status["leases"][0]["expires_in"] == pytest.approx(60)

    def test_result_requires_completion(self):
        _, shards = make_split(2)
        coordinator = ShardCoordinator(shards)
        with pytest.raises(ValueError, match="incomplete"):
            coordinator.result()

    def test_checkpoint_round_trip(self):
        clock = FakeClock()
        _, shards = make_split(3)
        coordinator = ShardCoordinator(shards, lease_seconds=60, clock=clock)
        lease = coordinator.next_shard("w")
        index = lease["shard_index"]
        coordinator.submit_result(
            lease["lease_id"], sweep_result_to_dict(run_shard(shards[index]))
        )
        coordinator.next_shard("vanishing-worker")  # in flight at "crash"

        restored = ShardCoordinator.from_state(
            coordinator.state_to_dict(), clock=clock
        )
        status = restored.status()
        # the completed shard survives; the in-flight lease does not
        assert status["done"] == 1 and status["pending"] == 2
        while True:
            lease = restored.next_shard("w2")
            if lease["shard"] is None:
                break
            restored.submit_result(
                lease["lease_id"],
                sweep_result_to_dict(run_shard(shards[lease["shard_index"]])),
            )
        assert restored.done

    def test_checkpoint_restores_out_of_order_completed_keys(self):
        # a checkpoint re-serialized with sort_keys (or hand-edited) may
        # iterate its completed dict out of index order; restore must
        # not strand on an already-leased lower index
        _, shards = make_split(3)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        while not coordinator.done:
            lease = coordinator.next_shard("w")
            coordinator.submit_result(
                lease["lease_id"],
                sweep_result_to_dict(run_shard(shards[lease["shard_index"]])),
            )
        state = coordinator.state_to_dict()
        state["completed"] = dict(
            sorted(state["completed"].items(), reverse=True)
        )
        restored = ShardCoordinator.from_state(state)
        assert restored.done
        assert (
            restored.result().sweep.records
            == coordinator.result().sweep.records
        )


class TestStreamingMergeParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    def test_single_worker_parity(self, num_shards):
        plan, shards = make_split(num_shards)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        summary = run_worker(
            transport=in_process_transport(
                ServiceApp(Session(backend="zoo"), coordinator=coordinator)
            ),
            session=Session(backend="zoo"),
            max_idle_polls=3,
        )
        assert summary["shards"] == num_shards
        merged = coordinator.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped
        assert merged.errors == serial.errors
        assert merged.stats["executor"] == "coordinated"
        assert merged.stats["shards"] == num_shards

    def test_concurrent_workers_parity(self):
        """Acceptance: N pull-based workers, streamed merge == serial."""
        plan, shards = make_split(4)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        app = ServiceApp(Session(backend="zoo"), coordinator=coordinator)
        summaries = []

        def worker(name):
            summaries.append(
                run_worker(
                    transport=in_process_transport(app),
                    session=Session(backend="zoo"),
                    worker_id=name,
                    max_idle_polls=50,
                    poll_seconds=0.01,
                )
            )

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(s["shards"] for s in summaries) == 4
        merged = coordinator.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped

    def test_lost_worker_is_reserved_to_another(self):
        """Acceptance: an injected worker failure re-leases the shard."""
        clock = FakeClock()
        plan, shards = make_split(3)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        coordinator = ShardCoordinator(shards, lease_seconds=30, clock=clock)
        # the doomed worker leases a shard and dies without submitting
        doomed = coordinator.next_shard("doomed")
        assert doomed["shard"] is not None
        clock.advance(31)

        summary = run_worker(
            transport=in_process_transport(
                ServiceApp(Session(backend="zoo"), coordinator=coordinator)
            ),
            session=Session(backend="zoo"),
            worker_id="survivor",
            max_idle_polls=3,
        )
        assert summary["shards"] == 3  # including the re-served one
        merged = coordinator.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.stats["leases_reclaimed"] == 1

    def test_errors_stream_through_the_merge(self):
        class Flaky(StubBackend):
            def generate(self, model, prompt, config):
                from repro.models import match_prompt_to_problem

                matched = match_prompt_to_problem(prompt)
                if matched is not None and matched[0].number == 2:
                    raise RuntimeError("boom")
                return super().generate(model, prompt, config)

        config = SweepConfig(
            temperatures=(0.1, 0.3),
            completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1, 2, 3),
        )
        plan = SweepPlanner(Flaky()).plan(config)
        serial = SweepExecutor(Flaky()).run(plan)
        assert serial.errors
        coordinator = ShardCoordinator(ShardPlanner(2).split(plan))
        run_worker(
            transport=in_process_transport(
                ServiceApp(Session(backend=Flaky()), coordinator=coordinator)
            ),
            session=Session(backend=Flaky()),
            max_idle_polls=3,
        )
        merged = coordinator.result()
        assert merged.errors == serial.errors
        assert merged.sweep.records == serial.sweep.records


class FailingZoo(LocalZooBackend):
    """The zoo, except one job fails: codegen-6b-ft on problem 2 at
    t=0.5, n=2.  Decided per job, so every path fails the same one;
    module-level, so it pickles into worker processes."""

    def generate(self, model, prompt, config):
        from repro.models import match_prompt_to_problem

        matched = match_prompt_to_problem(prompt)
        if (model, matched and matched[0].number, config.temperature,
                config.n) == ("codegen-6b-ft", 2, 0.5, 2):
            raise BackendError("injected failure")
        return super().generate(model, prompt, config)


def _serial(plan, tmp_path):
    return SweepExecutor(FailingZoo()).run(plan)


def _process(plan, tmp_path):
    return ProcessPoolSweepExecutor(FailingZoo(), workers=2).run(plan)


def _merged(plan, tmp_path):
    paths = []
    for shard in ShardPlanner(3).split(plan):
        path = str(tmp_path / f"shard{shard.shard_index}.json")
        save_shard_result(
            shard, SweepExecutor(FailingZoo()).run(shard.plan), path
        )
        paths.append(path)
    return merge_shard_files(paths)


def _coordinated(plan, tmp_path):
    coordinator = ShardCoordinator(job_ranges(plan, 4))
    run_worker(
        transport=in_process_transport(
            ServiceApp(Session(backend=FailingZoo()), coordinator=coordinator)
        ),
        session=Session(backend=FailingZoo()),
        max_idle_polls=3,
    )
    return coordinator.result()


def _streamed(plan, tmp_path):
    lines = []
    emit_sweep(plan, lambda frame: lines.append(encode_frame(frame)),
               FailingZoo(), workers=3)
    return assemble_stream_result(decode_stream(lines))


class TestFivePathParity:
    @pytest.mark.parametrize(
        "run", [_serial, _process, _merged, _coordinated, _streamed],
        ids=["serial", "process", "merged", "coordinated", "streamed"],
    )
    def test_records_skips_and_errors_match_serial(self, run, tmp_path):
        """Acceptance: a plan with planner skips and a failing job
        gives the same records, skips and errors on every path."""
        plan = SweepPlanner(FailingZoo()).plan(CONFIG, models=MODELS)
        serial = _serial(plan, tmp_path)
        assert len(serial.skipped) == 6  # j1-large at n=25
        assert [e.job.problem for e in serial.errors] == [2]
        result = run(plan, tmp_path)
        # the wire rounds inference_seconds: compare exports
        assert sweep_to_json(result.sweep) == sweep_to_json(serial.sweep)
        assert result.skipped == serial.skipped
        assert result.errors == serial.errors
        counts = ("jobs", "jobs_failed", "jobs_skipped", "records")
        assert [result.stats[key] for key in counts] == [
            serial.stats[key] for key in counts
        ]


class TestWorkerLoop:
    def test_worker_needs_url_or_transport(self):
        with pytest.raises(ValueError, match="url or transport"):
            run_worker()

    @pytest.mark.parametrize("poll_seconds", [0, -1])
    def test_non_positive_poll_rejected_before_first_request(
        self, poll_seconds
    ):
        calls = []

        def transport(method, path, payload=None):
            calls.append(path)
            return {"shard": None, "done": True}

        with pytest.raises(ValueError, match="poll_seconds"):
            run_worker(
                transport=transport,
                session=Session(backend="stub"),
                poll_seconds=poll_seconds,
            )
        assert calls == []

    def test_shard_routes_require_coordinator(self):
        app = ServiceApp(Session(backend="stub"))
        status, body = app.handle("POST", "/shard/next", {"worker_id": "w"})
        assert status == 400
        assert "no shard coordinator" in body["error"]
        status, _ = app.handle("GET", "/shard/status")
        assert status == 400

    def test_worker_gives_up_after_max_idle_polls(self):
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=1000)
        coordinator.next_shard("hog")  # everything leased elsewhere
        naps = []
        summary = run_worker(
            transport=in_process_transport(
                ServiceApp(Session(backend="zoo"), coordinator=coordinator)
            ),
            session=Session(backend="zoo"),
            max_idle_polls=3,
            sleep=naps.append,
        )
        assert summary["shards"] == 0
        assert summary["idle_polls"] == 3
        assert len(naps) == 2  # no nap after the give-up poll


    def test_idle_worker_survives_vanished_coordinator(self):
        # once a worker has reached the coordinator, the server going
        # away mid-poll (done + stopped, or shut down) ends the loop
        # cleanly instead of raising
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=1000)
        coordinator.next_shard("hog")  # worker will only ever idle-poll
        inner = in_process_transport(
            ServiceApp(Session(backend="zoo"), coordinator=coordinator)
        )
        polls = []

        def flaky_transport(method, path, payload=None):
            polls.append(path)
            if len(polls) > 1:
                raise ServiceUnreachableError("cannot reach eval service")
            return inner(method, path, payload)

        summary = run_worker(
            transport=flaky_transport,
            session=Session(backend="zoo"),
            sleep=lambda _s: None,
        )
        assert summary["coordinator_gone"] is True
        assert summary["shards"] == 0

    def test_answered_errors_still_raise_mid_poll(self):
        # only connection-class failures mean "gone"; an HTTP error or
        # malformed body from something answering the port must surface
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=1000)
        coordinator.next_shard("hog")
        inner = in_process_transport(
            ServiceApp(Session(backend="zoo"), coordinator=coordinator)
        )
        polls = []

        def wrong_server(method, path, payload=None):
            polls.append(path)
            if len(polls) > 1:
                raise BackendError("eval service 500 on /shard/next: boom")
            return inner(method, path, payload)

        with pytest.raises(BackendError, match="500"):
            run_worker(
                transport=wrong_server,
                session=Session(backend="zoo"),
                sleep=lambda _s: None,
            )

    def test_never_reached_coordinator_still_raises(self):
        def dead_transport(method, path, payload=None):
            raise ServiceUnreachableError("cannot reach eval service")

        with pytest.raises(BackendError, match="cannot reach"):
            run_worker(
                transport=dead_transport, session=Session(backend="stub")
            )

    def test_submit_retries_connection_blips(self):
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=1000)
        inner = in_process_transport(
            ServiceApp(Session(backend="zoo"), coordinator=coordinator)
        )
        blips = []

        def blippy(method, path, payload=None):
            if path == "/shard/result" and len(blips) < 2:
                blips.append(path)
                raise ServiceUnreachableError("connection reset")
            return inner(method, path, payload)

        naps = []
        summary = run_worker(
            transport=blippy,
            session=Session(backend="zoo"),
            sleep=naps.append,
        )
        # two blips retried, the executed shard was not thrown away
        assert len(blips) == 2 and len(naps) == 2
        assert summary["shards"] == 1
        assert coordinator.done


class TestCoordinatorHTTP:
    def test_session_coordinate_and_work_over_real_http(self):
        """Acceptance smoke: Session.coordinate + two HTTP workers."""
        config = SweepConfig(
            temperatures=(0.1,),
            completions_per_prompt=(2,),
            levels=(PromptLevel.LOW,),
            problem_numbers=(1, 2),
        )
        serial = Session(backend="zoo").run_sweep(config, models=MODELS)
        service = Session(backend="zoo").coordinate(
            2, config, models=MODELS, port=0
        )
        url = service.start()
        try:
            summaries = []

            def work():
                summaries.append(
                    Session(backend="zoo").work(
                        url=url, max_idle_polls=50, poll_seconds=0.02
                    )
                )

            threads = [threading.Thread(target=work) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            service.stop()
        assert sum(s["shards"] for s in summaries) == 2
        merged = service.coordinator.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped

    def test_work_against_unreachable_coordinator(self):
        with pytest.raises(BackendError, match="cannot reach"):
            Session(backend="stub").work(url="http://127.0.0.1:9")


class TestCheckpointPersistence:
    """Satellite: kill a coordinator mid-sweep, restore from its
    checkpoint file, and finish without re-running merged shards."""

    @staticmethod
    def _complete_one(coordinator, worker_id="w1"):
        from repro.service.sharding import shard_from_dict

        lease = coordinator.next_shard(worker_id)
        shard = shard_from_dict(lease["shard"])
        result = run_shard(shard)
        coordinator.submit_result(
            lease["lease_id"], sweep_result_to_dict(result)
        )
        return shard.shard_index

    def test_kill_and_resume_skips_completed_shards(self, tmp_path):
        from repro.service import load_checkpoint, save_checkpoint

        checkpoint = str(tmp_path / "coordinator.json")
        plan, shards = make_split(4)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)

        coordinator = ShardCoordinator(shards)
        finished = {self._complete_one(coordinator) for _ in range(2)}
        save_checkpoint(coordinator, checkpoint)
        del coordinator  # the "kill": nothing survives but the file

        restored = load_checkpoint(checkpoint)
        status = restored.status()
        assert status["done"] == 2 and status["pending"] == 2
        resumed = set()
        while not restored.done:
            resumed.add(self._complete_one(restored, "w2"))
        assert resumed == set(range(4)) - finished  # no re-runs
        merged = restored.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped

    def test_checkpoint_stores_completed_units_as_job_runs(self, tmp_path):
        import json

        from repro.eval.export import RUN_COLUMNS
        from repro.service import load_checkpoint, save_checkpoint

        checkpoint = str(tmp_path / "coordinator.json")
        plan, shards = make_split(2)
        coordinator = ShardCoordinator(shards)
        index = self._complete_one(coordinator)
        save_checkpoint(coordinator, checkpoint)
        completed = json.loads(Path(checkpoint).read_text())["completed"]
        runs = completed[str(index)]["records"]
        assert runs["columns"] == list(RUN_COLUMNS)
        assert len(runs["runs"]) == len(shards[index].plan.jobs)

        restored = load_checkpoint(checkpoint)
        self._complete_one(restored, "w2")
        merged = restored.result()
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        assert merged.sweep.records == serial.sweep.records

    def test_checkpoint_write_is_atomic(self, tmp_path):
        import json
        import os

        from repro.service import save_checkpoint

        checkpoint = str(tmp_path / "coordinator.json")
        _, shards = make_split(2)
        coordinator = ShardCoordinator(shards)
        save_checkpoint(coordinator, checkpoint)
        assert json.loads(Path(checkpoint).read_text())["shards"]
        assert not [
            name for name in os.listdir(tmp_path) if ".tmp-" in name
        ], "temp file left behind"

    def test_leased_shards_restore_as_pending(self, tmp_path):
        from repro.service import load_checkpoint, save_checkpoint

        checkpoint = str(tmp_path / "coordinator.json")
        _, shards = make_split(3)
        coordinator = ShardCoordinator(shards)
        self._complete_one(coordinator)
        coordinator.next_shard("doomed-worker")  # leased, never submitted
        save_checkpoint(coordinator, checkpoint)

        restored = load_checkpoint(checkpoint)
        status = restored.status()
        assert status["done"] == 1
        assert status["leased"] == 0  # the in-flight lease did not survive
        assert status["pending"] == 2

    def test_unreadable_checkpoint_raises(self, tmp_path):
        from repro.service import load_checkpoint

        path = tmp_path / "broken.json"
        path.write_text("{torn")
        with pytest.raises(ValueError):
            load_checkpoint(str(path))


class TestEnrichedStatus:
    def test_per_shard_rows_and_totals(self):
        from repro.service.sharding import shard_from_dict

        _, shards = make_split(3)
        coordinator = ShardCoordinator(shards)
        status = coordinator.status()
        assert status["jobs_total"] == sum(len(s.plan.jobs) for s in shards)
        assert status["jobs_done"] == 0
        assert status["store_hits"] == 0
        assert [row["state"] for row in status["shards"]] == ["pending"] * 3
        assert [row["jobs"] for row in status["shards"]] == [
            len(s.plan.jobs) for s in shards
        ]

        lease = coordinator.next_shard("worker-9")
        shard = shard_from_dict(lease["shard"])
        result = run_shard(shard)
        payload = sweep_result_to_dict(result)
        payload["stats"]["evaluator_cache"] = {
            "hits": 1, "misses": 2, "store_hits": 5,
        }
        coordinator.submit_result(lease["lease_id"], payload)

        status = coordinator.status()
        row = status["shards"][shard.shard_index]
        assert row["state"] == "done"
        assert row["records"] == len(result.sweep)
        assert row["errors"] == len(result.errors)
        assert row["worker_id"] == "worker-9"
        assert status["jobs_done"] == len(shard.plan.jobs)
        assert status["store_hits"] == 5

    def test_store_hits_tolerates_foreign_stats(self):
        from repro.service.sharding import shard_from_dict

        _, shards = make_split(2)
        coordinator = ShardCoordinator(shards)
        lease = coordinator.next_shard("w")
        shard = shard_from_dict(lease["shard"])
        payload = sweep_result_to_dict(run_shard(shard))
        payload["stats"]["evaluator_cache"] = "not-a-dict"
        coordinator.submit_result(lease["lease_id"], payload)
        assert coordinator.status()["store_hits"] == 0


class TestJobLeasing:
    """Job-granular units: a ``job_ranges`` cut leases contiguous
    ranges, so a straggler holds at most N jobs and expired leases
    re-balance individually."""

    @staticmethod
    def make_ranges(size):
        session = Session(backend="zoo")
        plan = session.plan(CONFIG, models=MODELS)
        return plan, job_ranges(plan, size)

    def test_units_cover_the_plan_in_ranges(self):
        plan, units = self.make_ranges(4)
        coordinator = ShardCoordinator(units)
        status = coordinator.status()
        expected_units = -(-len(plan.jobs) // 4)
        assert coordinator.num_units == expected_units
        assert status["num_units"] == expected_units
        assert status["jobs_total"] == len(plan.jobs)
        # every global job position exactly once, in consecutive ranges
        covered = []
        for unit in units:
            assert len(unit.plan.jobs) <= 4
            covered.extend(unit.job_indices)
        assert covered == list(range(len(plan.jobs)))
        # units serve the global plan's jobs in serial order
        assert [job for unit in units for job in unit.plan.jobs] == plan.jobs
        # each skip travels with exactly one unit
        assert plan.skipped
        assert [i for unit in units for i in unit.skip_indices] == list(
            range(len(plan.skipped))
        )

    def test_lease_jobs_validated(self):
        plan, _ = self.make_ranges(1)
        with pytest.raises(ValueError, match="size"):
            job_ranges(plan, 0)
        with pytest.raises(ValueError, match="size"):
            Session(backend="zoo").coordinate(1, CONFIG, port=0, lease_jobs=0)

    @pytest.mark.parametrize("lease_jobs", [1, 4, 100])
    def test_worker_parity_with_job_leases(self, lease_jobs):
        plan, units = self.make_ranges(lease_jobs)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        coordinator = ShardCoordinator(units, lease_seconds=60)
        summary = run_worker(
            transport=in_process_transport(
                ServiceApp(Session(backend="zoo"), coordinator=coordinator)
            ),
            session=Session(backend="zoo"),
            max_idle_polls=3,
        )
        assert summary["shards"] == coordinator.num_units
        merged = coordinator.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped
        assert merged.errors == serial.errors
        assert merged.stats["shards"] == len(units)

    def test_async_executor_worker_parity_with_job_leases(self):
        # the worker runs each leased unit on its session's executor:
        # a four-thread session fans every unit out over its pool and
        # the merge still equals the serial sweep record for record
        plan, units = self.make_ranges(3)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        coordinator = ShardCoordinator(units, lease_seconds=60)
        summary = Session(backend="zoo", executor="thread", workers=4).work(
            transport=in_process_transport(
                ServiceApp(Session(backend="zoo"), coordinator=coordinator)
            ),
            max_idle_polls=3,
        )
        assert summary["shards"] == coordinator.num_units > 1
        merged = coordinator.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped
        assert merged.errors == serial.errors
        assert {
            result.stats["executor"]
            for result in coordinator._results.values()
        } == {"thread"}

    def test_straggler_reserves_only_its_unfinished_jobs(self):
        """Acceptance: a stalled worker's expired lease re-serves just
        its job range — the rest of the sweep never waits for it."""
        clock = FakeClock()
        plan, units = self.make_ranges(3)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        coordinator = ShardCoordinator(units, lease_seconds=30, clock=clock)
        stalled = coordinator.next_shard("straggler")
        stalled_jobs = tuple(stalled["shard"]["job_indices"])
        assert len(stalled_jobs) <= 3

        # a healthy worker drains everything else while the straggler
        # holds its lease; only the stalled range stays un-merged
        survivor_app = ServiceApp(
            Session(backend="zoo"), coordinator=coordinator
        )
        run_worker(
            transport=in_process_transport(survivor_app),
            session=Session(backend="zoo"),
            worker_id="healthy",
            max_idle_polls=3,
        )
        status = coordinator.status()
        assert status["done"] == coordinator.num_units - 1
        assert status["pending"] + status["leased"] == 1

        # the lease expires: exactly the stalled range is re-served
        clock.advance(31)
        reserved = coordinator.next_shard("rescuer")
        assert tuple(reserved["shard"]["job_indices"]) == stalled_jobs
        assert reserved["lease_id"] != stalled["lease_id"]
        assert coordinator.status()["leases_reclaimed"] == 1
        from repro.service.sharding import shard_from_dict

        result = run_shard(shard_from_dict(reserved["shard"]))
        coordinator.submit_result(
            reserved["lease_id"], sweep_result_to_dict(result)
        )
        merged = coordinator.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped

    def test_checkpoint_round_trip_in_job_mode(self, tmp_path):
        from repro.service import load_checkpoint, save_checkpoint
        from repro.service.sharding import shard_from_dict

        checkpoint = str(tmp_path / "coordinator.json")
        plan, units = self.make_ranges(5)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        coordinator = ShardCoordinator(units)
        lease = coordinator.next_shard("w")
        coordinator.submit_result(
            lease["lease_id"],
            sweep_result_to_dict(run_shard(shard_from_dict(lease["shard"]))),
        )
        save_checkpoint(coordinator, checkpoint)

        restored = load_checkpoint(checkpoint)
        assert restored.units == coordinator.units
        assert restored.status()["done"] == 1
        while not restored.done:
            lease = restored.next_shard("w2")
            restored.submit_result(
                lease["lease_id"],
                sweep_result_to_dict(
                    run_shard(shard_from_dict(lease["shard"]))
                ),
            )
        merged = restored.result()
        assert merged.sweep.records == serial.sweep.records
        assert merged.skipped == serial.skipped


class TestOnePartition:
    """The coordinator serves any complete partition it is given and
    refuses anything else."""

    def test_accepts_a_split_and_a_range_cut_alike(self):
        plan, shards = make_split(3)
        serial = SweepExecutor(Session(backend="zoo").backend).run(plan)
        for units in (shards, job_ranges(plan, 4)):
            coordinator = ShardCoordinator(units)
            while not coordinator.done:
                lease = coordinator.next_shard("w")
                coordinator.submit_result(
                    lease["lease_id"],
                    sweep_result_to_dict(
                        run_shard(units[lease["shard_index"]])
                    ),
                )
            merged = coordinator.result()
            assert merged.sweep.records == serial.sweep.records
            assert merged.skipped == serial.skipped

    def test_rejects_a_mixed_unit_set(self):
        # two units each, indices 0 and 1, but from different cuts:
        # the job positions overlap and leave gaps
        plan, shards = make_split(2)
        ranges = job_ranges(plan, -(-len(plan.jobs) // 2))
        assert len(ranges) == 2
        with pytest.raises(ValueError, match="complete shard set"):
            ShardCoordinator([shards[0], ranges[1]])
        with pytest.raises(ValueError, match="complete shard set"):
            ShardCoordinator([ranges[0], shards[1]])

    def test_from_state_issues_no_leases(self):
        _, shards = make_split(3)
        coordinator = ShardCoordinator(shards)
        lease = coordinator.next_shard("w")
        coordinator.submit_result(
            lease["lease_id"],
            sweep_result_to_dict(run_shard(shards[lease["shard_index"]])),
        )
        restored = ShardCoordinator.from_state(coordinator.state_to_dict())
        assert restored._lease_counter == 0
        assert restored._leases == {} and restored._live_lease == {}
        assert restored.status()["leases"] == []
        assert restored.status()["workers"][0]["worker_id"] == "restore"

    def test_checkpoint_with_lease_jobs_is_refused(self):
        # a job-range checkpoint lists the split and a range size, and
        # numbers its completed units by range
        _, shards = make_split(2)
        state = ShardCoordinator(shards).state_to_dict()
        state["lease_jobs"] = 3
        state["completed"] = {}
        with pytest.raises(ValueError, match="lease_jobs"):
            ShardCoordinator.from_state(state)

    def test_shard_level_checkpoint_loads(self, tmp_path):
        import json

        from repro.service import load_checkpoint, shard_to_dict

        # the on-disk schema of a shard-level checkpoint
        _, shards = make_split(2)
        result = run_shard(shards[1])
        path = tmp_path / "shard-level.json"
        path.write_text(json.dumps({
            "lease_seconds": 42.0,
            "shards": [shard_to_dict(shard) for shard in shards],
            "completed": {"1": sweep_result_to_dict(result)},
        }))
        restored = load_checkpoint(str(path))
        status = restored.status()
        assert restored.lease_seconds == 42.0
        assert (status["done"], status["pending"]) == (1, 1)
        assert status["shards"][1]["records"] == len(result.sweep)


class TestLeasePruning:
    """Satellite: _leases must not grow without bound under churn."""

    def test_lease_churn_is_bounded(self):
        from repro.service.coordinator import SUPERSEDED_LEASE_CAP

        clock = FakeClock()
        _, shards = make_split(2)
        coordinator = ShardCoordinator(shards, lease_seconds=10, clock=clock)
        for _ in range(SUPERSEDED_LEASE_CAP * 30):
            coordinator.next_shard("churner")
            clock.advance(11)
        coordinator.next_shard("final")  # trigger one more reclaim
        assert len(coordinator._leases) <= coordinator.num_units
        assert (
            len(coordinator._superseded)
            <= SUPERSEDED_LEASE_CAP * coordinator.num_units
        )

    def test_churn_on_one_unit_never_evicts_anothers_lease(self):
        # the superseded bound is per unit: heavy expiry churn on unit 0
        # must not forget unit 1's single superseded lease, whose slow
        # worker can still submit salvageable work
        from repro.service.coordinator import SUPERSEDED_LEASE_CAP

        clock = FakeClock()
        _, shards = make_split(2)
        coordinator = ShardCoordinator(shards, lease_seconds=10, clock=clock)
        first = coordinator.next_shard("slow")  # lowest pending: unit 0
        other = coordinator.next_shard("slow-too")  # unit 1
        clock.advance(11)  # both expire into the superseded tail
        for _ in range(SUPERSEDED_LEASE_CAP * 10):
            lease = coordinator.next_shard("churner")
            assert lease["shard_index"] == first["shard_index"]
            clock.advance(11)
        ack = coordinator.submit_result(
            other["lease_id"],
            sweep_result_to_dict(run_shard(shards[other["shard_index"]])),
        )
        assert ack["accepted"] is True
        assert ack["worker_id"] == "slow-too"

    def test_done_unit_leases_are_pruned(self):
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        lease = coordinator.next_shard("w")
        result = sweep_result_to_dict(run_shard(shards[0]))
        coordinator.submit_result(lease["lease_id"], result)
        assert coordinator._leases == {}
        assert coordinator._superseded == {}
        # a retry of the same (now pruned) lease still gets its ack
        late = coordinator.submit_result(lease["lease_id"], result)
        assert late["duplicate"] is True

    def test_well_formed_unknown_lease_for_done_unit_is_duplicate(self):
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=60)
        lease = coordinator.next_shard("w")
        result = sweep_result_to_dict(run_shard(shards[0]))
        coordinator.submit_result(lease["lease_id"], result)
        # never-issued but well-formed id naming the DONE unit: a very
        # late worker whose lease aged out just needs the duplicate ack
        late = coordinator.submit_result("lease-999-s0", result)
        assert late["accepted"] is False and late["duplicate"] is True
        # ...but for a unit that is NOT done, it stays unknown
        with pytest.raises(ValueError, match="unknown lease"):
            ShardCoordinator(shards).submit_result("lease-999-s0", result)

    def test_superseded_lease_still_submits_before_done(self):
        # the pre-prune behaviour survives: an expired (superseded)
        # lease's late submission for a not-yet-done unit is salvaged
        clock = FakeClock()
        _, shards = make_split(1)
        coordinator = ShardCoordinator(shards, lease_seconds=30, clock=clock)
        stale = coordinator.next_shard("slow")
        clock.advance(31)
        coordinator.next_shard("fast")  # re-leased to someone else
        ack = coordinator.submit_result(
            stale["lease_id"], sweep_result_to_dict(run_shard(shards[0]))
        )
        assert ack["accepted"] is True
        assert ack["worker_id"] == "slow"
        assert coordinator.done
