"""Tests for the cross-process verdict store (repro.eval.store) and its
Evaluator / executor / Session integration."""

import json
import os
import pickle

import pytest

from repro.api import Session
from repro.backends import create_backend
from repro.eval import (
    CompletionEvaluation,
    Evaluator,
    SweepConfig,
    SweepExecutor,
    SweepPlanner,
    VerdictStore,
    resolve_store,
)
from repro.models.base import stable_hash
from repro.problems import PromptLevel, get_problem
from repro.service import ProcessPoolSweepExecutor

SMALL = SweepConfig(
    temperatures=(0.1,),
    completions_per_prompt=(2,),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2),
)


class CountingEvaluator(Evaluator):
    """Evaluator that counts real compile+simulate invocations."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.uncached_calls = 0

    def _evaluate_uncached(self, problem, truncated, level):
        self.uncached_calls += 1
        return super()._evaluate_uncached(problem, truncated, level)


class TestVerdictStore:
    def test_round_trip(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        verdict = CompletionEvaluation(
            compiled=False, passed=False,
            compile_errors=("syntax error", "unexpected token"),
        )
        store.put(3, 12345, verdict)
        assert store.get(3, 12345) == verdict
        assert len(store) == 1

    def test_missing_key_is_none(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        assert store.get(1, 999) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.put(1, 7, CompletionEvaluation(compiled=True, passed=True))
        with open(store._entry_path(1, 7), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.get(1, 7) is None

    def test_vanished_directory_degrades_not_raises(self, tmp_path):
        store = VerdictStore(str(tmp_path / "gone"))
        import shutil

        shutil.rmtree(store.path)
        store.put(1, 7, CompletionEvaluation(compiled=True, passed=True))
        assert store.get(1, 7) is None
        assert len(store) == 0

    def test_clear(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        for key in range(3):
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
        assert store.clear() == 3
        assert len(store) == 0

    def test_picklable(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.put(1, 1, CompletionEvaluation(compiled=True, passed=False))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.path == store.path
        assert clone.get(1, 1) == store.get(1, 1)

    def test_resolve_store(self, tmp_path):
        assert resolve_store(None) is None
        store = VerdictStore(str(tmp_path))
        assert resolve_store(store) is store
        coerced = resolve_store(str(tmp_path))
        assert isinstance(coerced, VerdictStore)
        assert coerced.path == str(tmp_path)


class TestEvaluatorIntegration:
    def test_store_hit_skips_recompilation(self, tmp_path):
        """Acceptance: a warm store avoids compile+simulate entirely."""
        store = VerdictStore(str(tmp_path))
        problem = get_problem(1)
        completion = problem.canonical_body

        first = CountingEvaluator(store=store)
        verdict = first.evaluate(problem, completion)
        assert first.uncached_calls == 1
        assert len(store) == 1

        second = CountingEvaluator(store=store)  # fresh process stand-in
        assert second.evaluate(problem, completion) == verdict
        assert second.uncached_calls == 0
        assert second.store_hits == 1
        assert second.cache_info["store_hits"] == 1
        # now in the memory cache: third evaluation touches neither
        second.evaluate(problem, completion)
        assert second.cache_hits == 1 and second.store_hits == 1

    def test_cache_info_shape_without_store(self):
        assert "store_hits" not in Evaluator().cache_info

    def test_sweep_executors_share_store(self, tmp_path):
        backend = create_backend("zoo")
        plan = SweepPlanner(backend).plan(SMALL, models=["codegen-6b-ft"])
        store = VerdictStore(str(tmp_path))

        cold = CountingEvaluator(store=store)
        baseline = SweepExecutor(backend, evaluator=cold).run(plan)
        assert cold.uncached_calls > 0

        warm = CountingEvaluator(store=store)
        rerun = SweepExecutor(backend, evaluator=warm).run(plan)
        assert warm.uncached_calls == 0
        assert warm.store_hits == cold.uncached_calls
        assert rerun.sweep.records == baseline.sweep.records

    def test_process_pool_workers_write_the_shared_store(self, tmp_path):
        backend = create_backend("zoo")
        plan = SweepPlanner(backend).plan(SMALL, models=["codegen-6b-ft"])
        store = VerdictStore(str(tmp_path))
        result = ProcessPoolSweepExecutor(
            backend, workers=2, store=store
        ).run(plan)
        assert len(result.sweep) > 0
        assert len(store) > 0
        # a local evaluator warm-starts from what the workers persisted
        warm = CountingEvaluator(store=store)
        SweepExecutor(backend, evaluator=warm).run(plan)
        assert warm.uncached_calls == 0

    def test_store_key_matches_truncated_completion(self, tmp_path):
        # the store key is the truncated text's hash: trailing junk after
        # endmodule must not produce a second entry
        from repro.eval import truncate_completion

        store = VerdictStore(str(tmp_path))
        problem = get_problem(1)
        completion = problem.canonical_body
        evaluator = Evaluator(store=store)
        evaluator.evaluate(problem, completion)
        noisy = completion + "\n// trailing explanation prose"
        assert truncate_completion(noisy) == truncate_completion(completion)
        fresh = Evaluator(store=store)
        fresh.evaluate(problem, noisy)
        assert fresh.store_hits == 1
        assert store.get(
            problem.number, stable_hash(truncate_completion(completion))
        ) is not None


class TestSessionIntegration:
    def test_session_store_warm_start(self, tmp_path):
        path = str(tmp_path / "verdicts")
        first = Session(backend="zoo", store=path)
        baseline = first.run_sweep(SMALL, models=["codegen-6b-ft"])
        assert first.evaluator.store_hits == 0
        assert len(first.store) > 0

        second = Session(backend="zoo", store=path)
        rerun = second.run_sweep(SMALL, models=["codegen-6b-ft"])
        assert second.evaluator.store_hits > 0
        assert second.evaluator.cache_misses == 0
        assert rerun.sweep.records == baseline.sweep.records

    def test_session_attaches_store_to_existing_evaluator(self, tmp_path):
        evaluator = Evaluator()
        session = Session(
            backend="stub", evaluator=evaluator, store=str(tmp_path)
        )
        assert evaluator.store is session.store
        assert session.store.path == str(tmp_path)

    def test_session_process_executor_gets_store(self, tmp_path):
        session = Session(
            backend="zoo", executor="process", workers=2, store=str(tmp_path)
        )
        executor = session.make_executor()
        assert executor.store is session.store


class TestPackedFormat:
    """Satellite: fold the one-file-per-verdict directory into a single
    append-friendly JSONL the store reads through (inode hygiene)."""

    @staticmethod
    def _seed(store, count=6, problem=1):
        verdicts = {}
        for index in range(count):
            verdict = CompletionEvaluation(
                compiled=True, passed=bool(index % 2)
            )
            store.put(problem, index, verdict)
            verdicts[index] = verdict
        return verdicts

    def test_pack_reads_through_and_drops_files(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        verdicts = self._seed(store)
        packed = store.pack()
        assert packed == 6
        names = os.listdir(store.path)
        assert names == ["pack.jsonl"]  # every entry file folded in
        assert len(store) == 6
        for index, verdict in verdicts.items():
            assert store.get(1, index) == verdict
        assert store.get(1, 999) is None

    def test_fresh_writes_shadow_the_pack(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=3)
        store.pack()
        newer = CompletionEvaluation(compiled=False, passed=False)
        store.put(1, 0, newer)  # individual file again: strictly newer
        assert store.get(1, 0) == newer
        assert len(store) == 3  # same key, counted once
        assert store.pack() == 1  # folds the fresh file back in
        assert store.get(1, 0) == newer  # later pack lines win

    def test_unpack_restores_files_and_removes_pack(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        verdicts = self._seed(store, count=4)
        store.pack()
        restored = store.unpack()
        assert restored == 4
        assert "pack.jsonl" not in os.listdir(store.path)
        assert len(store) == 4
        for index, verdict in verdicts.items():
            assert store.get(1, index) == verdict

    def test_corrupt_pack_lines_read_as_misses(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=2)
        store.pack()
        with open(store.pack_path, "a", encoding="utf-8") as handle:
            handle.write("{torn line\n")
        good = CompletionEvaluation(compiled=True, passed=True)
        store.put(2, 7, good)
        store.pack()
        assert store.get(1, 0) is not None  # pre-corruption entries fine
        assert store.get(2, 7) == good      # post-corruption appends fine

    def test_another_process_sees_a_new_pack(self, tmp_path):
        path = str(tmp_path / "verdicts")
        writer = VerdictStore(path)
        reader = VerdictStore(path)
        self._seed(writer, count=2)
        assert reader.get(1, 0) is not None  # via the entry file
        writer.pack()
        assert reader.get(1, 1) is not None  # via the (new) pack file

    def test_clear_removes_packed_entries_too(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=5)
        store.pack()
        self._seed(store, count=2, problem=3)
        assert store.clear() == 7
        assert len(store) == 0
        assert os.listdir(store.path) == []

    def test_packed_store_still_pickles(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=2)
        store.pack()
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get(1, 1) is not None

    def test_stats_counts_both_forms(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=3)
        store.pack()
        self._seed(store, count=1, problem=5)
        stats = store.stats()
        assert stats == {
            "entries": 4,
            "files": 0,
            "packed": 3,
            "segments": 1,
            "pack_file": store.pack_path,
        }

    def test_evaluator_reads_through_packed_store(self, tmp_path):
        problem = get_problem(1)
        completion = problem.canonical_body
        store = VerdictStore(str(tmp_path / "verdicts"))
        warm = CountingEvaluator(store=store)
        warm.evaluate(problem, completion)
        assert warm.uncached_calls == 1
        store.pack()
        cold = CountingEvaluator(store=VerdictStore(store.path))
        cold.evaluate(problem, completion)
        assert cold.uncached_calls == 0  # verdict came from the pack
        assert cold.store_hits == 1

    def test_pack_spares_foreign_files(self, tmp_path, capsys):
        import json
        import os

        from repro.cli import main

        # a stray note, and the simcache/ plan directory older versions
        # left inside verdict stores
        foreign_inputs = {
            "notes": ("notes.json", {"todo": "not a verdict"}),
            "simcache": (os.path.join("simcache", "s_" + "0" * 16 + ".json"),
                         {"version": 1, "two_state": True}),
        }
        for name, (relpath, payload) in foreign_inputs.items():
            store = VerdictStore(str(tmp_path / name))
            self._seed(store, count=2)
            foreign = os.path.join(store.path, relpath)
            os.makedirs(os.path.dirname(foreign), exist_ok=True)
            with open(foreign, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            assert store.pack() == 2  # only the real verdicts folded
            assert os.path.exists(foreign)  # foreign file left untouched
            assert len(store) == 2
            assert main(["store", "info", store.path]) == 0
            out = capsys.readouterr().out
            assert out.splitlines() == [
                f"store {store.path}: 2 entries "
                "(0 files, 0 segments, 2 packed)"
            ]
            assert store.clear() == 2  # verdicts only
            assert os.path.exists(foreign)

    def test_unpack_keeps_pack_on_partial_failure(self, tmp_path, monkeypatch):
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=3)
        store.pack()
        real_replace = os.replace
        calls = {"n": 0}

        def flaky_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        assert store.unpack() == 2  # one restore failed
        monkeypatch.undo()
        assert os.path.exists(store.pack_path)  # verdicts not lost
        assert len(store) == 3
        assert store.unpack() == 1  # second attempt finishes the job
        assert not os.path.exists(store.pack_path)


class TestPackCompaction:
    """Satellite: pack() appends forever; compact() rewrites the pack
    with one line per live key, atomically and idempotently."""

    @staticmethod
    def _pack_lines(store):
        with open(store.pack_path, encoding="utf-8") as handle:
            return [line for line in handle if line.strip()]

    def test_repeated_pack_cycles_leave_duplicates_compact_removes(
        self, tmp_path
    ):
        store = VerdictStore(str(tmp_path))
        verdicts = {
            key: CompletionEvaluation(compiled=True, passed=bool(key % 2))
            for key in range(4)
        }
        for cycle in range(3):
            for key, verdict in verdicts.items():
                store.put(1, key, verdict)
            store.pack()
        assert len(self._pack_lines(store)) == 12  # 3 cycles x 4 keys
        removed = store.compact()
        assert removed == 8
        assert len(self._pack_lines(store)) == 4
        for key, verdict in verdicts.items():
            assert store.get(1, key) == verdict
        assert store.compact() == 0  # idempotent
        assert len(store) == 4

    def test_compact_without_pack_is_noop(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        assert store.compact() == 0
        store.put(1, 1, CompletionEvaluation(compiled=True, passed=True))
        assert store.compact() == 0  # files only, still no pack

    def test_compact_drops_corrupt_lines(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.put(1, 1, CompletionEvaluation(compiled=True, passed=True))
        store.pack()
        with open(store.pack_path, "a", encoding="utf-8") as handle:
            handle.write("{torn line\n")
        assert store.compact() == 1
        assert store.get(1, 1) is not None

    def test_compact_is_atomic_no_temp_left(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path))
        for key in range(3):
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
            store.pack()  # one pack per put -> no duplicates yet
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
        store.pack()
        store.compact()
        assert not [n for n in os.listdir(tmp_path) if ".tmp-" in n]

    def test_cli_store_compact(self, tmp_path, capsys):
        from repro.cli import main

        store = VerdictStore(str(tmp_path))
        for _ in range(2):
            store.put(2, 9, CompletionEvaluation(compiled=True, passed=True))
            store.pack()
        code = main(["store", "compact", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "dropped 1 dead line" in out
        assert main(["store", "compact", str(tmp_path)]) == 0
        assert "dropped 0 dead line" in capsys.readouterr().out


class TestClearAccounting:
    """Satellite regression: clear() must not count keys that survive a
    failed pack unlink as removed."""

    def test_clear_counts_packed_keys_once(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        for key in range(3):
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
        store.pack()
        store.put(1, 99, CompletionEvaluation(compiled=True, passed=False))
        assert store.clear() == 4
        assert len(store) == 0

    def test_failed_pack_unlink_not_counted_as_removed(
        self, tmp_path, monkeypatch
    ):
        import os

        store = VerdictStore(str(tmp_path))
        for key in range(3):
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
        store.pack()  # all three keys now live only in the pack
        store.put(1, 99, CompletionEvaluation(compiled=True, passed=False))

        real_unlink = os.unlink

        def stubborn_pack(path, *args, **kwargs):
            if str(path) == store.pack_path:
                raise PermissionError("pack is read-only")
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", stubborn_pack)
        removed = store.clear()
        assert removed == 1  # only the un-packed file actually went away
        assert len(store) == 3  # packed verdicts still readable
        assert store.get(1, 0) is not None


def _verdict(key: int) -> CompletionEvaluation:
    return CompletionEvaluation(compiled=True, passed=bool(key % 2))


def _put_range(path, start, count, barrier):
    """Child process body: put ``count`` keys from ``start`` on."""
    store = VerdictStore(path)
    barrier.wait()
    for key in range(start, start + count):
        store.put(1, key, _verdict(key))


def _segment_line(key: str, verdict) -> bytes:
    from repro.eval.export import evaluation_to_dict

    return (json.dumps({"key": key, "verdict": evaluation_to_dict(verdict)})
            + "\n").encode()


class TestSegmentLog:
    """Fresh verdicts append to one segment file per writing store; the
    reader indexes entry locations and follows live writers."""

    def test_concurrent_writers_share_every_key(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "verdicts")
        VerdictStore(path)
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        workers = [
            context.Process(target=_put_range, args=(path, start, 150, barrier))
            for start in (0, 150)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
            assert worker.exitcode == 0
        reader = VerdictStore(path)
        assert reader.keys() == {VerdictStore._key(1, k) for k in range(300)}
        assert all(reader.get(1, k) == _verdict(k) for k in range(300))
        assert reader.stats()["segments"] == 2
        assert reader.pack() == 300  # both writers are gone: both fold
        assert os.listdir(path) == ["pack.jsonl"]
        assert all(VerdictStore(path).get(1, k) == _verdict(k)
                   for k in range(300))

    def test_threads_share_one_segment_without_torn_lines(self, tmp_path):
        import sys
        import threading

        store = VerdictStore(str(tmp_path / "verdicts"))
        misread = []

        def work(base):
            for key in range(60):
                store.put(base, key, _verdict(key))
                if store.get(base, key) != _verdict(key):
                    misread.append((base, key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(base,))
                       for base in range(1, 9)]  # more threads than cores
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert misread == []
        (segment,) = [n for n in os.listdir(store.path) if n.endswith("l")]
        with open(os.path.join(store.path, segment), "rb") as handle:
            keys = [json.loads(line)["key"] for line in handle]
        assert sorted(keys) == sorted(
            VerdictStore._key(base, key)
            for base in range(1, 9) for key in range(60))
        fresh = VerdictStore(store.path)
        assert all(fresh.get(base, key) == _verdict(key)
                   for base in range(1, 9) for key in range(60))

    def test_torn_last_line_is_a_miss_until_complete(self, tmp_path):
        import fcntl

        path = str(tmp_path / "verdicts")
        reader = VerdictStore(path)
        first = _segment_line(VerdictStore._key(1, 1), _verdict(1))
        second = _segment_line(VerdictStore._key(1, 2), _verdict(2))
        with open(os.path.join(path, "seg-1-ab.jsonl"), "ab",
                  buffering=0) as writer:
            fcntl.flock(writer.fileno(), fcntl.LOCK_EX)  # a live writer
            writer.write(first + second[:40])
            assert reader.get(1, 1) == _verdict(1)
            assert reader.get(1, 2) is None
            assert reader.keys() == {VerdictStore._key(1, 1)}
            writer.write(second[40:])
            assert reader.get(1, 2) == _verdict(2)
            assert reader.pack() == 0  # the writer is alive: not folded
        assert reader.pack() == 2

    def test_reads_and_packs_a_store_of_entry_files(self, tmp_path):
        from repro.eval.export import evaluation_to_dict

        path = str(tmp_path / "verdicts")
        os.makedirs(path)
        for key in range(3):  # one file per verdict, as older writers did
            name = VerdictStore._filename(1, key)
            with open(os.path.join(path, name), "w") as handle:
                json.dump(evaluation_to_dict(_verdict(key)), handle)
        with open(os.path.join(path, "pack.jsonl"), "wb") as handle:
            for key in range(3, 6):
                handle.write(_segment_line(VerdictStore._key(1, key),
                                           _verdict(key)))
        store = VerdictStore(path)
        assert all(store.get(1, k) == _verdict(k) for k in range(6))
        assert store.stats() == {
            "entries": 6, "files": 3, "packed": 3, "segments": 0,
            "pack_file": store.pack_path,
        }
        assert store.pack() == 3
        assert os.listdir(path) == ["pack.jsonl"]
        assert all(store.get(1, k) == _verdict(k) for k in range(6))
        assert VerdictStore(path).stats()["packed"] == 6

    def test_writing_while_another_store_packs_loses_nothing(self, tmp_path):
        import threading

        path = str(tmp_path / "verdicts")
        writer, packer = VerdictStore(path), VerdictStore(path)
        for key in range(20):  # a finished writer's segment, to fold
            packer.put(2, key, _verdict(key))
        done = threading.Event()

        def write():
            for key in range(400):
                writer.put(1, key, _verdict(key))
            done.set()

        thread = threading.Thread(target=write)
        thread.start()
        folded = 0
        while not done.is_set():
            folded += packer.pack()
        thread.join()
        folded += packer.pack()
        assert folded == 20  # the live writer's segment was never folded
        expected = ({VerdictStore._key(1, k) for k in range(400)}
                    | {VerdictStore._key(2, k) for k in range(20)})
        assert VerdictStore(path).keys() == expected
        writer.close()  # its writer gone, the segment folds
        assert packer.pack() == 400
        fresh = VerdictStore(path)
        assert fresh.keys() == expected
        assert fresh.stats()["segments"] == 0
        assert all(fresh.get(1, k) == _verdict(k) for k in range(400))

    def test_clear_under_a_live_writer(self, tmp_path):
        path = str(tmp_path / "verdicts")
        writer = VerdictStore(path)
        writer.put(1, 1, _verdict(1))
        assert VerdictStore(path).clear() == 1
        writer.put(1, 2, _verdict(2))  # its segment is gone: a new one
        fresh = VerdictStore(path)
        assert fresh.get(1, 1) is None
        assert fresh.get(1, 2) == _verdict(2)
        assert fresh.stats()["segments"] == 1

    def test_forked_store_writes_its_own_segment(self, tmp_path):
        path = str(tmp_path / "verdicts")
        store = VerdictStore(path)
        store.put(1, 1, _verdict(1))
        pid = os.fork()
        if pid == 0:  # the child: same object, inherited segment
            code = 1
            try:
                store.put(1, 2, _verdict(2))
                code = 0 if store.get(1, 1) == _verdict(1) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        store.put(1, 3, _verdict(3))
        segments = sorted(n for n in os.listdir(path) if n.startswith("seg-"))
        assert len(segments) == 2
        assert {name.split("-")[1] for name in segments} == {
            str(os.getpid()), str(pid)}
        fresh = VerdictStore(path)
        assert all(fresh.get(1, k) == _verdict(k) for k in (1, 2, 3))
        for name in segments:  # one writer per segment: no mixed lines
            with open(os.path.join(path, name), "rb") as handle:
                keys = [json.loads(line)["key"] for line in handle]
            assert keys in ([VerdictStore._key(1, 1), VerdictStore._key(1, 3)],
                            [VerdictStore._key(1, 2)])

    def test_miss_on_unchanged_directory_lists_nothing(
        self, tmp_path, monkeypatch
    ):
        import time

        path = str(tmp_path / "verdicts")
        writer, reader = VerdictStore(path), VerdictStore(path)
        writer.put(1, 1, _verdict(1))
        long_ago = time.time_ns() - 10 ** 10
        os.utime(path, ns=(long_ago, long_ago))  # settled since
        assert writer.get(1, 2) is None
        assert reader.get(1, 1) == _verdict(1)
        listings = []
        real_listdir = os.listdir

        def counting_listdir(*args):
            listings.append(args)
            return real_listdir(*args)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        assert writer.get(1, 3) is None
        assert reader.get(1, 4) is None
        writer.put(1, 5, _verdict(5))  # appends: the directory stands still
        assert reader.get(1, 5) == _verdict(5)  # read from the live tail
        assert listings == []
        VerdictStore(path).put(2, 1, _verdict(1))  # a new segment appears
        assert reader.get(2, 1) == _verdict(1)
        assert listings
