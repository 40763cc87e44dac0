"""Cross-process on-disk verdict cache.

The in-memory :class:`~repro.eval.pipeline.Evaluator` cache collapses
duplicate completions within one process, but every process-pool worker
(and every machine in a coordinated fleet) used to rebuild it from
scratch — the ROADMAP's "cross-process evaluator cache" opening.
:class:`VerdictStore` closes it: verdicts persist to a directory keyed
by ``(problem number, completion hash)``, one small JSON file per entry,
so any evaluator pointed at the same path — a later run, a sibling
worker process, a pull-based coordinator worker — skips the compile and
simulation entirely.

The store is a :class:`KeyedJsonStore` — a directory-backed
``key -> JSON payload`` map with atomic file writes, a JSONL pack
format, and compaction — holding ``p<problem>_<hash>.json`` files with
full :class:`~repro.eval.report.CompletionEvaluation` codecs.  Entry
filenames must match the store's key pattern, so foreign ``.json``
files and subdirectories (such as the ``simcache/`` directory older
versions left behind) are never counted, packed, or deleted.

Concurrency model: writes go through a per-process temp file renamed
into place (``os.replace`` is atomic on POSIX and Windows), so readers
never observe a half-written entry.  Two processes racing on the same
uncached key may both evaluate and both write; evaluation is pure, so
the duplicate work is bounded and the last rename wins with an
identical payload.  Corrupt or foreign files read as misses.

One file per entry is simple but inode-hungry: a million-completion
sweep leaves a million tiny files behind.  :meth:`KeyedJsonStore.pack`
compacts the directory into one append-friendly JSONL file
(``pack.jsonl``, one ``{"key", <payload field>}`` object per line,
later lines win) that the store reads through transparently — fresh
entries still land as individual files (atomic, contention-free) and
shadow the pack, so packing is safe on a live store; run it again any
time to fold the new files in.  Because packing only appends, repeated
cycles leave shadowed duplicate lines behind —
:meth:`KeyedJsonStore.compact` rewrites the pack with one line per live
key (atomic replace, idempotent; safe against readers and file
writers, but do not run it while another process is packing the same
store).  :meth:`KeyedJsonStore.unpack` reverses packing.  The CLI
drives all three — ``python -m repro store {pack,compact,unpack} DIR``.

The store is picklable (it carries only its path), so
:class:`~repro.service.process.ProcessPoolSweepExecutor` ships it to
workers the same way it ships the backend.
"""

from __future__ import annotations

import json
import os
import re

from .export import evaluation_from_dict, evaluation_to_dict

PACK_FILENAME = "pack.jsonl"

#: verdict entry filenames: p<problem>_<16-hex-digit completion hash>
_ENTRY_RE = re.compile(r"^p\d{2,}_[0-9a-f]{16,}\.json$")

#: compiled-sim plan entry filenames: s_<16-hex-digit source hash>
_SIM_ENTRY_RE = re.compile(r"^s_[0-9a-f]{16,}\.json$")


class KeyedJsonStore:
    """Directory-backed ``key -> JSON payload`` map with pack support.

    Subclasses pin down the key shape (:data:`ENTRY_RE`), the pack-line
    payload field name (:data:`PAYLOAD_FIELD`) and, optionally, a
    payload codec (:meth:`_encode_payload` / :meth:`_decode_payload`
    both default to identity on plain JSON objects).
    """

    #: filenames that belong to this store (everything else is foreign)
    ENTRY_RE: "re.Pattern[str]" = re.compile(r"^[A-Za-z0-9_]+\.json$")
    #: pack-line field carrying the payload (kept per-store for
    #: backward compatibility with packs written before the refactor)
    PAYLOAD_FIELD = "payload"

    def __init__(self, path: str):
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        # packed-index cache: (stat signature, {key -> payload row})
        self._packed: "tuple[tuple[int, int], dict[str, dict]] | None" = None

    def __getstate__(self) -> dict:
        return {"path": self.path}  # the index cache never crosses pickles

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._packed = None

    # ------------------------------------------------------------------
    # Payload codec (identity by default; rows must be JSON objects)
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_payload(payload) -> dict:
        return dict(payload)

    @staticmethod
    def _decode_payload(row: dict):
        return dict(row)

    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> str:
        return os.path.join(self.path, f"{key}.json")

    @property
    def pack_path(self) -> str:
        return os.path.join(self.path, PACK_FILENAME)

    # ------------------------------------------------------------------
    # Packed index (read-through; invalidated when the file changes)
    # ------------------------------------------------------------------
    def _packed_index(self) -> dict[str, dict]:
        """The pack file as key -> payload row ({} when absent).

        Cached per stat signature (mtime_ns, size), so a pack rewritten
        by another process — or by :meth:`pack` in this one — is picked
        up on the next read; corrupt lines read as misses.
        """
        try:
            stat = os.stat(self.pack_path)
            signature = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            self._packed = None
            return {}
        if self._packed is not None and self._packed[0] == signature:
            return self._packed[1]
        index: dict[str, dict] = {}
        try:
            with open(self.pack_path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                        index[str(row["key"])] = dict(row[self.PAYLOAD_FIELD])
                    except (ValueError, KeyError, TypeError):
                        continue  # torn/foreign line: skip, keep reading
        except OSError:
            return {}
        self._packed = (signature, index)
        return index

    # ------------------------------------------------------------------
    def get_key(self, key: str):
        """The stored payload, or ``None`` (missing or unreadable).

        Individual files win over the pack: they are strictly newer
        (everything packed had its file deleted).
        """
        try:
            with open(self._path_for(key), encoding="utf-8") as handle:
                return self._decode_payload(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError):
            pass
        row = self._packed_index().get(key)
        if row is None:
            return None
        try:
            return self._decode_payload(row)
        except (ValueError, KeyError, TypeError):
            return None

    def put_key(self, key: str, payload) -> None:
        """Persist one payload atomically (temp file + rename)."""
        target = self._path_for(key)
        temp = f"{target}.tmp-{os.getpid()}"
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                json.dump(self._encode_payload(payload), handle)
            os.replace(temp, target)
        except OSError:
            # a read-only or vanished store degrades to a cache miss,
            # never a failed evaluation
            try:
                os.unlink(temp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Packing (inode hygiene for million-completion sweeps)
    # ------------------------------------------------------------------
    def _entry_files(self) -> list[str]:
        """Store-shaped entry filenames only: foreign ``.json`` files in
        the directory are invisible — never counted, packed, or
        deleted."""
        try:
            return sorted(
                name
                for name in os.listdir(self.path)
                if self.ENTRY_RE.match(name)
            )
        except OSError:
            return []

    def pack(self) -> int:
        """Fold every individual entry file into the pack; return count.

        Appends to an existing pack (later lines win on read, and an
        entry is immutable anyway), then deletes the folded files —
        crash-safe in that order: a death between append and unlink
        leaves both copies, which agree.  Only files that carry the
        store's key naming *and* decode as payloads are folded; torn or
        foreign files are left exactly where they are.
        """
        packed = 0
        with open(self.pack_path, "a", encoding="utf-8") as handle:
            for name in self._entry_files():
                entry = os.path.join(self.path, name)
                try:
                    with open(entry, encoding="utf-8") as source:
                        row = json.load(source)
                    self._decode_payload(row)  # must decode as a payload
                except (OSError, ValueError, KeyError, TypeError):
                    continue  # torn or foreign: leave the file alone
                handle.write(
                    json.dumps(
                        {"key": name[: -len(".json")],
                         self.PAYLOAD_FIELD: row}
                    )
                    + "\n"
                )
                handle.flush()
                try:
                    os.unlink(entry)
                except OSError:
                    pass
                packed += 1
        self._packed = None
        return packed

    def compact(self) -> int:
        """Rewrite the pack without dead lines; return how many died.

        :meth:`pack` only ever appends (later lines win on read), so a
        key re-packed across cycles leaves its shadowed older lines in
        the file forever — harmless for correctness, but the pack grows
        without bound under repeated pack cycles.  Compaction rewrites
        the pack with exactly one line per live key (torn/foreign lines
        are dropped too — the reader already ignores them) through a
        temp file + atomic replace, so a crash mid-compact leaves the
        previous pack intact.  Idempotent: a second run removes 0.

        Unlike :meth:`pack`, compaction is a maintenance operation: it
        is safe against concurrent *readers and file writers* (they
        never touch the pack), but must not race another process's
        ``pack()`` on the same store — lines pack appends after the
        compaction snapshot is read would be discarded by the replace,
        and pack has already unlinked their source files.  Run compact
        when nothing is packing.
        """
        index = self._packed_index()
        total_lines = 0
        try:
            with open(self.pack_path, encoding="utf-8") as handle:
                total_lines = sum(1 for line in handle if line.strip())
        except OSError:
            return 0  # no pack: nothing to compact
        removed = total_lines - len(index)
        if removed <= 0:
            return 0
        temp = f"{self.pack_path}.tmp-{os.getpid()}"
        try:
            with open(temp, "w", encoding="utf-8") as handle:
                for key, row in index.items():
                    handle.write(
                        json.dumps({"key": key, self.PAYLOAD_FIELD: row})
                        + "\n"
                    )
            os.replace(temp, self.pack_path)
        except OSError:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
        self._packed = None
        return removed

    def unpack(self) -> int:
        """Materialize packed entries back into files; return count.

        Existing files win (they are newer); the pack is removed only
        once every entry has a file again — a partial restore (disk
        full, permissions) keeps the pack, so no entry is ever lost to
        an interrupted unpack.
        """
        index = self._packed_index()
        restored = 0
        failed = 0
        for key, row in index.items():
            target = os.path.join(self.path, f"{key}.json")
            if os.path.exists(target):
                continue
            temp = f"{target}.tmp-{os.getpid()}"
            try:
                with open(temp, "w", encoding="utf-8") as handle:
                    json.dump(row, handle)
                os.replace(temp, target)
                restored += 1
            except OSError:
                failed += 1
                try:
                    os.unlink(temp)
                except OSError:
                    pass
        if failed == 0:
            try:
                os.unlink(self.pack_path)
            except OSError:
                pass
        self._packed = None
        return restored

    # ------------------------------------------------------------------
    def keys(self) -> set[str]:
        """Every distinct entry key (files and pack combined)."""
        file_keys = {name[: -len(".json")] for name in self._entry_files()}
        return file_keys | set(self._packed_index())

    def __len__(self) -> int:
        return len(self.keys())

    def stats(self) -> dict:
        """Entry counts by storage form (the CLI ``store info`` view)."""
        files = len(self._entry_files())
        packed = len(self._packed_index())
        return {
            "entries": len(self),
            "files": files,
            "packed": packed,
            "pack_file": self.pack_path if packed else None,
        }

    def clear(self) -> int:
        """Delete every stored entry; returns how many were removed.

        The count reflects what actually disappeared: a key that
        survives — its file would not unlink, or it lives in a pack
        that would not unlink — is not counted as removed.
        """
        file_keys = {name[: -len(".json")] for name in self._entry_files()}
        packed_keys = set(self._packed_index())
        surviving: set[str] = set()
        for key in file_keys:
            try:
                os.unlink(os.path.join(self.path, f"{key}.json"))
            except OSError:
                surviving.add(key)
        try:
            os.unlink(self.pack_path)
        except FileNotFoundError:
            pass
        except OSError:
            surviving |= packed_keys  # the pack (and its keys) remain
        self._packed = None
        return len(file_keys | packed_keys) - len(surviving)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r}, entries={len(self)})"


# No caller in the package; perfbench's traced runs still wrap its get/put.
class CompileSimCache(KeyedJsonStore):
    """Retired ``source hash -> compiled-sim plan`` cache (``simcache/``)."""

    ENTRY_RE = _SIM_ENTRY_RE
    PAYLOAD_FIELD = "plan"

    @staticmethod
    def _key(source_hash: int) -> str:
        return f"s_{source_hash & (2 ** 64 - 1):016x}"

    def get(self, source_hash: int) -> dict | None:
        return self.get_key(self._key(source_hash))

    def put(self, source_hash: int, plan: dict) -> None:
        self.put_key(self._key(source_hash), plan)


class VerdictStore(KeyedJsonStore):
    """Directory-backed map of ``(problem, completion-hash) -> verdict``."""

    ENTRY_RE = _ENTRY_RE
    PAYLOAD_FIELD = "verdict"

    @staticmethod
    def _encode_payload(payload) -> dict:
        return evaluation_to_dict(payload)

    @staticmethod
    def _decode_payload(row: dict):
        return evaluation_from_dict(row)

    # ------------------------------------------------------------------
    @staticmethod
    def _key(problem: int, completion_hash: int) -> str:
        return f"p{problem:02d}_{completion_hash:016x}"

    @classmethod
    def _filename(cls, problem: int, completion_hash: int) -> str:
        return f"{cls._key(problem, completion_hash)}.json"

    def _entry_path(self, problem: int, completion_hash: int) -> str:
        return os.path.join(self.path, self._filename(problem, completion_hash))

    def get(self, problem: int, completion_hash: int):
        return self.get_key(self._key(problem, completion_hash))

    def put(self, problem: int, completion_hash: int, evaluation) -> None:
        self.put_key(self._key(problem, completion_hash), evaluation)


def resolve_store(store: "VerdictStore | str | None") -> "VerdictStore | None":
    """Coerce a store argument: instance passes through, a string is a
    directory path, ``None`` stays ``None`` (no cross-process cache)."""
    if store is None or isinstance(store, VerdictStore):
        return store
    return VerdictStore(store)


__all__ = [
    "PACK_FILENAME",
    "KeyedJsonStore",
    "VerdictStore",
    "resolve_store",
]
