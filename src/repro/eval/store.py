"""Cross-process on-disk verdict cache.

The in-memory :class:`~repro.eval.pipeline.Evaluator` cache collapses
duplicate completions within one process, but every process-pool worker
(and every machine in a coordinated fleet) used to rebuild it from
scratch — the ROADMAP's "cross-process evaluator cache" opening.
:class:`VerdictStore` closes it: verdicts persist to a directory keyed
by ``(problem number, completion hash)``, so any evaluator pointed at
the same path — a later run, a sibling worker process, a pull-based
coordinator worker — skips the compile and simulation entirely.

The store is a :class:`KeyedJsonStore` — a directory-backed
``key -> JSON payload`` map — holding full
:class:`~repro.eval.report.CompletionEvaluation` codecs, in two forms,
both one JSON line per entry,
``{"key": <key>, <payload field>: <payload>}``:

* **segments** (``seg-<pid>-<token>.jsonl``): each writing store
  appends its puts to a segment of its own, opened on the first put and
  written with one unbuffered ``write`` per entry (no fsync: a put
  survives its process, not a power cut).  Appending a line costs a few
  microseconds where creating a file costs hundreds, and a sweep leaves
  one file per writer instead of one per verdict;
* **the pack** (``pack.jsonl``), which :meth:`KeyedJsonStore.pack`
  folds finished segments into (later lines win).

Every other file in the directory is foreign: a stray ``notes.json``,
the one-file-per-verdict ``<key>.json`` files older versions wrote, or
a ``simcache/`` subdirectory is never read, counted, packed, or
deleted.  A verdict only such a file holds is a cache miss, and the
miss re-evaluates to the same verdict.

Concurrency model: a writer holds an exclusive ``flock`` on its segment
for as long as the segment is open, so "the lock can be taken" means
"its writer is gone".  One lock serializes a store's threads; a store
inherited through ``fork`` opens a new segment in the child, and a
writer whose segment was unlinked by :meth:`KeyedJsonStore.clear`
opens a new one on its next put.  Readers index entry locations, not
payloads: the index is rebuilt from the pack and the segments, and
kept current cheaply — the directory is listed again only when its
mtime moved, and a miss reads just the new, newline-terminated bytes of
segments whose writer is still alive, so a torn last line stays
invisible until it is complete.  Two processes
racing on the same uncached key may both evaluate and both write;
evaluation is pure, so the duplicate work is bounded and both lines
carry the same verdict.  Corrupt lines read as misses.

Maintenance: :meth:`KeyedJsonStore.pack` closes the store's own
segment, then folds the segments whose writer is gone into the pack
and deletes them; live segments are skipped, so packing is safe on a
live store — run it again any time to fold more.
Because packing only appends, repeated cycles can leave shadowed
duplicate lines behind — :meth:`KeyedJsonStore.compact` rewrites the
pack with one line per live key (atomic replace, idempotent; safe
against readers and writers, but do not run it while another process is
packing the same store).  The CLI drives both —
``python -m repro store {pack,compact} DIR``.

The store is picklable (it carries only its path), so
:class:`~repro.service.process.ProcessPoolSweepExecutor` ships it to
workers the same way it ships the backend.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import threading
import time

try:
    import fcntl
except ImportError:  # pragma: no cover - no flock: segments never read
    fcntl = None     # as live, so pack only while nothing writes

from .export import evaluation_from_dict, evaluation_to_dict

PACK_FILENAME = "pack.jsonl"

#: segment filenames: seg-<writer pid>-<random token>.jsonl
_SEGMENT_RE = re.compile(r"^seg-\d+-[0-9a-f]+\.jsonl$")

#: every line the store writes starts with its key: ``{"key": "<key>"``
_KEY_PREFIX = b'{"key": "'

#: an index location is ``file number << _OFFSET_BITS | line offset``
_OFFSET_BITS = 40
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1

#: a directory whose mtime is this recent may change again within the
#: same timestamp tick, so its listing is not trusted to stay current
_RACY_NS = 100_000_000

_READ_CHUNK = 1 << 20


def _writer_gone(handle) -> bool:
    """Whether no writer holds the segment's lock (probe, then release)."""
    if fcntl is None:
        return True
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_SH | fcntl.LOCK_NB)
    except OSError:
        return False
    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    return True


class _Segment:
    """One segment file as the reader sees it (and, for the store's own
    segment, as the writer appends to it)."""

    __slots__ = ("name", "path", "number", "handle", "offset")

    def __init__(self, name: str, path: str, number: int, handle):
        self.name = name
        self.path = path
        #: the segment's file number in the reader's index
        self.number = number
        #: open while the segment may still grow: the store's own, or a
        #: foreign one whose writer is alive; None once fully indexed
        self.handle = handle
        #: end of the last complete line indexed (the writer's size)
        self.offset = 0


class KeyedJsonStore:
    """Directory-backed ``key -> JSON payload`` map with pack support.

    Subclasses pin down the payload field name of a line
    (:data:`PAYLOAD_FIELD`) and, optionally, a payload codec
    (:meth:`_encode_payload` / :meth:`_decode_payload` both default to
    identity on plain JSON objects).
    """

    #: line field carrying the payload (kept per-store for backward
    #: compatibility with packs written before the refactor)
    PAYLOAD_FIELD = "payload"

    def __init__(self, path: str):
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        self._start()

    def _start(self) -> None:
        """Fresh process-local state: no writer, an empty index."""
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._writer: _Segment | None = None
        self._live: list[_Segment] = []
        self._reset_index()

    def _reset_index(self) -> None:
        """Forget everything indexed (the writer stays open)."""
        for segment in self._live:
            segment.handle.close()
        #: key -> location (see _OFFSET_BITS); never a copy of the row
        self._index: dict[str, int] = {}
        #: file number -> path of each indexed pack or segment file
        self._paths: list[str] = []
        self._segments: dict[str, _Segment] = {}
        #: foreign segments whose writer was alive when last looked at
        self._live: list[_Segment] = []
        self._pack_signature = None
        self._packed = 0
        #: directory mtime the index is current with (None: relist)
        self._dir_mtime: int | None = None

    def _locked(self) -> threading.Lock:
        """The store's lock, after dropping state a fork left behind
        (the parent's segment and lock belong to the parent)."""
        if self._pid != os.getpid():
            self._start()
        return self._lock

    def __getstate__(self) -> dict:
        return {"path": self.path}  # writer and index never cross pickles

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._start()

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
    @property
    def pack_path(self) -> str:
        return os.path.join(self.path, PACK_FILENAME)

    def _line(self, key: str, row: dict) -> bytes:
        return (json.dumps({"key": key, self.PAYLOAD_FIELD: row})
                + "\n").encode("utf-8")

    # ------------------------------------------------------------------
    # The writer: one append-only segment per store and process
    # ------------------------------------------------------------------
    def _open_writer(self) -> _Segment:
        while True:
            name = f"seg-{os.getpid()}-{secrets.token_hex(6)}.jsonl"
            path = os.path.join(self.path, name)
            fd = os.open(
                path, os.O_RDWR | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644,
            )
            handle = open(fd, "r+b", buffering=0)
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            if os.fstat(fd).st_nlink:
                break
            # a pack took the empty file for a dead writer's: next name
            handle.close()
        segment = _Segment(name, path, self._add_file(path), handle)
        self._segments[name] = segment
        self._writer = segment
        return segment

    def close(self) -> None:
        """Close the store's files: its own segment (its writer is then
        gone, so a pack folds it; a later put opens a new one) and the
        live segments it follows."""
        with self._locked():
            self._close_writer()
            self._reset_index()

    def _close_writer(self) -> None:
        """Close the store's segment (its lock goes with it)."""
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.handle.close()
            writer.handle = None

    def put_key(self, key: str, payload) -> None:
        """Append one entry to the store's segment."""
        line = self._line(key, self._encode_payload(payload))
        with self._locked():
            try:
                writer = self._writer
                if writer is not None and not os.fstat(
                        writer.handle.fileno()).st_nlink:
                    self._close_writer()  # clear() unlinked it
                    writer = None
                if writer is None:
                    writer = self._open_writer()
                offset = writer.offset
                if writer.handle.write(line) != len(line):
                    raise OSError("short write")
            except OSError:
                # a read-only, full or vanished store degrades to a
                # cache miss, never a failed evaluation
                self._close_writer()
                return
            writer.offset = offset + len(line)
            self._index[key] = writer.number << _OFFSET_BITS | offset

    # ------------------------------------------------------------------
    # The reader: an index of entry locations, kept current
    # ------------------------------------------------------------------
    def _line_key(self, data: bytes, start: int, end: int) -> str | None:
        """The key of the line ``data[start:end]`` (None: not an entry)."""
        if data.startswith(_KEY_PREFIX, start):
            close = data.find(b'"', start + len(_KEY_PREFIX), end)
            if close >= 0:
                return data[start + len(_KEY_PREFIX):close].decode(
                    "utf-8", "replace")
        try:  # another writer's spacing, or garbage
            row = json.loads(data[start:end])
            row[self.PAYLOAD_FIELD]
            return str(row["key"])
        except (ValueError, KeyError, TypeError, IndexError):
            return None

    def _index_lines(self, number: int, fd: int, offset: int) -> int:
        """Index each complete line of a file from ``offset`` on; return
        the offset past the last one (a torn tail is left unread)."""
        base = number << _OFFSET_BITS
        index = self._index
        size = os.fstat(fd).st_size
        position = offset
        pending = b""
        while position < size:
            chunk = os.pread(fd, min(_READ_CHUNK, size - position), position)
            if not chunk:
                break
            position += len(chunk)
            data = pending + chunk
            start = 0
            end = data.find(b"\n")
            while end >= 0:
                key = self._line_key(data, start, end)
                if key is not None:
                    index[key] = base | (offset + start)
                start = end + 1
                end = data.find(b"\n", start)
            offset += start
            pending = data[start:]
        return offset

    def _add_file(self, path: str) -> int:
        self._paths.append(path)
        return len(self._paths) - 1

    def _add_segment(self, name: str) -> None:
        writer = self._writer
        if writer is not None and name == writer.name:
            # the store's own segment, after a rebuild: re-read it
            writer.number = self._add_file(writer.path)
            self._index_lines(writer.number, writer.handle.fileno(), 0)
            self._segments[name] = writer
            return
        path = os.path.join(self.path, name)
        try:
            handle = open(path, "rb", buffering=0)
        except OSError:
            return  # packed or cleared since the listing
        segment = _Segment(name, path, self._add_file(path), handle)
        self._segments[name] = segment
        self._live.append(segment)
        self._tail(segment)

    def _tail(self, segment: _Segment) -> None:
        segment.offset = self._index_lines(
            segment.number, segment.handle.fileno(), segment.offset)

    def _tail_live(self) -> None:
        for segment in self._live:
            self._tail(segment)

    def _settle_live(self) -> None:
        """Stop following the foreign segments whose writer is gone."""
        still = []
        for segment in self._live:
            # an empty segment may belong to a writer about to lock it
            if segment.offset and _writer_gone(segment.handle):
                self._tail(segment)
                segment.handle.close()
                segment.handle = None
            else:
                still.append(segment)
        self._live = still

    def _refresh(self) -> None:
        """Bring the index up to date with the directory listing; a
        no-op (one ``stat``) while the directory's mtime stands still."""
        now = time.time_ns()
        try:
            mtime = os.stat(self.path).st_mtime_ns
            if mtime == self._dir_mtime:
                return
            names = os.listdir(self.path)
        except OSError:
            self._reset_index()
            return
        segments = [n for n in names if _SEGMENT_RE.match(n)]
        try:
            stat = os.stat(self.pack_path)
            signature = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        except OSError:
            signature = None
        if (signature != self._pack_signature
                or not self._segments.keys() <= set(segments)):
            # something was packed, compacted or deleted: rebuild
            self._reset_index()
            self._pack_signature = signature
            self._read_pack()
        for name in segments:
            if name not in self._segments:
                self._add_segment(name)
        self._settle_live()
        self._dir_mtime = mtime if now - mtime > _RACY_NS else None

    def _read_pack(self) -> None:
        try:
            with open(self.pack_path, "rb") as handle:
                self._index_lines(self._add_file(self.pack_path),
                                  handle.fileno(), 0)
        except OSError:
            pass
        self._packed = len(self._index)

    def _load(self, key: str, location: int):
        """The payload row at ``location``; None when unreadable.

        Raises ``LookupError`` when the location went stale (its file
        was packed, compacted or deleted since it was indexed).
        """
        try:
            with open(self._paths[location >> _OFFSET_BITS], "rb") as handle:
                handle.seek(location & _OFFSET_MASK)
                line = handle.readline()
        except OSError:
            raise LookupError(key) from None
        try:
            row = json.loads(line)
        except ValueError:
            raise LookupError(key) from None
        if not isinstance(row, dict) or row.get("key") != key:
            raise LookupError(key)
        return row.get(self.PAYLOAD_FIELD)

    def _find(self, key: str):
        """The payload row for ``key`` (None: miss); lock held."""
        for attempt in (0, 1):
            self._refresh()
            location = self._index.get(key)
            if location is None:
                self._tail_live()
                location = self._index.get(key)
                if location is None:
                    return None
            try:
                return self._load(key, location)
            except LookupError:
                self._reset_index()  # relist and rebuild, then retry
        return None

    def get_key(self, key: str):
        """The stored payload, or ``None`` (missing or unreadable)."""
        with self._locked():
            row = self._find(key)
        if row is None:
            return None
        try:
            return self._decode_payload(row)
        except (ValueError, KeyError, TypeError, AttributeError):
            return None

    # ------------------------------------------------------------------
    # Packing (one file per finished writer, then one for the store)
    # ------------------------------------------------------------------
    def _segment_names(self) -> list[str]:
        """The directory's segment filenames: foreign files are
        invisible — never counted, packed, or deleted."""
        try:
            return sorted(n for n in os.listdir(self.path)
                          if _SEGMENT_RE.match(n))
        except OSError:
            return []

    def _valid_line(self, line: bytes) -> bool:
        try:
            row = json.loads(line)
            str(row["key"])
            self._decode_payload(row[self.PAYLOAD_FIELD])
        except (ValueError, KeyError, TypeError, AttributeError):
            return False
        return True

    def _fold_segment(self, name: str, out) -> int:
        """Append a finished segment's entries to ``out`` and delete it;
        a segment whose writer is alive is left alone (returns 0)."""
        path = os.path.join(self.path, name)
        try:
            handle = open(path, "rb")
        except OSError:
            return 0
        with handle:
            if fcntl is not None:
                try:
                    fcntl.flock(handle.fileno(),
                                fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError:
                    return 0  # its writer is alive
            if not os.fstat(handle.fileno()).st_nlink:
                return 0  # another pack folded it first
            folded = 0
            for line in handle:
                if line.endswith(b"\n") and self._valid_line(line):
                    out.write(line)
                    folded += 1
            out.flush()
            try:
                os.unlink(path)
            except OSError:
                pass
        return folded

    def pack(self) -> int:
        """Fold finished segments into the pack; return how many entries
        were folded.

        Closes this store's own segment first (a later put opens a new
        one), so what it wrote is folded too.  Appends to an existing
        pack (later lines win on read), then deletes each folded source
        — crash-safe in that order: a death between append and unlink
        leaves both copies, which agree.  Segments whose writer is alive
        are skipped, and only lines that decode as payloads are folded.
        """
        packed = 0
        with self._locked():
            self._close_writer()
            with open(self.pack_path, "ab") as out:
                for name in self._segment_names():
                    packed += self._fold_segment(name, out)
            self._reset_index()
        return packed

    def _packed_index(self) -> dict[str, dict]:
        """The pack file as key -> payload row ({} when absent); corrupt
        lines are skipped."""
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
        return index

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
        is safe against concurrent *readers and writers* (they never
        touch the pack), but must not race another process's ``pack()``
        on the same store — lines pack appends after the compaction
        snapshot is read would be discarded by the replace, and pack has
        already unlinked their sources.  Run compact when nothing is
        packing.
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
            with open(temp, "wb") as handle:
                for key, row in index.items():
                    handle.write(self._line(key, row))
            os.replace(temp, self.pack_path)
        except OSError:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
        return removed

    # ------------------------------------------------------------------
    def keys(self) -> set[str]:
        """Every distinct entry key (both forms combined)."""
        with self._locked():
            self._refresh()
            self._tail_live()
            return set(self._index)

    def __len__(self) -> int:
        return len(self.keys())

    def stats(self) -> dict:
        """Entry counts by storage form (the CLI ``store info`` view)."""
        with self._locked():
            self._refresh()
            self._tail_live()
            return {
                "entries": len(self._index),
                "packed": self._packed,
                "segments": len(self._segments),
                "pack_file": self.pack_path if self._packed else None,
            }

    def clear(self) -> int:
        """Delete every stored entry; returns how many were removed.

        Live writers' segments go too: each writer opens a new segment
        on its next put.  The count reflects what actually disappeared:
        a key that survives — its segment or the pack would not unlink
        — is not counted as removed.
        """
        with self._locked():
            self._close_writer()
            self._refresh()
            self._tail_live()
            before = set(self._index)
            for name in self._segment_names():
                try:
                    os.unlink(os.path.join(self.path, name))
                except OSError:
                    pass
            try:
                os.unlink(self.pack_path)
            except OSError:
                pass
            self._reset_index()
            self._refresh()
            return len(before - set(self._index))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r}, entries={len(self)})"


# No caller in the package; perfbench's traced runs still wrap its get/put.
class CompileSimCache(KeyedJsonStore):
    """Retired ``source hash -> compiled-sim plan`` cache (``simcache/``)."""

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
