"""Cross-process content-addressed result store (the compile farm's
durable tier).

The per-process :class:`repro.engine.cache.EvaluationCache` answers the
question "has *this* client seen this point?".  The farm store answers
"has *anyone* seen it?": search/RL clients and process-pool workers
pointed at one directory share one on-disk index, so any client's miss
becomes every client's hit.

Layout (``root`` is the ``--farm-dir``)::

    root/
      seg-<pid>-<token>.jsonl     one writer's append-only segment
      seg-<pid>-<token>-<n>.jsonl the same writer's segment after its
                                  ``n``-th failed write
      _stats/<pid>-<token>.json   per-writer counters (aggregated for
                                  the cross-process hit-rate report),
                                  published per batch, not per put

Each line is one ``{"k": key, "p": payload, "c": crc32}`` record.
Nothing ever renames, rewrites or deletes a segment, and there are no
lock files.  These invariants make that safe:

- **Single-writer segments.**  Every ``(process, store instance)`` pair
  appends to its own segment, named by pid plus a random per-instance
  token; a store notices a pid change after a fork and re-keys itself.
  No two writers share a file, so appends cannot interleave.
- **Entries are immutable.**  Keys are content addresses, so duplicate
  keys across segments carry bit-identical payloads and readers may
  take any occurrence.
- **Damage stays at a file end.**  A line is visible once its trailing
  newline is on disk; readers skip torn, corrupt and checksum-failing
  lines.  A crashed writer can only tear its segment's last line, and
  a live writer whose write fails (``ENOSPC``, say) may have torn its
  last line, so it moves on to a fresh segment.
- **Readers refresh incrementally.**  Each instance keeps one
  ``key -> (segment, offset, length)`` index and, on a miss, parses
  only the bytes each segment gained since it last looked.

A writer opens its segment once, unbuffered, and keeps it open: a put
is one ``write`` of one line, at an offset the writer tracks itself.
It drops the handle after a failed or short write (the next put opens
the fresh segment), after a fork, on :meth:`ShardedStore.close` and
when the store is garbage-collected.

Counters are published to ``_stats/`` by
:meth:`~ShardedStore.publish_stats` only: the engine calls it at the
end of every ``evaluate_batch``, pool workers at the end of every
farm-composed point, and :meth:`~ShardedStore.aggregate_stats` and
:meth:`~ShardedStore.close` call it too.  A process that dies loses the
counts it gathered since its last publish; the entries it wrote stay.

Files from older layouts (``shard-XX/`` directories, one file per
entry) are not read: their keys are misses.
"""

import json
import os
import threading
import weakref
import zlib

_COUNTERS = ("hits", "misses", "stores", "cross_hits", "corrupt_lines",
             "checksum_skips")


def _encode_line(key, payload):
    """One checksummed segment line: the ``{"k","p"}`` record with a
    CRC32 of its own serialization spliced in as ``"c"``.  A torn or
    bit-flipped line then fails either JSON framing or the checksum,
    and readers skip it like a torn tail."""
    body = json.dumps({"k": key, "p": payload}, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8"))
    return (body[:-1] + f',"c":{crc}}}\n').encode("utf-8")


def _decode_line(line):
    """Parse one segment line; returns ``(key, payload, status)`` where
    status is ``"ok"``, ``"corrupt"`` (bad JSON framing) or
    ``"checksum"`` (framed but fails, or lacks, its own CRC)."""
    try:
        record = json.loads(line)
        key = record["k"]
        payload = record["p"]
    except (ValueError, KeyError, TypeError):
        return None, None, "corrupt"
    body = json.dumps({"k": key, "p": payload}, separators=(",", ":"))
    if zlib.crc32(body.encode("utf-8")) != record.get("c"):
        return None, None, "checksum"
    return key, payload, "ok"


def _with_hit_rate(counters):
    lookups = counters["hits"] + counters["misses"]
    return dict(counters,
                hit_rate=counters["hits"] / lookups if lookups else 0.0)


class ShardedStore:
    """On-disk content-addressed store, safe under concurrent readers
    and writers from many processes (see module docstring)."""

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self._lock = threading.RLock()
        self._index = {}  # key -> (segment path, offset, length)
        self._tails = {}  # segment path -> bytes parsed so far
        self._writer = None  # (handle, path) of the open segment
        self._rekey()

    # -- identity ---------------------------------------------------------
    def _rekey(self):
        self._drop_segment()
        self._pid = os.getpid()
        self._token = os.urandom(4).hex()
        self._tears = 0
        self.stats = dict.fromkeys(_COUNTERS, 0)
        self._published = None  # the counters last written to _stats/

    def _ensure_process(self):
        """Re-key after a fork: the child must never append to the
        parent's segment (single-writer invariant)."""
        if os.getpid() != self._pid:
            self._rekey()

    def _segment_path(self):
        suffix = f"-{self._tears}" if self._tears else ""
        return os.path.join(
            self.root, f"seg-{self._pid}-{self._token}{suffix}.jsonl")

    # -- write path -------------------------------------------------------
    def _open_segment(self):
        os.makedirs(self.root, exist_ok=True)
        path = self._segment_path()
        handle = open(path, "ab", buffering=0)
        self._writer = (handle, path)
        self._offset = handle.tell()
        self._close_handle = weakref.finalize(self, handle.close)

    def _drop_segment(self):
        if self._writer is not None:
            self._writer = None
            self._close_handle()

    def put(self, key, payload):
        """Append one entry; visible to every process once written."""
        with self._lock:
            self._ensure_process()
            data = _encode_line(key, payload)
            if self._writer is None:
                self._open_segment()
            handle, path = self._writer
            offset = self._offset
            try:
                if handle.write(data) != len(data):
                    raise OSError(f"short write to {path}")
            except OSError:
                # A write that failed partway leaves a torn line at this
                # segment's end (the crashed-writer shape readers skip);
                # the next line must not merge with it, so write on in
                # a fresh segment.
                self._tears += 1
                self._drop_segment()
                raise
            self._offset = self._tails[path] = offset + len(data)
            self._index[key] = (path, offset, len(data))
            self.stats["stores"] += 1

    def close(self):
        """Publish this instance's counters and close its segment (a
        later put reopens it)."""
        with self._lock:
            self.publish_stats()
            self._drop_segment()

    # -- read path --------------------------------------------------------
    def get(self, key):
        """The payload stored for ``key``, or None."""
        with self._lock:
            self._ensure_process()
            entry = self._index.get(key)
            if entry is None:
                self._refresh()
                entry = self._index.get(key)
            payload = None if entry is None else self._read_entry(entry)
            if payload is None:
                self.stats["misses"] += 1
                return None
            self.stats["hits"] += 1
            if f"-{self._token}" not in os.path.basename(entry[0]):
                self.stats["cross_hits"] += 1
            return payload

    def _read_entry(self, entry):
        path, offset, length = entry
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(length)
        _, payload, status = _decode_line(data)
        if status == "checksum":
            self.stats["checksum_skips"] += 1
        return payload

    def _refresh(self):
        """Incrementally parse every segment's unseen tail bytes."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        for name in names:
            if not (name.startswith("seg-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self.root, name)
            tail = self._tails.get(path, 0)
            try:
                size = os.path.getsize(path)
                if size <= tail:
                    continue
                with open(path, "rb") as handle:
                    handle.seek(tail)
                    data = handle.read(size - tail)
            except OSError:
                continue
            offset = tail
            for line in data.splitlines(keepends=True):
                if not line.endswith(b"\n"):
                    break  # torn final line (or a write in progress)
                key, _, status = _decode_line(line)
                if status == "ok":
                    self._index[key] = (path, offset, len(line))
                elif status == "checksum":
                    self.stats["checksum_skips"] += 1
                else:
                    self.stats["corrupt_lines"] += 1
                offset += len(line)
            self._tails[path] = offset

    # -- cross-process stats ---------------------------------------------
    def local_stats(self):
        """This instance's counters, with its hit rate."""
        return _with_hit_rate(self.stats)

    def publish_stats(self):
        """Publish this instance's counters (atomically) so any process
        can aggregate the farm-wide view; a no-op when they have not
        changed since the last publish."""
        with self._lock:
            self._ensure_process()
            if self.stats == self._published:
                return
            path = os.path.join(self.root, "_stats",
                                f"{self._pid}-{self._token}.json")
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path + ".tmp", "w") as handle:
                    json.dump(self.stats, handle)
                os.replace(path + ".tmp", path)
            except OSError:  # best effort: the next publish retries
                return
            self._published = dict(self.stats)

    def aggregate_stats(self):
        """Farm-wide counters summed over every process that ever
        touched this store (the cross-process hit-rate report)."""
        self.publish_stats()
        stats_dir = os.path.join(self.root, "_stats")
        total = dict.fromkeys(_COUNTERS, 0)
        processes = 0
        try:
            names = os.listdir(stats_dir)
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(stats_dir, name)) as handle:
                    snapshot = json.load(handle)
            except (OSError, ValueError):
                continue
            processes += 1
            for counter in _COUNTERS:
                total[counter] += int(snapshot.get(counter, 0))
        total = _with_hit_rate(total)
        total["processes"] = processes
        return total

    def __len__(self):
        with self._lock:
            self._refresh()
            return len(self._index)

    def __repr__(self):
        return f"<ShardedStore {self.root} pid={self._pid}>"
