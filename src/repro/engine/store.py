"""Sharded cross-process content-addressed result store (the compile
farm's durable tier).

The per-process :class:`repro.engine.cache.EvaluationCache` answers the
question "has *this* client seen this point?".  The farm store answers
the question the ROADMAP's "millions of users" shape needs: "has
*anyone* seen it?" — many search/RL clients and process-pool workers
share one on-disk index, so any client's miss becomes every client's
hit.

Layout (``root`` is the ``--farm-dir``)::

    root/
      shard-00/ .. shard-<n>/     key-space shards (hex prefix of the
                                  sha256 cache key modulo ``shards``)
        seg-<pid>-<token>.jsonl.active   this process's open segment
        seg-<pid>-<token>-000001.jsonl   sealed (immutable) segments
        merged-000003-<token>.jsonl      compacted segment
        compact.lock                     compaction mutual exclusion
      _stats/<pid>-<token>.json   per-process counters (aggregated for
                                  the cross-process hit-rate report)

Concurrency model — the invariants that make this safe without any
cross-process locking on the hot path:

- **Single-writer segments.**  Every ``(process, store instance)`` pair
  appends to its own ``.active`` segment file, named by pid plus a
  random per-instance token (fork-safe: a store notices a pid change
  and re-keys itself).  No two writers ever share a file, so appends
  cannot interleave; a crash can only tear the *final* line of one
  segment, which readers skip.
- **Entries are immutable.**  Keys are content addresses, so duplicate
  keys across segments carry bit-identical payloads and readers may
  take any occurrence.
- **Atomic publication.**  A line is visible only once its trailing
  newline is on disk; compaction publishes its merged segment with the
  ``os.replace`` idiom (write ``.tmp``, replace) and only ever merges
  *sealed* files, never a writer's ``.active`` segment — so compaction
  can never lose a concurrent write.
- **Readers self-heal.**  Readers keep a per-shard index of
  ``key -> (file, offset, length)`` refreshed incrementally from
  segment tails; when compaction unlinks a file under them they drop
  the shard index and rebuild from the current directory listing.
"""

import json
import os
import threading
import time
import zlib


#: Segments grow to this size before being sealed (made immutable and
#: eligible for compaction).
DEFAULT_SEAL_BYTES = 1 << 18
#: Compaction triggers when a shard holds at least this many sealed /
#: merged segments.
DEFAULT_COMPACT_AFTER = 8
#: ``.tmp`` files (and stale ``compact.lock`` files) older than this are
#: removed by the startup sweep — young ones may belong to a live
#: writer.
DEFAULT_TMP_MAX_AGE = 60.0

_COUNTERS = ("hits", "misses", "stores", "cross_hits", "compactions",
             "segments_merged", "orphans_swept", "corrupt_lines",
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


class StoreStats:
    """Per-shard and total counters for one store instance."""

    def __init__(self, shards):
        self.shards = [dict.fromkeys(_COUNTERS, 0)
                       for _ in range(shards)]

    def bump(self, shard, counter, amount=1):
        self.shards[shard][counter] += amount

    def totals(self):
        total = dict.fromkeys(_COUNTERS, 0)
        for shard in self.shards:
            for counter, value in shard.items():
                total[counter] += value
        lookups = total["hits"] + total["misses"]
        total["hit_rate"] = total["hits"] / lookups if lookups else 0.0
        return total

    def as_dict(self):
        return {"totals": self.totals(),
                "per_shard": [dict(shard) for shard in self.shards]}


class _Shard:
    """Reader bookkeeping for one shard directory."""

    def __init__(self, path):
        self.path = path
        self.index = {}  # key -> (segment path, offset, length)
        self.tails = {}  # segment path -> bytes parsed so far


def _new_token():
    return os.urandom(4).hex()


class ShardedStore:
    """Sharded on-disk content-addressed store, safe under concurrent
    readers and writers from many processes (see module docstring)."""

    def __init__(self, root, shards=16, seal_bytes=DEFAULT_SEAL_BYTES,
                 compact_after=DEFAULT_COMPACT_AFTER,
                 tmp_max_age=DEFAULT_TMP_MAX_AGE, chaos=None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        #: Optional :class:`repro.engine.chaos.ChaosInjector`: lets the
        #: fault harness raise I/O errors and corrupt/truncate lines on
        #: this store's read/write paths deterministically.
        self.chaos = chaos
        self.root = os.path.abspath(root)
        self.n_shards = shards
        self.seal_bytes = seal_bytes
        self.compact_after = compact_after
        self.tmp_max_age = tmp_max_age
        self.stats = StoreStats(shards)
        self._lock = threading.RLock()
        self._pid = os.getpid()
        self._token = _new_token()
        self._seal_counter = 0
        self._shards = {}
        os.makedirs(self.root, exist_ok=True)
        self.sweep_orphans()

    # -- identity ---------------------------------------------------------
    def _ensure_process(self):
        """Re-key after a fork: the child must never append to the
        parent's segment files (single-writer invariant)."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._token = _new_token()
            self._seal_counter = 0
            self.stats = StoreStats(self.n_shards)

    def shard_of(self, key):
        return int(key[:8], 16) % self.n_shards

    def _shard_dir(self, shard):
        return os.path.join(self.root, f"shard-{shard:02x}")

    def _shard(self, shard):
        state = self._shards.get(shard)
        if state is None:
            state = self._shards[shard] = _Shard(self._shard_dir(shard))
        return state

    def _active_path(self, shard):
        return os.path.join(
            self._shard_dir(shard),
            f"seg-{self._pid}-{self._token}.jsonl.active")

    # -- crash hygiene ----------------------------------------------------
    def sweep_orphans(self, max_age=None):
        """Remove ``*.tmp`` files (and stale ``compact.lock`` files)
        older than ``max_age`` seconds — debris of writer processes
        killed mid-publish.  Returns the number of files removed."""
        max_age = self.tmp_max_age if max_age is None else max_age
        cutoff = time.time() - max_age
        swept = 0
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                if not (name.endswith(".tmp") or name == "compact.lock"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    if os.path.getmtime(path) <= cutoff:
                        os.unlink(path)
                        swept += 1
                except OSError:  # pragma: no cover - raced with owner
                    continue
        if swept:
            self.stats.bump(0, "orphans_swept", swept)
        return swept

    # -- write path -------------------------------------------------------
    def put(self, key, payload):
        """Append one entry; visible to every process once written."""
        if self.chaos is not None:
            self.chaos.on_store_op("put", key)
        with self._lock:
            self._ensure_process()
            shard = self.shard_of(key)
            state = self._shard(shard)
            data = _encode_line(key, payload)
            if self.chaos is not None:
                data = self.chaos.mangle_line(key, data)
            path = self._active_path(shard)
            os.makedirs(state.path, exist_ok=True)
            with open(path, "ab") as handle:
                offset = handle.tell()
                handle.write(data)
                size = offset + len(data)
            if data.endswith(b"\n"):
                # Only an intact framed line enters our own index; a
                # (chaos-)torn write is left for readers to skip.
                state.index[key] = (path, offset, len(data))
                state.tails[path] = size
            else:
                # Torn tail: seal the segment so the damage stays at a
                # file end (the crashed-writer shape readers handle).
                state.tails[path] = size
                self._seal(shard, path)
                path = None
            self.stats.bump(shard, "stores")
            if path is not None and size >= self.seal_bytes:
                self._seal(shard, path)
            self._flush_stats()

    def _seal(self, shard, active_path):
        """Make this process's active segment immutable (rename is
        atomic; only the owning writer ever renames its segment)."""
        state = self._shard(shard)
        self._seal_counter += 1
        sealed = os.path.join(
            state.path, f"seg-{self._pid}-{self._token}"
                        f"-{self._seal_counter:06d}.jsonl")
        try:
            os.rename(active_path, sealed)
        except OSError:  # pragma: no cover - active vanished
            return
        # Keep our own index hot across the rename.
        size = state.tails.pop(active_path, 0)
        state.tails[sealed] = size
        for key, (path, offset, length) in list(state.index.items()):
            if path == active_path:
                state.index[key] = (sealed, offset, length)
        self.maybe_compact(shard)

    # -- read path --------------------------------------------------------
    def get(self, key):
        """The payload stored for ``key``, or None."""
        if self.chaos is not None:
            self.chaos.on_store_op("get", key)
        with self._lock:
            self._ensure_process()
            shard = self.shard_of(key)
            state = self._shard(shard)
            entry = state.index.get(key)
            if entry is None:
                self._refresh(shard)
                entry = state.index.get(key)
            if entry is None:
                self.stats.bump(shard, "misses")
                return None
            payload = self._read_entry(shard, entry)
            if payload is None:
                # Compaction moved the segment under us (or the indexed
                # line fails its checksum): rebuild the shard view from
                # the current directory listing.
                self._shards[shard] = state = _Shard(state.path)
                self._refresh(shard)
                entry = state.index.get(key)
                payload = self._read_entry(shard, entry) if entry \
                    else None
            if payload is None:
                self.stats.bump(shard, "misses")
                return None
            self.stats.bump(shard, "hits")
            if f"-{self._token}" not in os.path.basename(entry[0]):
                self.stats.bump(shard, "cross_hits")
                self._flush_stats()
            return payload

    def _read_entry(self, shard, entry):
        path, offset, length = entry
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read(length)
        except OSError:
            return None
        _, payload, status = _decode_line(data)
        if status == "checksum":
            self.stats.bump(shard, "checksum_skips")
        return payload

    def _segments(self, shard):
        try:
            names = os.listdir(self._shard_dir(shard))
        except OSError:
            return []
        return sorted(os.path.join(self._shard_dir(shard), name)
                      for name in names
                      if name.endswith(".jsonl")
                      or name.endswith(".jsonl.active"))

    def _refresh(self, shard):
        """Incrementally parse every segment's unseen tail bytes."""
        state = self._shard(shard)
        for path in self._segments(shard):
            tail = state.tails.get(path, 0)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size <= tail:
                continue
            try:
                with open(path, "rb") as handle:
                    handle.seek(tail)
                    data = handle.read(size - tail)
            except OSError:
                continue
            offset = tail
            consumed = 0
            for line in data.splitlines(keepends=True):
                if not line.endswith(b"\n"):
                    break  # torn final line of a crashed writer
                key, _, status = _decode_line(line)
                if status == "ok":
                    state.index[key] = (path, offset, len(line))
                elif status == "checksum":
                    self.stats.bump(shard, "checksum_skips")
                else:
                    self.stats.bump(shard, "corrupt_lines")
                offset += len(line)
                consumed += len(line)
            state.tails[path] = tail + consumed

    # -- compaction -------------------------------------------------------
    def maybe_compact(self, shard):
        """Merge the shard's sealed segments into one deduplicated
        segment when enough have accumulated.  Returns True if a
        compaction ran."""
        sealed = [path for path in self._segments(shard)
                  if not path.endswith(".active")]
        if len(sealed) < self.compact_after:
            return False
        return self.compact_shard(shard, sealed)

    def compact_shard(self, shard, sealed=None):
        """Merge ``sealed`` (immutable) segments under the shard's
        compaction lock; concurrent writers are unaffected because
        their ``.active`` segments are never touched."""
        with self._lock:
            state = self._shard(shard)
            if sealed is None:
                sealed = [path for path in self._segments(shard)
                          if not path.endswith(".active")]
            if len(sealed) < 2:
                return False
            lock_path = os.path.join(state.path, "compact.lock")
            if not self._acquire_lock(lock_path):
                return False
            try:
                merged = {}
                for path in sealed:
                    for key, line in self._scan_lines(shard, path):
                        merged[key] = line
                generation = 1 + max(
                    (self._generation(path) for path in sealed),
                    default=0)
                target = os.path.join(
                    state.path,
                    f"merged-{generation:06d}-{self._token}.jsonl")
                with open(target + ".tmp", "wb") as handle:
                    for line in merged.values():
                        handle.write(line)
                os.replace(target + ".tmp", target)
                for path in sealed:
                    try:
                        os.unlink(path)
                    except OSError:  # pragma: no cover - already gone
                        pass
                # Rebuild the reader view over the merged layout.
                self._shards[shard] = _Shard(state.path)
                self._refresh(shard)
                self.stats.bump(shard, "compactions")
                self.stats.bump(shard, "segments_merged", len(sealed))
                self._flush_stats()
                return True
            finally:
                try:
                    os.unlink(lock_path)
                except OSError:  # pragma: no cover - swept under us
                    pass

    def _scan_lines(self, shard, path):
        """Yield ``(key, raw line)`` for every intact line of a sealed
        segment."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return
        for line in data.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            key, _, status = _decode_line(line)
            if status == "ok":
                yield key, line
            elif status == "checksum":
                self.stats.bump(shard, "checksum_skips")
            else:
                self.stats.bump(shard, "corrupt_lines")

    @staticmethod
    def _generation(path):
        name = os.path.basename(path)
        if not name.startswith("merged-"):
            return 0
        try:
            return int(name.split("-")[1])
        except (IndexError, ValueError):
            return 0

    def _acquire_lock(self, lock_path):
        for _ in range(2):
            try:
                fd = os.open(lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(self._pid).encode("ascii"))
                os.close(fd)
                return True
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(lock_path)
                except OSError:
                    continue  # holder just released; retry
                if age <= self.tmp_max_age:
                    return False  # live compaction elsewhere
                try:
                    os.unlink(lock_path)  # stale: holder died
                except OSError:  # pragma: no cover - raced
                    return False
        return False

    # -- cross-process stats ---------------------------------------------
    def _stats_path(self):
        return os.path.join(self.root, "_stats",
                            f"{self._pid}-{self._token}.json")

    def _flush_stats(self):
        """Publish this instance's counters (atomically) so any process
        can aggregate the farm-wide view."""
        path = self._stats_path()
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + ".tmp", "w") as handle:
                json.dump(self.stats.totals(), handle)
            os.replace(path + ".tmp", path)
        except OSError:  # pragma: no cover - best effort
            pass

    def aggregate_stats(self):
        """Farm-wide counters summed over every process that ever
        touched this store (the cross-process hit-rate report)."""
        self._flush_stats()
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
        lookups = total["hits"] + total["misses"]
        total["hit_rate"] = total["hits"] / lookups if lookups else 0.0
        total["processes"] = processes
        return total

    def __len__(self):
        with self._lock:
            for shard in range(self.n_shards):
                self._refresh(shard)
            return sum(len(self._shard(s).index)
                       for s in range(self.n_shards))

    def __repr__(self):
        return (f"<ShardedStore {self.root} shards={self.n_shards} "
                f"pid={self._pid}>")
