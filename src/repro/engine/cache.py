"""Content-addressed evaluation cache.

Every compile->simulate evaluation is keyed by
``(module_fingerprint, pass_sequence, platform.target, measurement_seed)``
so any component of the system (data extraction, RL rollouts, PSS
deployment checks, baseline searches) that asks for the same point gets
the stored result instead of re-running the compiler and simulator.

The cache is a bounded LRU with hit/miss/eviction counters and an
optional on-disk tier that survives across processes: a
:class:`repro.engine.store.ShardedStore` (the compile farm's
append-only segment store).
"""

import hashlib
import threading
from collections import OrderedDict

from repro.engine.store import ShardedStore


DEFAULT_FUEL = 20_000_000


def cache_key(module_fingerprint, sequence, target, measurement_seed,
              fuel=DEFAULT_FUEL):
    """Stable digest identifying one evaluation point.

    ``module_fingerprint`` is the canonical hash of the *input* module
    (before the sequence runs), so a hit skips pass running, codegen and
    simulation entirely.  ``fuel`` is part of the key: a run that
    succeeds under a large budget must not answer for a smaller one
    (which would have raised fuel exhaustion).
    """
    payload = "\x1f".join((
        str(module_fingerprint),
        "\x1e".join(str(phase) for phase in sequence),
        str(target),
        str(measurement_seed),
        str(fuel),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CacheStats:
    """Hit/miss/store/eviction counters for one cache instance."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_stores = 0
        self.disk_errors = 0

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_errors": self.disk_errors,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        return (f"<CacheStats hits={self.hits} misses={self.misses} "
                f"evictions={self.evictions} "
                f"hit_rate={self.hit_rate:.2%}>")


class EvaluationCache:
    """Bounded LRU over JSON-serializable payload dicts.

    ``store_dir`` enables the on-disk tier: entries evicted from (or
    never present in) memory are reloaded from disk on a miss, and every
    store is mirrored to disk, so a warm directory makes a fresh process
    start with a full cache.  The tier is a cross-process
    :class:`~repro.engine.store.ShardedStore`, so many concurrent
    clients and worker processes pointed at the same directory share one
    warm farm.
    """

    def __init__(self, max_entries=4096, store_dir=None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.store = ShardedStore(store_dir) if store_dir is not None \
            else None
        self.store_dir = self.store.root if self.store is not None \
            else None
        self.stats = CacheStats()
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key):
        """The stored payload for ``key``, or None (counts a miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            payload = self._disk_load(key)
            if payload is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(key, payload)
                return payload
            self.stats.misses += 1
            return None

    def put(self, key, payload):
        with self._lock:
            self.stats.stores += 1
            self._insert(key, payload)
            self._disk_store(key, payload)

    def _insert(self, key, payload):
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # -- disk tier --------------------------------------------------------
    # The disk tier is strictly best-effort: an I/O error on either
    # side degrades to a cache miss / an unmirrored entry (counted in
    # ``disk_errors``), never a failed evaluation.
    def _disk_load(self, key):
        if self.store is None:
            return None
        try:
            return self.store.get(key)
        except OSError:
            self.stats.disk_errors += 1
            return None

    def _disk_store(self, key, payload):
        if self.store is None:
            return
        try:
            self.store.put(key, payload)
            self.stats.disk_stores += 1
        except (OSError, TypeError):
            self.stats.disk_errors += 1
