"""Deterministic fault injection for the evaluation stack, by
monkeypatching.

Recovery code that is never executed is broken code waiting for
production traffic.  These helpers make chosen points crash, stall or
hang, and make the farm store's I/O fail, flip bits or tear lines, so
the evaluator's one recovery path and the store's checksums are
exercised by tests instead of trusted.  Nothing here is known to
``repro``: every fault goes in through a ``monkeypatch``.

- **Point faults** (:func:`inject_point_faults`) replace
  ``repro.engine.evaluator.attempt_point`` with a wrapper that runs the
  fault before the point, inside the real deadline and the real
  classification.  A point is selected by its ``(workload name,
  sequence)`` identity and faults on its first ``times`` attempts (the
  attempt number travels in the spec), so "a crash the solo re-run gets
  past" (``times=1``) and "a poison point that crashes every run"
  (``times=99``) are both exact.  Pools start their workers with
  ``fork``, so a patch made before a batch reaches its workers.
- **Store faults** (:func:`inject_store_faults`) are rate-based with a
  per-``(seed, site, key)`` stable draw (:func:`chance`): whether a
  given key's read fails or its line is damaged depends only on the
  seed and the key, never on call order, thread timing or process
  identity.
"""

import errno
import hashlib
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

from repro.engine import evaluator, store

_ATTEMPT_POINT = evaluator.attempt_point
#: The point-fault ``plan``, ``{(name, sequence): (kind, times)}``, and
#: the ``seconds`` a stall or hang sleeps; read in the process that runs
#: the attempt (forked workers inherit the parent's).
_STATE = {"plan": {}, "seconds": 0.3}


def chance(seed, site, key):
    """Deterministic uniform [0, 1) draw for one (seed, site, key)."""
    # A keyed hash, not a CRC: a CRC is linear, so the draws of two
    # seeds would differ by one fixed XOR for every equal-length key.
    digest = hashlib.blake2b(f"{seed}\x1f{site}\x1f{key}".encode("utf-8"),
                             digest_size=4).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 32


def fault_for(plan, spec):
    """The fault kind ``plan`` gives this attempt at ``spec``, or None."""
    identity = (spec["name"], tuple(spec["sequence"]))
    kind, times = plan.get(identity, (None, 0))
    return kind if int(spec.get("attempt", 1)) <= times else None


def _inject(spec):
    kind = fault_for(_STATE["plan"], spec)
    if kind == "crash":
        if multiprocessing.parent_process() is not None:
            # A real pool worker: die the way the OOM killer kills, with
            # no cleanup and no exception, leaving a broken pool.
            os._exit(13)
        raise BrokenProcessPool(f"injected crash of {spec['name']!r}")
    if kind == "stall":
        time.sleep(_STATE["seconds"])
    elif kind == "hang":
        # A hard hang: the attempt's SIGALRM deadline cannot interrupt
        # it, so only the parent-side watchdog (which kills the worker)
        # recovers.
        blocked = threading.current_thread() is threading.main_thread()
        if blocked:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            time.sleep(_STATE["seconds"])
        finally:
            if blocked:
                signal.pthread_sigmask(signal.SIG_UNBLOCK,
                                       {signal.SIGALRM})


def _attempt_with_faults(spec, run=evaluator.evaluate_point):
    """Stands in for ``attempt_point``; top-level so pools pickle it."""
    def faulty(spec):
        _inject(spec)
        return run(spec)

    return _ATTEMPT_POINT(spec, faulty)


def inject_point_faults(monkeypatch, faults, seconds=0.3):
    """Make points fault on their first attempts.

    ``faults`` maps a point, ``(workload or name, sequence)``, to
    ``(kind, times)``: ``kind`` is ``"crash"``, ``"stall"`` (a sleep of
    ``seconds`` the deadline can cut short) or ``"hang"`` (one it
    cannot), and the point faults on attempts 1 to ``times``.
    """
    assert multiprocessing.get_start_method() == "fork", \
        "pool workers must inherit the patch"
    plan = {(getattr(name, "name", name), tuple(sequence)): fault
            for (name, sequence), fault in faults.items()}
    monkeypatch.setitem(_STATE, "plan", plan)
    monkeypatch.setitem(_STATE, "seconds", seconds)
    monkeypatch.setattr(evaluator, "attempt_point", _attempt_with_faults)


class _TornLine(bytes):
    """An encoded segment line whose write will fail halfway."""


class _ShortLine(bytes):
    """An encoded segment line whose write will stop halfway and return
    the short count, as an unbuffered write may."""


class _TearingWriter:
    """A segment handle whose write of a :class:`_TornLine` stops
    halfway and fails, as a full disk would, and whose write of a
    :class:`_ShortLine` stops halfway without an error."""

    def __init__(self, handle):
        self._handle = handle

    def tell(self):
        return self._handle.tell()

    def close(self):
        self._handle.close()

    def write(self, data):
        if isinstance(data, (_TornLine, _ShortLine)):
            written = self._handle.write(data[:len(data) // 2])
            if isinstance(data, _TornLine):
                raise OSError(errno.ENOSPC, "injected torn write")
            return written
        return self._handle.write(data)


def inject_store_faults(monkeypatch, seed=0, io_error_rate=0.0,
                        corrupt_rate=0.0, truncate_rate=0.0, torn=(),
                        short=()):
    """Make every :class:`~repro.engine.store.ShardedStore` misbehave.

    Per key: a ``get``/``put`` raises ``OSError`` with probability
    ``io_error_rate``; a written line has a byte flipped with
    probability ``corrupt_rate``; a write fails halfway (a torn line)
    with probability ``truncate_rate``, or always for a key in
    ``torn``; and a write of a key in ``short`` stops halfway and
    reports the short count.
    """
    def failing(method, op):
        def wrapper(self, key, *args):
            if chance(seed, f"store.{op}", key) < io_error_rate:
                raise OSError(errno.EIO, f"injected store {op} failure")
            return method(self, key, *args)
        return wrapper

    def encode_line(key, payload, encode=store._encode_line):
        data = encode(key, payload)
        if chance(seed, "store.corrupt", key) < corrupt_rate:
            position = len(data) // 2
            data = (data[:position] + bytes([data[position] ^ 0x5A])
                    + data[position + 1:])
        if key in torn or \
                chance(seed, "store.truncate", key) < truncate_rate:
            return _TornLine(data)
        if key in short:
            return _ShortLine(data)
        return data

    def tearing_open(path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        return _TearingWriter(handle) if mode == "ab" else handle

    for op in ("get", "put"):
        monkeypatch.setattr(store.ShardedStore, op,
                            failing(getattr(store.ShardedStore, op), op))
    monkeypatch.setattr(store, "_encode_line", encode_line)
    monkeypatch.setattr(store, "open", tearing_open, raising=False)
