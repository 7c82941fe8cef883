"""Deterministic fault injection for the evaluation stack (the chaos
harness).

Recovery code that is never executed is broken code waiting for
production traffic.  This module provides a *seeded* injector that is
threaded through the evaluator (worker crash, soft stall, hard hang)
and the farm store (I/O errors, corrupted and truncated segment
lines), so the one recovery path in :mod:`repro.engine.evaluator` and
the store's checksums are exercised by tests instead of trusted.

Determinism model
-----------------

Two kinds of decisions, both reproducible run-to-run:

- **Point faults** (``crash_points`` / ``stall_points`` /
  ``hang_points``) select evaluation points either by batch index
  (int) or by ``(workload name, sequence)`` tuple.  A selected point
  faults on its first ``times`` *attempts* — the attempt number travels
  in the spec — so "a crash the solo re-run gets past" (``times=1``)
  and "a poison point that crashes every run" (``times=99``) are both
  expressible exactly.
- **Store faults** are rate-based with a per-``(seed, site, token)``
  stable hash draw: whether a given key's read errors or a given line
  is corrupted depends only on the seed and the key, never on call
  order, thread timing, or process identity.

The injector is plain picklable state: the evaluator embeds it in
worker specs, so process-pool workers apply the same plan the parent
computed.  A crash inside a real pool worker is a hard ``os._exit``
(the ``BrokenProcessPool``/OOM-killer shape); in-process (the serial
tier and the composed path) it raises :class:`InjectedCrash` instead,
which the fault taxonomy classifies as a final ``crash``.
"""

import multiprocessing
import os
import signal
import threading
import time
import zlib


class InjectedFault(Exception):
    """Base class for faults raised by the chaos injector."""


class InjectedCrash(InjectedFault):
    """In-process stand-in for a killed worker (classified crash)."""


class InjectedIOError(OSError):
    """Injected store I/O failure (classified transient)."""


def _chance(seed, site, token):
    """Deterministic uniform [0, 1) draw for one (seed, site, token) —
    independent of call order, threads, and process identity."""
    digest = zlib.crc32(f"{seed}\x1f{site}\x1f{token}".encode("utf-8"))
    return (digest & 0xFFFFFFFF) / 2.0 ** 32


def _normalize_plan(points, times):
    """``points`` -> {selector: times}.  Selectors are batch indices
    (int) or ``(name, sequence)`` tuples; a dict input carries explicit
    per-selector fault counts."""
    if not points:
        return {}
    if isinstance(points, dict):
        items = points.items()
    else:
        items = ((point, times) for point in points)
    plan = {}
    for selector, count in items:
        if not isinstance(selector, int):
            name, sequence = selector
            selector = (name, tuple(sequence))
        plan[selector] = int(count)
    return plan


class ChaosInjector:
    """Seeded, deterministic fault plan for the evaluator and store.

    Parameters
    ----------
    seed:
        Drives every rate-based draw; two injectors with equal
        configuration make identical decisions.
    crash_points / stall_points / hang_points:
        Point selectors (see :func:`_normalize_plan`); each selected
        point crashes/stalls/hangs on its first ``times`` attempts.  A
        stall can be cut short by the point's own deadline alarm; a
        hang blocks that alarm, so only the parent-side watchdog ends
        it.
    stall_seconds:
        How long an injected stall or hang sleeps (choose it past the
        evaluator's ``--eval-timeout`` to exercise deadline recovery).
    io_error_rate / corrupt_rate / truncate_rate:
        Per-key probabilities of store get/put I/O errors, of a written
        segment line having a byte flipped, and of a written line being
        truncated (torn-write shape).
    """

    def __init__(self, seed=0, crash_points=None, stall_points=None,
                 hang_points=None, times=1, stall_seconds=0.3,
                 io_error_rate=0.0, corrupt_rate=0.0,
                 truncate_rate=0.0):
        self.seed = seed
        self.crash_points = _normalize_plan(crash_points, times)
        self.stall_points = _normalize_plan(stall_points, times)
        self.hang_points = _normalize_plan(hang_points, times)
        self.stall_seconds = stall_seconds
        self.io_error_rate = io_error_rate
        self.corrupt_rate = corrupt_rate
        self.truncate_rate = truncate_rate
        #: Parent-side injection counters (worker-process injections
        #: surface through recovery outcomes, not through this dict).
        self.injected = {"crashes": 0, "stalls": 0, "io_errors": 0,
                         "corrupted": 0, "truncated": 0}

    # -- point faults (evaluator hook) -----------------------------------
    def _selected(self, plan, spec):
        if not plan:
            return False
        attempt = int(spec.get("attempt", 1))
        index = spec.get("chaos_point")
        identity = (spec.get("name"),
                    tuple(spec.get("sequence", ())))
        for selector, times in plan.items():
            hit = (index == selector if isinstance(selector, int)
                   else identity == selector)
            if hit and attempt <= times:
                return True
        return False

    def on_point(self, spec):
        """Evaluator hook: runs at the start of every point attempt."""
        if self._selected(self.crash_points, spec):
            self.injected["crashes"] += 1
            if multiprocessing.parent_process() is not None:
                # A real pool worker: die the way the OOM killer kills
                # — no cleanup, no exception, a broken pool upstairs.
                os._exit(13)
            raise InjectedCrash(
                f"injected worker crash at point "
                f"{spec.get('chaos_point')} ({spec.get('name')!r}, "
                f"attempt {spec.get('attempt', 1)})")
        if self._selected(self.stall_points, spec):
            self.injected["stalls"] += 1
            time.sleep(self.stall_seconds)
        if self._selected(self.hang_points, spec):
            # A *hard* hang: the worker-side SIGALRM deadline cannot
            # interrupt it, so only the parent-side watchdog (which
            # kills the worker) recovers.  ``sleep`` still bounds the
            # damage if nothing supervises us.
            self.injected["stalls"] += 1
            blocked = (os.name == "posix" and threading.current_thread()
                       is threading.main_thread())
            if blocked:
                signal.pthread_sigmask(signal.SIG_BLOCK,
                                       {signal.SIGALRM})
            try:
                time.sleep(self.stall_seconds)
            finally:
                if blocked:
                    signal.pthread_sigmask(signal.SIG_UNBLOCK,
                                           {signal.SIGALRM})

    # -- store faults (ShardedStore hooks) -------------------------------
    def on_store_op(self, op, key):
        """Store hook: may raise an I/O error for this (op, key)."""
        if self.io_error_rate and \
                _chance(self.seed, f"store.{op}", key) < self.io_error_rate:
            self.injected["io_errors"] += 1
            raise InjectedIOError(
                f"injected store {op} failure for key {key[:12]}")

    def mangle_line(self, key, data):
        """Store hook: corrupt or truncate an encoded segment line
        before it reaches disk (torn-write / bit-flip shapes)."""
        if self.truncate_rate and \
                _chance(self.seed, "store.truncate", key) < self.truncate_rate:
            self.injected["truncated"] += 1
            return data[:max(1, len(data) // 2)]
        if self.corrupt_rate and \
                _chance(self.seed, "store.corrupt", key) < self.corrupt_rate:
            self.injected["corrupted"] += 1
            position = len(data) // 2
            return (data[:position]
                    + bytes([data[position] ^ 0x5A])
                    + data[position + 1:])
        return data


def maybe_fail_point(spec):
    """Apply the spec's embedded injector (no-op without one) — the
    single entry point both worker- and in-process execution share."""
    injector = spec.get("chaos")
    if injector is not None:
        injector.on_point(spec)
