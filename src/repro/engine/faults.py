"""Failure taxonomy, per-point deadlines and fault counters for the
evaluation stack.

Every point attempt ends as a payload or an :class:`EvalFailure` whose
``kind`` is one of:

- **deterministic** — ``CompilationError``, ``SimulationError``, bad
  phase names: the point's own fault.
- **transient** — an ``OSError`` the point could not absorb (pipe or
  segment I/O): the world, not the point.
- **timeout** — the point exceeded its wall-clock deadline (the
  attempt's own alarm, or the parent-side watchdog that killed a
  hard-hung worker).
- **crash** — the point's worker died (``BrokenProcessPool``, or an
  injected crash).

A failure the attempt reports itself is final: re-running a
deterministic point cannot change its outcome, and a timeout retry
re-runs the same program under the same deadline.  The one re-run the
evaluator makes is the solo re-run that tells a crasher from the
innocent points that shared its broken pool (see
:class:`repro.engine.evaluator.PointEvaluator`).
"""

import contextlib
import os
import signal
import threading
from collections import namedtuple

DETERMINISTIC = "deterministic"
TRANSIENT = "transient"
TIMEOUT = "timeout"
CRASH = "crash"

_KIND_COUNTERS = {DETERMINISTIC: "deterministic", TRANSIENT: "transient",
                  TIMEOUT: "timeouts", CRASH: "crashes"}


class EvalTimeout(Exception):
    """A point exceeded its wall-clock deadline."""


class EvalFailure(namedtuple("EvalFailure",
                             "name sequence error kind attempts")):
    """A point whose evaluation failed; kept in batch output order.

    A picklable record, so pool workers send it back as is.  ``kind``
    is the failure taxonomy bucket (see the module docstring):
    ``deterministic`` failures are the point's own fault, ``timeout``
    points exceeded their deadline, ``crash`` points killed their
    worker, and ``transient`` points hit an I/O error they could not
    absorb.  ``attempts`` counts the runs the point got: 1, or 2 after
    a solo re-run that told a crasher from the innocent points sharing
    its broken pool.
    """

    __slots__ = ()
    failed = True

    def __repr__(self):
        return (f"<EvalFailure {self.name} {self.sequence} "
                f"[{self.kind}]: {self.error}>")


def classify_exception(error):
    """Map an exception to its failure kind (see module docstring)."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.engine.chaos import InjectedCrash

    if isinstance(error, EvalTimeout):
        return TIMEOUT
    if isinstance(error, (BrokenProcessPool, InjectedCrash)):
        return CRASH
    if isinstance(error, OSError):
        return TRANSIENT
    return DETERMINISTIC  # CompilationError, SimulationError, bad phases, ...


def failure_of(spec, error):
    """The classified :class:`EvalFailure` of an exception raised by an
    attempt at ``spec``: the one place an exception becomes a point
    failure."""
    return EvalFailure(spec["name"], tuple(spec["sequence"]), repr(error),
                       classify_exception(error),
                       int(spec.get("attempt", 1)))


def counter_for_kind(kind):
    return _KIND_COUNTERS[kind]


@contextlib.contextmanager
def deadline(seconds):
    """Raise :class:`EvalTimeout` after ``seconds`` of wall clock.

    Uses ``SIGALRM``, so it is only armed on POSIX main threads.
    Process-pool workers run their work on the worker's main thread,
    and in-process points (serial mode and the composed path) run on
    the caller's thread, so a caller on the main thread gets the alarm
    for every point.  Called from another thread this is a no-op, and
    only process-mode points stay bounded there, by the worker's own
    alarm and the evaluator's parent-side watchdog.
    """
    if not seconds or os.name != "posix" or \
            threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_alarm(signum, frame):
        raise EvalTimeout(f"point exceeded {seconds}s deadline")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: ``retries`` counts solo re-runs after a pool break.
FAULT_COUNTERS = ("timeouts", "crashes", "transient", "deterministic",
                  "pool_respawns", "retries")


class FaultStats:
    """Thread-safe fault counters of one evaluator; every counter is
    bumped in the process that supervises the points."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counters = dict.fromkeys(FAULT_COUNTERS, 0)

    def bump(self, counter, amount=1):
        with self._lock:
            self.counters[counter] += amount

    def as_dict(self):
        with self._lock:
            return dict(self.counters)
