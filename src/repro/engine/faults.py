"""Failure taxonomy, bounded retries, and poison-point quarantine for
the evaluation stack.

The evaluator (and the engine's in-process composed path) classify
every point failure into:

- **deterministic** — ``CompilationError``, ``SimulationError``, bad
  phase names: re-running cannot change the outcome, so the failure is
  final on the first attempt.
- **transient** — store/pipe I/O errors and other infrastructure
  hiccups: retried with deterministic backoff.
- **timeout** — the point exceeded its wall-clock deadline (worker-side
  alarm or the parent-side watchdog that killed a hung worker).
- **crash** — the point's worker died (``BrokenProcessPool`` / an
  injected crash): retried in isolation; repeat offenders are
  quarantined.

Quarantine is the poison-point ledger: a point whose evaluation kills
workers ``threshold`` times is recorded (spec fingerprint + cause) and
from then on answered with a structured failure instead of being
retried forever.  With a farm directory the ledger persists on disk
(one atomic JSON file per fingerprint under ``_quarantine/``), so every
client of the farm benefits from any client's discovery.

:class:`FaultStats` aggregates fault telemetry the same way the farm
store aggregates hit rates: local counters plus per-process snapshots
flushed under the farm's ``_faults/`` directory.
"""

import contextlib
import hashlib
import json
import os
import signal
import threading
import time
from collections import namedtuple

# -- failure taxonomy -----------------------------------------------------

DETERMINISTIC = "deterministic"
TRANSIENT = "transient"
TIMEOUT = "timeout"
CRASH = "crash"
QUARANTINED = "quarantined"

#: Kinds worth re-running: everything except a deterministic failure
#: (and the terminal ``quarantined`` kind, which never reaches the
#: policy).
RETRYABLE_KINDS = (TRANSIENT, TIMEOUT, CRASH)

_KIND_COUNTERS = {DETERMINISTIC: "deterministic", TRANSIENT: "transient",
                  TIMEOUT: "timeouts", CRASH: "crashes"}


class EvalTimeout(Exception):
    """A point exceeded its wall-clock deadline."""


#: How a failed point travels back from workers: picklable, carrying
#: the classification and the attempt count alongside the context the
#: old ``(name, sequence, message)`` tuples had.
FailureInfo = namedtuple("FailureInfo",
                         "name sequence error kind attempts")


def classify_exception(error):
    """Map an exception to its failure kind (see module docstring)."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.engine.chaos import InjectedCrash

    if isinstance(error, EvalTimeout):
        return TIMEOUT
    if isinstance(error, (BrokenProcessPool, InjectedCrash)):
        return CRASH
    if isinstance(error, OSError):
        return TRANSIENT  # store/pipe/segment I/O — the world, not the point
    return DETERMINISTIC  # CompilationError, SimulationError, bad phases, ...


def counter_for_kind(kind):
    return _KIND_COUNTERS.get(kind, "transient")


# -- wall-clock deadlines -------------------------------------------------

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


# -- retry policy ---------------------------------------------------------

class RetryPolicy:
    """Bounded retries with a deterministic backoff schedule.

    ``max_retries`` is the number of *re*-runs a point may get beyond
    its first attempt; ``delay(attempt)`` is a pure function of the
    attempt number (no jitter), so fault-injection runs are
    reproducible wall-clock included.
    """

    def __init__(self, max_retries=2, backoff=0.02, factor=2.0):
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff
        self.factor = factor

    def should_retry(self, kind, attempt):
        """May a point whose ``attempt``-th run failed as ``kind`` run
        again?"""
        return kind in RETRYABLE_KINDS and attempt <= self.max_retries

    def delay(self, attempt):
        if not self.backoff:
            return 0.0
        return self.backoff * (self.factor ** (attempt - 1))

    def __repr__(self):
        return (f"<RetryPolicy max_retries={self.max_retries} "
                f"backoff={self.backoff}>")


# -- spec identity --------------------------------------------------------

def point_fingerprint(spec):
    """Content fingerprint of one evaluation point (the quarantine
    ledger key): source + sequence + platform + seed + fuel.  Stable
    across processes, batches, and attempt decorations."""
    payload = "\x1f".join((
        str(spec.get("name", "")),
        hashlib.sha256(str(spec.get("source", ""))
                       .encode("utf-8")).hexdigest(),
        "\x1e".join(str(phase) for phase in spec.get("sequence", ())),
        str(spec.get("target", "")),
        str(spec.get("measurement_seed", "")),
        str(spec.get("fuel", "")),
    ))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- quarantine ledger ----------------------------------------------------

class Quarantine:
    """Poison-point ledger: strike counts per spec fingerprint.

    In-memory by default; with ``directory`` set (the farm's
    ``_quarantine/``), records are persisted one-atomic-file-per-point
    so concurrent clients share discoveries.  Records survive the
    processes that wrote them — exactly the reproducer-capture shape
    crash-recovering compiler infra uses.
    """

    def __init__(self, directory=None, threshold=3):
        self.directory = os.path.abspath(directory) if directory else None
        self.threshold = max(1, int(threshold))
        self._lock = threading.Lock()
        self._memory = {}
        if self.directory:
            os.makedirs(self.directory, exist_ok=True)

    def _path(self, fingerprint):
        return os.path.join(self.directory, f"{fingerprint}.json")

    def get(self, fingerprint):
        """The strike record for a fingerprint, or None."""
        with self._lock:
            record = self._memory.get(fingerprint)
            if record is None and self.directory:
                try:
                    with open(self._path(fingerprint)) as handle:
                        record = json.load(handle)
                    self._memory[fingerprint] = record
                except (OSError, ValueError):
                    record = None
            return dict(record) if record else None

    def blocked(self, fingerprint):
        """The record if this point is quarantined (>= threshold
        strikes), else None."""
        record = self.get(fingerprint)
        if record and record.get("strikes", 0) >= self.threshold:
            return record
        return None

    def strike(self, fingerprint, name, sequence, cause):
        """Record one worker-killing offense; returns the new strike
        count (the caller compares against :attr:`threshold`)."""
        with self._lock:
            record = self._memory.get(fingerprint)
            if record is None and self.directory:
                try:
                    with open(self._path(fingerprint)) as handle:
                        record = json.load(handle)
                except (OSError, ValueError):
                    record = None
            if record is None:
                record = {"fingerprint": fingerprint, "name": name,
                          "sequence": list(sequence), "strikes": 0,
                          "causes": []}
            record["strikes"] = int(record.get("strikes", 0)) + 1
            record.setdefault("causes", []).append(str(cause))
            record["cause"] = str(cause)
            self._memory[fingerprint] = record
            if self.directory:
                path = self._path(fingerprint)
                try:
                    with open(path + ".tmp", "w") as handle:
                        json.dump(record, handle)
                    os.replace(path + ".tmp", path)
                except OSError:  # pragma: no cover - ledger best effort
                    pass
            return record["strikes"]

    def quarantined(self):
        """All records at or past the threshold (memory + disk)."""
        records = {}
        if self.directory:
            try:
                names = os.listdir(self.directory)
            except OSError:
                names = []
            for filename in names:
                if not filename.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(self.directory,
                                           filename)) as handle:
                        record = json.load(handle)
                except (OSError, ValueError):
                    continue
                records[record.get("fingerprint", filename)] = record
        with self._lock:
            records.update(self._memory)
        return [record for record in records.values()
                if record.get("strikes", 0) >= self.threshold]

    def __len__(self):
        return len(self.quarantined())

    def __repr__(self):
        where = self.directory or "memory"
        return f"<Quarantine {where} threshold={self.threshold}>"


# -- fault telemetry ------------------------------------------------------

_FAULT_COUNTERS = ("retries", "timeouts", "crashes", "transient",
                   "deterministic", "pool_respawns", "degradations",
                   "quarantined", "quarantine_blocks")


class FaultStats:
    """Thread-safe fault counters, aggregated farm-style: local values
    plus per-process snapshots under ``<farm>/_faults/`` that any
    process can sum for the cross-process view."""

    def __init__(self, farm_dir=None):
        self.farm_dir = os.path.abspath(farm_dir) if farm_dir else None
        self._lock = threading.Lock()
        self.counters = dict.fromkeys(_FAULT_COUNTERS, 0)
        self._token = os.urandom(4).hex()
        self._pid = os.getpid()

    def bump(self, counter, amount=1):
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def as_dict(self):
        with self._lock:
            return dict(self.counters)

    # -- farm-style aggregation ------------------------------------------
    def _stats_dir(self):
        return os.path.join(self.farm_dir, "_faults")

    def flush(self):
        """Publish this process's counters atomically (no-op without a
        farm directory)."""
        if not self.farm_dir:
            return
        if os.getpid() != self._pid:  # forked child: own snapshot file
            self._pid = os.getpid()
            self._token = os.urandom(4).hex()
        path = os.path.join(self._stats_dir(),
                            f"{self._pid}-{self._token}.json")
        try:
            os.makedirs(self._stats_dir(), exist_ok=True)
            with open(path + ".tmp", "w") as handle:
                json.dump(self.as_dict(), handle)
            os.replace(path + ".tmp", path)
        except OSError:  # pragma: no cover - telemetry best effort
            pass

    def aggregate(self):
        """Farm-wide fault counters summed over every process that
        flushed a snapshot; None without a farm directory."""
        if not self.farm_dir:
            return None
        self.flush()
        total = dict.fromkeys(_FAULT_COUNTERS, 0)
        processes = 0
        try:
            names = os.listdir(self._stats_dir())
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self._stats_dir(),
                                       name)) as handle:
                    snapshot = json.load(handle)
            except (OSError, ValueError):
                continue
            processes += 1
            for counter in _FAULT_COUNTERS:
                total[counter] += int(snapshot.get(counter, 0))
        total["processes"] = processes
        return total


# -- in-process recovery wrapper -----------------------------------------

def run_point_with_recovery(call, spec, *, retry, faults,
                            quarantine=None, chaos=None, timeout=None,
                            point_index=None, first_attempt=1):
    """Run one point in-process with the full recovery stack: quarantine
    check, chaos hooks, wall-clock deadline (main thread only), failure
    classification, and bounded deterministic-backoff retries.

    Returns the evaluator's ``(payload, FailureInfo | None)`` contract.
    This is the serial/composed-path sibling of the pool supervision in
    :class:`repro.engine.evaluator.PointEvaluator`.
    """
    from repro.engine.chaos import maybe_fail_point

    if quarantine is not None:
        record = quarantine.blocked(point_fingerprint(spec))
        if record is not None:
            faults.bump("quarantine_blocks")
            return None, FailureInfo(
                spec["name"], tuple(spec["sequence"]),
                f"quarantined after {record['strikes']} worker-killing "
                f"strikes ({record.get('cause', 'worker crash')})",
                QUARANTINED, 0)
    attempt = max(1, int(first_attempt))
    while True:
        decorated = dict(spec)
        decorated["attempt"] = attempt
        if timeout:
            decorated["timeout"] = timeout
        if chaos is not None:
            decorated["chaos"] = chaos
            if point_index is not None:
                decorated["chaos_point"] = point_index
        try:
            with deadline(timeout):
                maybe_fail_point(decorated)
                payload = call(decorated)
            return payload, None
        except Exception as error:  # noqa: BLE001 - classified below
            kind = classify_exception(error)
            faults.bump(counter_for_kind(kind))
            if retry is not None and retry.should_retry(kind, attempt):
                faults.bump("retries")
                time.sleep(retry.delay(attempt))
                attempt += 1
                continue
            return None, FailureInfo(spec["name"],
                                     tuple(spec["sequence"]),
                                     repr(error), kind, attempt)
