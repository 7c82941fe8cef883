"""Reference clock: times parts of the work against a fixed probe.

The host's cores are shared with other tenants, and the speed of the
same code drifts by up to 1.7x, in CPU time as well as in wall time
(shared caches and memory, clock frequency), over spans from under a
second to minutes.  A probe is a fixed amount of object-heavy
interpreter work that uses only the standard library, so no change to
``repro`` moves it.

While a part of the work runs, a CPU-time interval timer (``SIGPROF``)
interrupts it every ``SAMPLE_INTERVAL_S`` of CPU time and runs one probe
on the same thread, so the probes see the speed the work sees.  Each
part's CPU time, less the probes inside it, is rescaled by the mean
probe time over the part (at least the last ``MIN_WINDOW`` samples)::

    reference seconds = part CPU seconds * REFERENCE_PROBE_S / probe seconds

A part measured while the host runs at half speed reads the same as on a
quiet host.  Set-up, which runs before the timer starts, is rescaled by
probes run right after it.

CPU time here is the calling thread's (``time.thread_time``): while a
process-wide CPU timer is armed, Linux serves the process CPU clock at
tick granularity.  The benchmark keeps the work on one thread.
"""

import gc
import signal
import statistics
import time
from contextlib import contextmanager

#: CPU seconds one probe takes on a quiet host (2-vCPU x86-64 VM, CPython
#: 3.11).  It only sets the scale: reference seconds are close to CPU
#: seconds on such a host.
REFERENCE_PROBE_S = 0.0006
#: CPU time between two probe samples (the probes add about 4%).
SAMPLE_INTERVAL_S = 0.02
MIN_WINDOW = 8


class _Node:
    __slots__ = ("index", "name", "uses")

    def __init__(self, index, name):
        self.index = index
        self.name = name
        self.uses = []


def probe():
    """A fixed amount of object-heavy interpreter work: objects with
    attributes, dict and list traffic, sorting and string building.
    Nothing it builds is cyclic, so reference counting frees all of it
    and the probe leaves the collector's counts as they were."""
    nodes = [_Node(index, f"v{index % 97}") for index in range(300)]
    by_name = {}
    for node in nodes:
        by_name.setdefault(node.name, []).append(node)
        node.uses.append((node.index * 31 + 7) % len(nodes))
    order = sorted(nodes, key=lambda n: (len(nodes[n.uses[0]].name),
                                         n.name, -n.index))
    digest = 0
    for node in order:
        digest = (digest * 33 + nodes[node.uses[0]].index
                  + len(by_name[node.name])) & 0xFFFFFFFF
    text = ",".join(f"{n.index}:{n.name}" for n in order)
    return digest ^ len(text.split(","))


def probe_s(count=1):
    """Median CPU seconds of one probe over ``count`` probes.  The cyclic
    collector is off meanwhile: a collection of the program's heap
    belongs to the program's time, not the probe's."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            started = time.thread_time()
            probe()
            times.append(time.thread_time() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class ReferenceClock:
    """CPU time of named parts, rescaled to the reference speed.

    ``parts`` maps each part to its reference seconds and ``cpu_parts``
    to its CPU seconds without the probes; ``probe_ns`` is the wall time
    spent in sampled probes.  Use it as a context manager around the
    parts: the timer runs only inside it.  ``on_probe(start_ns,
    end_ns)``, if set, is called with each sampled probe's wall-clock
    interval."""

    on_probe = None

    def __init__(self, warmup=20):
        probe_s(warmup)
        self.setup_probe_s = probe_s(15)
        self.samples = []
        self.probe_cpu_s = 0.0
        self.probe_ns = 0
        self.parts = {}
        self.cpu_parts = {}

    def scale(self, cpu_s):
        """Reference seconds of ``cpu_s`` measured just before the
        clock was made (set-up)."""
        return cpu_s * REFERENCE_PROBE_S / self.setup_probe_s

    def _sample(self, signum, frame):
        started_ns = time.perf_counter_ns()
        started = time.thread_time()
        self.samples.append(probe_s())
        self.probe_cpu_s += time.thread_time() - started
        ended_ns = time.perf_counter_ns()
        self.probe_ns += ended_ns - started_ns
        if self.on_probe is not None:
            self.on_probe(started_ns, ended_ns)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.previous)

    @contextmanager
    def part(self, name):
        first_sample = len(self.samples)
        probes_before = self.probe_cpu_s
        started = time.thread_time()
        yield
        cpu_s = (time.thread_time() - started
                 - (self.probe_cpu_s - probes_before))
        window = self.samples[min(first_sample, len(self.samples)
                                  - MIN_WINDOW):] or [self.setup_probe_s]
        self.cpu_parts[name] = cpu_s
        self.parts[name] = (cpu_s * REFERENCE_PROBE_S
                            / statistics.fmean(window))
