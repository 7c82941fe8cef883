"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of each layer of ``repro`` from
the outside: module-level functions are replaced wherever a caller
looks them up, methods are replaced on their class.  Nothing is
installed unless :func:`install` is called, so untraced runs execute the
program unmodified.

A span is ``[name, start_ns, end_ns, parent_index]``.  A span's self
time is its duration minus the durations of its direct children; the
traced wall time not covered by any top-level span is ``other``.  Self
times of all spans plus ``other`` therefore add up to the wall time.
Intervals passed to :meth:`Recorder.exclude` (the benchmark's probes)
are left out of the wall time and of the self time of the innermost
span open around them.
"""

import functools
import json
import sys
import time
from collections import Counter

#: Span names, in report order.  Each maps to the entry points wrapped
#: by :func:`install`.
SPANS = (
    "lang.frontend",
    "passes.run",
    "ir.fingerprint",
    "features.extract",
    "backend.codegen",
    "sim.tape_build",
    "sim.simulate",
    "engine.store_put",
    "engine.store_get",
    "pe.train",
    "pe.model_fit",
    "pe.predict",
    "rl.train",
    "rl.env_step",
    "pss.optimize",
)


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.started_ns = None
        self.ended_ns = None
        self.excluded = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(recorder, args,
        result)`` may add counters after each successful call."""
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def exclude(self, start_ns, end_ns):
        """Leave ``[start_ns, end_ns]`` out of the spans and the wall
        time.  Safe to call from a signal handler: it only appends."""
        self.excluded.append((start_ns, end_ns))

    # -- the traced interval ---------------------------------------------
    def start(self):
        self.started_ns = time.perf_counter_ns()

    def stop(self):
        self.ended_ns = time.perf_counter_ns()

    @property
    def wall_s(self):
        excluded_ns = sum(end - start for start, end in self.excluded)
        return (self.ended_ns - self.started_ns - excluded_ns) * 1e-9

    # -- summaries -------------------------------------------------------
    def _excluded_by_span(self):
        """Excluded nanoseconds per index of the innermost span open
        around them (-1: outside every span)."""
        events = []
        for index, (_, start, end, _) in enumerate(self.spans):
            events.append((start, 1, index))
            events.append((end, 0, index))
        for start, end in self.excluded:
            events.append((start, 2, end - start))
        events.sort()
        open_spans = []
        excluded = Counter()
        for _, kind, value in events:
            if kind == 1:
                open_spans.append(value)
            elif kind == 0:
                open_spans.pop()
            else:
                excluded[open_spans[-1] if open_spans else -1] += value
        return excluded

    def self_times(self):
        """``{span name: (self seconds, calls)}`` plus ``other``."""
        excluded = self._excluded_by_span()
        self_ns = Counter()
        calls = Counter()
        top_level_ns = 0
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_ns[name] += duration - excluded[index]
            calls[name] += 1
            if parent < 0:
                top_level_ns += duration
            else:
                self_ns[self.spans[parent][0]] -= duration
        out = {name: (self_ns[name] * 1e-9, calls[name]) for name in SPANS}
        out["other"] = ((self.ended_ns - self.started_ns - top_level_ns
                         - excluded[-1]) * 1e-9, 0)
        return out

    def write_chrome_trace(self, path):
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        events = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - self.started_ns) / 1000.0,
                "dur": (end - start) / 1000.0,
                "args": {"id": index, "parent": parent},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


def _replace_function(original, wrapper):
    """Rebind ``original`` to ``wrapper`` in every ``repro`` module that
    holds it, so both ``from x import f`` bindings made at import time
    and lazy imports inside functions find the wrapper."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(recorder, module_name, attr, span, on_result=None):
    original = getattr(sys.modules[module_name], attr)
    _replace_function(original, recorder.wrap(span, original, on_result))


def _wrap_method(recorder, cls, attr, span, on_result=None):
    setattr(cls, attr, recorder.wrap(span, getattr(cls, attr), on_result))


def _count_instructions(recorder, args, result):
    recorder.counters["sim.instructions"] += result.instructions_executed


def _count_rows(recorder, args, result):
    features = args[1]
    recorder.counters["pe.predict.rows"] += (
        len(features) if getattr(features, "ndim", 1) == 2 else 1)


def install(recorder):
    """Wrap every layer entry point of :data:`SPANS` (process-wide)."""
    # Import every module that binds a wrapped name before rebinding.
    import repro.pipeline  # noqa: F401
    import repro.rl.environment as environment
    import repro.pss.selector as selector
    from repro.engine.store import ShardedStore
    from repro.passes import PassManager
    from repro.pe import FittedPipeline, PerformanceEstimator
    from repro.pss import PhaseSequenceSelector
    from repro.rl import PhaseSequenceEnv, ReinforceTrainer
    from repro.sim import TapeSimulator

    _wrap_function(recorder, "repro.lang", "compile_source",
                   "lang.frontend")
    _wrap_function(recorder, "repro.ir.printer", "module_fingerprint",
                   "ir.fingerprint")
    _wrap_function(recorder, "repro.features", "extract_features",
                   "features.extract")
    _wrap_function(recorder, "repro.backend.codegen", "compile_module",
                   "backend.codegen")
    _wrap_function(recorder, "repro.engine.batched", "predict_many",
                   "pe.predict", _count_rows)
    _wrap_method(recorder, PassManager, "run", "passes.run")
    _wrap_method(recorder, TapeSimulator, "__init__", "sim.tape_build")
    _wrap_method(recorder, TapeSimulator, "run", "sim.simulate",
                 _count_instructions)
    _wrap_method(recorder, ShardedStore, "put", "engine.store_put")
    _wrap_method(recorder, ShardedStore, "get", "engine.store_get")
    _wrap_method(recorder, PerformanceEstimator, "train", "pe.train")
    _wrap_method(recorder, FittedPipeline, "fit", "pe.model_fit")
    _wrap_method(recorder, ReinforceTrainer, "train", "rl.train")
    _wrap_method(recorder, PhaseSequenceEnv, "step", "rl.env_step")
    _wrap_method(recorder, PhaseSequenceSelector, "optimize",
                 "pss.optimize")

    # RL steps and PSS deployment apply single phases through
    # ``create_pass(name).run`` instead of the PassManager.
    for module in (environment, selector):
        module.create_pass = _traced_pass_factory(recorder,
                                                  module.create_pass)


def _traced_pass_factory(recorder, create_pass):
    def traced_create_pass(name):
        phase = create_pass(name)
        phase.run = recorder.wrap("passes.run", phase.run)
        return phase

    return traced_create_pass
