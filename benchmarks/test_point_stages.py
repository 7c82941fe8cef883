"""Benchmark record of where a fresh point's time goes, stage by stage.

Evaluates every bundled program at -O0 and at -O2 on riscv
(``engine.evaluator.evaluate_point``, no cache) and records, as the
median of three passes after one warm-up pass, the absolute seconds of
four stages summed over the corpus: the template clone
(``workloads.module_from_source``), the input fingerprint (each point's
first ``ir.printer.module_fingerprint``), the cost features
(``features.costmodel.extract_cost_features``) and the whole point.
Next to the seconds it records the ``clone_module`` calls per point.

Slow tier, and no wall-clock bound: the numbers are recorded, not
gated.  Running with ``REPRO_BENCH_RECORD=1`` appends them to
``BENCH_engine.json`` at the repo root.
"""

import importlib
import os
import statistics
import sys
import time

import pytest

from repro.baselines import STANDARD_LEVELS
from repro.engine.evaluator import evaluate_point
from repro.workloads import load_suite, suite_names

from bench_record import record

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_engine.json")
LEVELS = {"-O0": (), "-O2": tuple(STANDARD_LEVELS["-O2"])}


class StageClock:
    """Per-stage seconds and calls of one pass over the corpus."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}
        self.first_pending = False  # the point's first call not seen yet

    def add(self, stage, seconds):
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        self.calls[stage] = self.calls.get(stage, 0) + 1

    def wrap(self, monkeypatch, module_name, attr, stage,
             first_per_point=False):
        """Time every call of ``module_name.attr`` (only each point's
        first with ``first_per_point``) into ``stage``, through every
        ``repro`` binding of it."""
        original = getattr(importlib.import_module(module_name), attr)

        def timed(*args, **kwargs):
            if first_per_point:
                if not self.first_pending:
                    return original(*args, **kwargs)
                self.first_pending = False
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.add(stage, time.perf_counter() - started)

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, timed)

    def point(self, spec):
        self.first_pending = True
        started = time.perf_counter()
        evaluate_point(spec)
        self.add("point", time.perf_counter() - started)


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_point_stage_seconds_record(level, monkeypatch):
    specs = [{"source": workload.source, "name": workload.name,
              "sequence": list(LEVELS[level]), "target": "riscv",
              "measurement_seed": 0}
             for suite in suite_names() for workload in load_suite(suite)]
    clock = StageClock()
    clock.wrap(monkeypatch, "repro.workloads", "module_from_source",
               "template_clone")
    clock.wrap(monkeypatch, "repro.ir.printer", "module_fingerprint",
               "input_fingerprint", first_per_point=True)
    clock.wrap(monkeypatch, "repro.features.costmodel",
               "extract_cost_features", "cost_features")
    clock.wrap(monkeypatch, "repro.passes.cloning", "clone_module",
               "clone_module")
    passes = []
    for _ in range(4):
        clock.seconds, clock.calls = {}, {}
        for spec in specs:
            clock.point(spec)
        passes.append((dict(clock.seconds), dict(clock.calls)))
    timed = passes[1:]  # the first pass parses and analyzes templates
    stages = ("template_clone", "input_fingerprint", "cost_features",
              "point")
    medians = {stage: statistics.median(seconds[stage]
                                        for seconds, _ in timed)
               for stage in stages}
    calls = timed[0][1]
    assert all(pass_calls == calls for _, pass_calls in timed)
    assert calls["point"] == calls["input_fingerprint"] == len(specs)
    clones_per_point = calls["clone_module"] / len(specs)
    print(f"\n[point-stages] {level}, {len(specs)} points: "
          + ", ".join(f"{stage} {medians[stage]:.3f}s"
                      for stage in stages)
          + f"; {clones_per_point:g} clones per point")
    record(BENCH_PATH, {
        "benchmark": "point_stages",
        "level": level,
        "target": "riscv",
        "points": len(specs),
        "clones_per_point": clones_per_point,
        **{f"{stage}_seconds": round(medians[stage], 4)
           for stage in stages},
    })
