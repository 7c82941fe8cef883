"""A fresh point passes through each compile stage once.

The frontend runs at most once per program per process (points clone a
parsed template), a fresh point clones that template once (the cost
model normalizes the point's own module, not a second clone), the
template's fingerprints and static partials are computed once per
process and seeded into every clone, and codegen runs exactly once per
fresh point (one machine program feeds both feature extraction and
simulation).  Pinned by call counts, not wall clock, plus a
field-by-field payload check against the straightforward reference:
parse, optimize, extract features from one compiled program, profile
with a second compile.
"""

import importlib
import sys

import numpy as np
import pytest

from repro.baselines import STANDARD_LEVELS
from repro.engine import EvaluationEngine
from repro.engine.evaluator import evaluate_point, point_measurement_seed
from repro.engine.store import ShardedStore
from repro.features import extract_features
from repro.ir.printer import module_fingerprint
from repro.lang import compile_source
from repro.passes import AnalysisManager, PassManager
from repro.sim import Platform
from repro.workloads import load_workload, registry

O2 = tuple(STANDARD_LEVELS["-O2"])
SEQUENCE = ("mem2reg", "instcombine", "dce")


def count_calls(monkeypatch, module_name, attr):
    """Route every ``repro`` binding of ``module_name.attr`` through a
    counting wrapper; returns the list of recorded calls."""
    original = getattr(importlib.import_module(module_name), attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_fresh_point_compiles_once_and_never_parses(monkeypatch):
    workload = load_workload("beebs", "fibcall")
    workload.compile()
    engine = EvaluationEngine(Platform("riscv"), cache=False)
    engine.workload_fingerprint(workload)
    codegen = count_calls(monkeypatch, "repro.backend.codegen",
                          "compile_module")
    frontend = count_calls(monkeypatch, "repro.lang", "compile_source")
    result = engine.evaluate(workload, O2)
    assert not result.cached
    assert len(codegen) == 1
    assert frontend == []


def test_workload_key_fingerprints_the_template_without_a_clone(
        monkeypatch):
    workload = load_workload("beebs", "crc32")
    clones = count_calls(monkeypatch, "repro.passes.cloning",
                         "clone_module")
    engine = EvaluationEngine(Platform("riscv"), cache=False)
    engine.key_for(workload, O2)
    assert clones == []
    assert engine.workload_fingerprint(workload) == \
        module_fingerprint(workload.compile())


def test_compose_hit_runs_no_codegen(monkeypatch):
    workload = load_workload("beebs", "fibcall")
    engine = EvaluationEngine(Platform("riscv"))
    first = engine.evaluate(workload, SEQUENCE)
    codegen = count_calls(monkeypatch, "repro.backend.codegen",
                          "compile_module")
    second = engine.evaluate(workload, SEQUENCE + ("dce",))
    assert codegen == []
    assert engine.compose_stats == {"hits": 1, "misses": 1}
    assert not second.cached
    assert second.result_fingerprint == first.result_fingerprint
    assert second.metrics() == first.metrics()


def test_payloads_hold_no_wall_clock_timing():
    workload = load_workload("beebs", "fibcall")
    engine = EvaluationEngine(Platform("riscv"))
    first = engine.evaluate(workload, SEQUENCE)
    second = engine.evaluate(workload, SEQUENCE + ("dce",))
    for result in (first, second):
        assert "profile_seconds" not in engine.cache.get(result.key)
        assert not hasattr(result, "profile_seconds")


def test_stored_rows_with_legacy_timing_still_load(tmp_path):
    workload = load_workload("beebs", "fibcall")
    fresh = EvaluationEngine(Platform("riscv"))
    result = fresh.evaluate(workload, SEQUENCE)
    legacy = dict(fresh.cache.get(result.key), profile_seconds=0.02906)
    farm = str(tmp_path / "farm")
    ShardedStore(farm).put(result.key, legacy)
    loaded = EvaluationEngine(Platform("riscv"), farm_dir=farm).evaluate(
        workload, SEQUENCE)
    assert loaded.cached
    assert loaded.metrics() == result.metrics()
    assert np.array_equal(loaded.features, result.features)


def _reference_payload(workload, sequence, target):
    """A point evaluated stage by stage: a fresh parse, the pass
    pipeline, features from one compiled program, a profile that
    compiles again."""
    module = compile_source(workload.source, module_name=workload.name)
    am = AnalysisManager()
    fingerprint = module_fingerprint(module, am)
    PassManager().run(module, list(sequence), am=am)
    result_fingerprint = module_fingerprint(module, am)
    platform = Platform(target, measurement_seed=point_measurement_seed(
        0, result_fingerprint))
    features = extract_features(module, platform.compile(module))
    measurement = platform.profile(module)
    return {
        "fingerprint": fingerprint,
        "result_fingerprint": result_fingerprint,
        "function_fingerprints": {
            function.name: am.fingerprint(function)
            for function in module.defined_functions()},
        "sequence": list(sequence),
        "target": target,
        "measurement_seed": 0,
        "features": [float(v) for v in features],
        "metrics": {k: float(v)
                    for k, v in measurement.metrics().items()},
        "cycles": float(measurement.cycles),
        "code_size": int(measurement.code_size),
        "output": [[kind, value] for kind, value in measurement.output],
        "return_value": measurement.return_value,
    }


@pytest.mark.parametrize("target", ["x86", "riscv"])
@pytest.mark.parametrize("suite,name", [
    ("beebs", "fibcall"), ("beebs", "crc32"), ("beebs", "matmult_int"),
    ("parsec", "blackscholes"), ("multi", "modmath"),
    ("earlyexit", "nested_break"),
])
def test_payload_matches_stage_by_stage_reference(suite, name, target):
    workload = load_workload(suite, name)
    payload = evaluate_point({
        "source": workload.source, "name": workload.name,
        "sequence": list(O2), "target": target,
        "measurement_seed": 0})
    reference = _reference_payload(workload, O2, target)
    assert sorted(payload) == sorted(reference)
    for field, expected in reference.items():
        assert payload[field] == expected, field


def _spec(workload, sequence):
    return {"source": workload.source, "name": workload.name,
            "sequence": list(sequence), "target": "riscv",
            "measurement_seed": 0}


@pytest.mark.parametrize("sequence", [(), O2], ids=["O0", "O2"])
def test_fresh_point_clones_its_template_once(monkeypatch, sequence):
    workload = load_workload("beebs", "crc32")
    workload.compile()
    clones = count_calls(monkeypatch, "repro.passes.cloning",
                         "clone_module")
    evaluate_point(_spec(workload, sequence))
    assert len(clones) == 1
    # The composed in-process path clones once too.
    engine = EvaluationEngine(Platform("riscv"))
    engine.evaluate(workload, sequence)
    assert len(clones) == 2


def test_template_functions_are_analyzed_once_per_process(monkeypatch):
    # A process that has seen no point of this program yet.
    monkeypatch.setattr(registry, "_TEMPLATES", {})
    workload = load_workload("multi", "modmath")
    fingerprints = count_calls(monkeypatch, "repro.ir.printer",
                               "function_fingerprint")
    partials = count_calls(monkeypatch,
                           "repro.features.static_features",
                           "_function_partial")
    engine = EvaluationEngine(Platform("riscv"))
    sequences = [(), O2, SEQUENCE, ("simplifycfg",), ("mem2reg", "dce")]
    for sequence in sequences:
        evaluate_point(_spec(workload, sequence))
        engine.evaluate(workload, sequence)
    template = workload.template()
    assert len(template.defined_functions()) > 1
    for function in template.functions.values():
        assert sum(call[0] is function for call in fingerprints) == 1, \
            function.name
    for function in template.defined_functions():
        assert sum(call[0] is function for call in partials) == 1, \
            function.name
    # Neither call on an -O0 point after the first: the clone's input
    # fingerprint, result fingerprint and static features are seeded.
    fingerprints.clear()
    partials.clear()
    evaluate_point(_spec(workload, ()))
    assert fingerprints == []
    assert partials == []
