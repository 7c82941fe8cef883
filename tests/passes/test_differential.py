"""Property-based differential testing of the pass corpus.

Any sequence of phases must preserve observable behaviour under the
reference interpreter.  This is the central safety property of the whole
compiler substrate (and of the PSS, which composes arbitrary sequences).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import STANDARD_LEVELS
from repro.ir import run_module, verify_module
from repro.lang import compile_source
from repro.passes import PassManager, available_phases
from repro.passes.cloning import clone_module
from repro.workloads import load_suite
from tests.conftest import SMOKE_SOURCE

PHASES = available_phases()

ARRAY_SRC = """
int scratch[16];
int main() {
  for (int i = 0; i < 16; i++) { scratch[i] = i * i % 11; }
  int best = -1;
  for (int i = 0; i < 16; i++) {
    if (scratch[i] > best) best = scratch[i];
  }
  int t = 0;
  for (int i = 0; i < 16; i += 2) { t += scratch[i] * best; }
  print_int(best);
  print_int(t);
  return t % 251;
}
"""

FLOAT_SRC = """
float horner(float x) {
  return ((2.0 * x + 3.0) * x + 5.0) * x + 7.0;
}
int main() {
  float acc = 0.0;
  for (int i = 0; i < 10; i++) {
    acc = acc + horner(0.1 * i) / (1.0 + i);
  }
  print_float(acc);
  return acc * 100.0;
}
"""

SOURCES = [SMOKE_SOURCE, ARRAY_SRC, FLOAT_SRC]
_REFERENCES = {}


def reference(source):
    if source not in _REFERENCES:
        _REFERENCES[source] = run_module(
            compile_source(source)).observable()
    return _REFERENCES[source]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    source_index=st.integers(0, len(SOURCES) - 1),
    sequence=st.lists(st.sampled_from(PHASES), min_size=1, max_size=10),
)
def test_random_pipelines_preserve_behaviour(source_index, sequence):
    source = SOURCES[source_index]
    module = compile_source(source)
    PassManager(verify=True).run(module, sequence)
    assert run_module(module).observable() == reference(source)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=st.lists(st.sampled_from(PHASES), min_size=1,
                         max_size=6))
def test_pipelines_never_grow_unverifiable(sequence):
    module = compile_source(ARRAY_SRC)
    PassManager().run(module, sequence)
    verify_module(module)


@pytest.mark.parametrize("phase", PHASES)
def test_each_phase_alone_is_sound(phase):
    for source in SOURCES:
        module = compile_source(source)
        PassManager(verify=True).run(module, [phase])
        assert run_module(module).observable() == reference(source)


@pytest.mark.parametrize("phase", PHASES)
def test_each_phase_after_mem2reg_is_sound(phase):
    for source in SOURCES:
        module = compile_source(source)
        PassManager(verify=True).run(
            module, ["mem2reg", "simplifycfg", phase, phase])
        assert run_module(module).observable() == reference(source)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    source_index=st.integers(0, len(SOURCES) - 1),
    sequence=st.lists(st.sampled_from(PHASES), min_size=1, max_size=8),
)
def test_engine_cached_vs_fresh_compiles_identical(source_index,
                                                   sequence):
    """Random pipelines through the evaluation engine: a cached compile
    must be indistinguishable from a fresh one (same final module
    fingerprint, metrics, and simulated output), and the interpreter
    must agree before/after regardless of which path served it."""
    from repro.engine import EvaluationEngine
    from repro.ir.printer import module_fingerprint
    from repro.sim import Platform
    from repro.workloads.registry import Workload

    source = SOURCES[source_index]
    workload = Workload(f"diff{source_index}", "adhoc", source)
    engine = EvaluationEngine(Platform("riscv"))
    fresh = engine.evaluate(workload, tuple(sequence))
    cached = engine.evaluate(workload, tuple(sequence))
    assert not fresh.cached and cached.cached
    assert cached.metrics() == fresh.metrics()
    assert cached.output == fresh.output
    assert cached.result_fingerprint == fresh.result_fingerprint
    # The engine's compile matches an independent fresh compile, and
    # the optimized program still behaves like the reference under the
    # interpreter.
    module = compile_source(source)
    PassManager().run(module, sequence)
    assert module_fingerprint(module) == fresh.result_fingerprint
    assert run_module(module).observable() == reference(source)


#: Mid-pipeline states the idempotence sweep starts from: straight out
#: of mem2reg, after unrolling, after inlining, and after -O2.
IDEMPOTENCE_PREFIXES = (
    ("mem2reg",),
    ("mem2reg", "simplifycfg", "licm", "loop-unroll"),
    ("inline", "mem2reg", "sccp", "gvn"),
    tuple(STANDARD_LEVELS["-O2"]),
)


def test_idempotence_of_cleanup_phases():
    """Running a cleanup or fixpoint phase twice: the second run reports
    no change.  For instcombine and its siblings this pins that the
    8-round cap never stops the rescan loop short of its fixpoint."""
    phases = ("dce", "simplifycfg", "adce", "dse", "globaldce",
              "instcombine", "instsimplify", "aggressive-instcombine",
              "licm")
    programs = [("smoke", SMOKE_SOURCE)] + [
        (workload.name, workload.source)
        for suite in ("beebs", "parsec", "multi")
        for workload in load_suite(suite)]
    for name, source in programs:
        for prefix in IDEMPOTENCE_PREFIXES:
            state = compile_source(source)
            PassManager().run(state, list(prefix))
            for phase in phases:
                module = clone_module(state)
                manager = PassManager()
                manager.run(module, [phase])
                activity = manager.run_with_fingerprints(module, [phase])
                assert activity == [False], (name, prefix, phase)
