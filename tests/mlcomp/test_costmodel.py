"""Tests for the static cost model and the module cloner behind it."""

import gc
import weakref

import numpy as np
import pytest

from repro.backend import compile_module
from repro.features import (
    COST_FEATURE_NAMES,
    extract_cost_features,
    extract_features,
)
from repro.features.costmodel import (
    block_frequencies,
    function_frequencies,
)
from repro.ir import cfg, module_fingerprint, run_module, verify_module
from repro.lang import compile_source
from repro.passes import AnalysisManager, PassManager, cloning
from repro.passes.cloning import clone_module
from repro.workloads import load_suite, suite_names

#: A sequence that leaves forward references (rotated, unrolled loop
#: bodies) for a cloner to rewrite.
LOOPY_SEQUENCE = ["mem2reg", "instcombine", "simplifycfg", "licm",
                  "loop-unroll"]


def test_clone_module_behaviour_identical(smoke_source):
    original = compile_source(smoke_source)
    clone = clone_module(original)
    verify_module(clone)
    assert run_module(clone).observable() == \
        run_module(original).observable()


def test_clone_module_is_independent(smoke_source):
    original = compile_source(smoke_source)
    clone = clone_module(original)
    before = module_fingerprint(original)
    PassManager().run(clone, ["mem2reg", "instcombine", "simplifycfg"])
    assert module_fingerprint(original) == before  # untouched


def test_clone_module_preserves_attributes(smoke_source):
    original = compile_source(smoke_source)
    original.get_function("main").attributes.add("slp-enabled")
    clone = clone_module(original)
    assert "slp-enabled" in clone.get_function("main").attributes


def test_clone_all_workloads():
    for suite in ("parsec", "beebs"):
        for workload in load_suite(suite)[:6]:
            module = workload.compile()
            clone = clone_module(module)
            verify_module(clone)
            assert run_module(clone).observable() == \
                run_module(workload.compile()).observable()


def test_block_frequencies_scale_with_trip_counts():
    src = """
    int main() {
      int t = 0;
      for (int i = 0; i < 50; i++) { t += i; }
      print_int(t);
      return 0;
    }
    """
    module = compile_source(src)
    PassManager().run(module, ["mem2reg", "instcombine"])
    main = module.get_function("main")
    freqs = block_frequencies(main, AnalysisManager())
    assert max(freqs.values()) == 50.0
    entry_freq = freqs[id(main.entry)]
    assert entry_freq == 1.0


def test_nested_loop_frequencies_multiply():
    src = """
    int main() {
      int t = 0;
      for (int i = 0; i < 10; i++) {
        for (int j = 0; j < 20; j++) { t += i * j; }
      }
      print_int(t);
      return 0;
    }
    """
    module = compile_source(src)
    PassManager().run(module, ["mem2reg", "instcombine"])
    freqs = block_frequencies(module.get_function("main"),
                              AnalysisManager())
    assert max(freqs.values()) == 200.0


def test_function_frequencies_follow_call_graph():
    src = """
    int leaf(int x) { return x * 2; }
    int mid(int x) {
      int t = 0;
      for (int i = 0; i < 5; i++) { t += leaf(x + i); }
      return t;
    }
    int main() { return mid(3) + mid(4); }
    """
    module = compile_source(src)
    PassManager().run(module, ["mem2reg", "instcombine"])
    am = AnalysisManager()
    invocations = function_frequencies(
        module, {f.name: block_frequencies(f, am)
                 for f in module.defined_functions()})
    assert invocations["main"] == 1.0
    assert invocations["mid"] == pytest.approx(2.0)
    assert invocations["leaf"] == pytest.approx(10.0)


def test_cost_features_track_workload_size():
    small = compile_source("""
    int main() {
      int t = 0;
      for (int i = 0; i < 4; i++) { t += i; }
      print_int(t);
      return 0;
    }
    """)
    big = compile_source("""
    int main() {
      int t = 0;
      for (int i = 0; i < 400; i++) { t += i; }
      print_int(t);
      return 0;
    }
    """)
    f_small = extract_cost_features(small)
    f_big = extract_cost_features(big)
    names = dict(zip(COST_FEATURE_NAMES, range(len(COST_FEATURE_NAMES))))
    assert f_big[names["est_total_work"]] > \
        f_small[names["est_total_work"]]


def test_cost_features_do_not_mutate_module(smoke_module):
    before = module_fingerprint(smoke_module)
    extract_cost_features(smoke_module)
    assert module_fingerprint(smoke_module) == before


def test_cost_features_finite_on_recursion():
    src = """
    int f(int n) { if (n < 2) return n; return f(n - 1) + f(n - 2); }
    int main() { return f(20) % 251; }
    """
    features = extract_cost_features(compile_source(src))
    assert np.all(np.isfinite(features))
    assert features.shape == (len(COST_FEATURE_NAMES),)


@pytest.fixture(scope="module")
def optimized_corpus():
    """[(name, module, riscv program)] for every corpus program after
    LOOPY_SEQUENCE."""
    corpus = []
    for suite in suite_names():
        for workload in load_suite(suite):
            module = workload.compile()
            PassManager().run(module, LOOPY_SEQUENCE)
            corpus.append((workload.name, module,
                           compile_module(module, "riscv")))
    return corpus


def _use_counts(module):
    """{id(value): (value, use-list length)} for every instruction,
    argument, operand (constants, globals, functions) and global."""
    values = {id(gv): gv for gv in module.globals.values()}
    for function in module.functions.values():
        values[id(function)] = function
        for arg in function.args:
            values[id(arg)] = arg
        for block in function.blocks:
            for inst in block.instructions:
                values[id(inst)] = inst
                for op in inst.operands:
                    values[id(op)] = op
    return {key: (value, len(value.uses))
            for key, value in values.items()}


@pytest.fixture
def recorded_clones(monkeypatch):
    """Weak references to every module ``clone_module`` returns."""
    clones = []

    def recording_clone(module):
        clone = clone_module(module)
        clones.append(weakref.ref(clone))
        return clone

    monkeypatch.setattr(cloning, "clone_module", recording_clone)
    return clones


def test_feature_extraction_leaves_use_lists_unchanged(
        optimized_corpus, recorded_clones):
    grown = []
    for name, module, program in optimized_corpus:
        before = _use_counts(module)
        extract_features(module, program)
        gc.collect()
        delta = sum(len(value.uses) - count
                    for value, count in before.values())
        if delta:
            grown.append((name, delta))
    assert not grown, grown
    assert len(recorded_clones) == len(optimized_corpus)
    assert all(ref() is None for ref in recorded_clones)


def test_cost_features_run_one_normalization_and_loop_analysis(
        optimized_corpus, monkeypatch):
    """Work budget (counts only, no timing): one cost-feature
    extraction runs one PassManager run, mem2reg,instcombine, and builds
    at most one LoopInfo per defined function of the clone."""
    runs = []
    loop_infos = []
    run = PassManager.run
    init = cfg.LoopInfo.__init__

    def counting_run(self, module, phase_names, am=None):
        runs.append(list(phase_names))
        return run(self, module, phase_names, am)

    def counting_init(self, function, domtree=None):
        loop_infos.append(function)
        init(self, function, domtree)

    monkeypatch.setattr(PassManager, "run", counting_run)
    monkeypatch.setattr(cfg.LoopInfo, "__init__", counting_init)
    for name, module, _ in optimized_corpus:
        runs.clear()
        loop_infos.clear()
        extract_cost_features(module)
        assert runs == [["mem2reg", "instcombine"]], name
        # The clone has the measured module's defined functions; every
        # LoopInfo is built for one of them, once.
        measured = {id(f) for f in module.functions.values()}
        built = {id(f): f.name for f in loop_infos}
        assert not set(built) & measured, name
        assert len(built) == len(loop_infos), (name, sorted(
            f.name for f in loop_infos))
        assert set(built.values()) <= {
            f.name for f in module.defined_functions()}, name
