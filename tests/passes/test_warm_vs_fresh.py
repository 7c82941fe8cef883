"""Differential property test for analysis invalidation (ISSUE 2).

Every registered pass must behave bit-identically when run against a
*warm* AnalysisManager (analyses cached by a preceding pipeline, then
force-filled) and against fresh analyses.  Any stale-analysis bug —
a pass mutating without invalidating, an over-broad preservation set —
shows up as a fingerprint or activity divergence here.  The static
feature vector read from the warm manager (cached per-function partials
and the analyses behind them) must equal one extracted against fresh
analyses after every phase, too.

Covers the expression-fuzz corpus (random straight-line integer
programs) plus loop/call-heavy fixed sources so the loop and
interprocedural passes are exercised too.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features import extract_static_features
from repro.ir import run_module
from repro.ir.printer import module_fingerprint
from repro.lang import compile_source
from repro.passes import AnalysisManager, PassManager, available_phases
from tests.conftest import LOOP_SOURCE, SMOKE_SOURCE
from tests.mlcomp.test_expression_fuzz import expressions

PHASES = available_phases()

#: Pipeline applied before the pass under test, to put the module in a
#: realistic mid-pipeline state and to warm the manager's caches.
WARMUP = ["mem2reg", "instcombine", "licm"]


class FreshAnalyses(AnalysisManager):
    """A manager that caches nothing: every query recomputes from the
    IR as it is now, so a run against it is the fresh-analyses oracle
    for a run against a shared, invalidation-driven manager."""

    def get(self, name, function):
        return self._compute(name, function)

    def put(self, name, function, value):
        pass

    def store_module_fingerprint(self, module, digest):
        pass


def _expression_source(expr):
    return f"""
    int main() {{
      int result = {expr.text};
      print_int(result);
      return result % 251;
    }}
    """


def _prepare(source, warm):
    """Compile + warm-up pipeline; returns (module, am)."""
    module = compile_source(source)
    am = AnalysisManager()
    PassManager().run(module, WARMUP, am=am)
    if warm:
        # Force-fill every analysis so any stale-cache bug is exposed.
        for function in module.defined_functions():
            am.fingerprint(function)
            am.get("static_partial", function)
            am.domtree(function)
            loops = am.loops(function)
            ivs = am.loopivs(function)
            for loop in loops.loops:
                preheader = loop.preheader()
                if preheader is not None:
                    ivs.induction_variable(loop, preheader)
                    ivs.trip_count(loop, preheader)
        return module, am
    # Fresh: drop everything the warm-up cached.
    return module, AnalysisManager()


def _run_one(source, phase, warm):
    module, am = _prepare(source, warm)
    activity = PassManager(verify=True).run(module, [phase, phase],
                                            am=am)
    return activity, module_fingerprint(module), module, am


def assert_features_match_fresh(module, am):
    """Static features through ``am`` equal a fresh-analyses extraction."""
    assert list(extract_static_features(module, am)) == \
        list(extract_static_features(module, FreshAnalyses()))


def assert_warm_equals_fresh(source, phase):
    warm_activity, warm_fp, warm_module, warm_am = _run_one(source, phase,
                                                            True)
    fresh_activity, fresh_fp, fresh_module, fresh_am = _run_one(
        source, phase, False)
    assert warm_activity == fresh_activity, phase
    assert warm_fp == fresh_fp, phase
    assert_features_match_fresh(warm_module, warm_am)
    assert_features_match_fresh(fresh_module, fresh_am)
    assert run_module(warm_module).observable() == \
        run_module(fresh_module).observable()


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expr=expressions(),
       phase_index=st.integers(0, len(PHASES) - 1))
def test_warm_vs_fresh_on_expression_corpus(expr, phase_index):
    if not expr.valid:
        return
    assert_warm_equals_fresh(_expression_source(expr),
                             PHASES[phase_index])


@pytest.mark.parametrize("phase", PHASES)
def test_warm_vs_fresh_every_pass_on_structured_sources(phase):
    for source in (SMOKE_SOURCE, LOOP_SOURCE):
        assert_warm_equals_fresh(source, phase)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=st.lists(st.sampled_from(PHASES), min_size=1,
                         max_size=8))
def test_warm_vs_fresh_random_sequences(sequence):
    """Whole random pipelines under one shared manager agree with the
    fresh-analyses run, and stay behaviour-preserving."""
    shared = compile_source(SMOKE_SOURCE)
    am = AnalysisManager()
    shared_activity = PassManager(verify=True).run_with_fingerprints(
        shared, sequence, am=am)

    fresh = compile_source(SMOKE_SOURCE)
    fresh_activity = PassManager(verify=True).run_with_fingerprints(
        fresh, sequence, am=FreshAnalyses())

    assert shared_activity == fresh_activity
    assert module_fingerprint(shared) == module_fingerprint(fresh)
    assert_features_match_fresh(shared, am)
    assert run_module(shared).observable() == \
        run_module(fresh).observable()
