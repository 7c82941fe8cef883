"""Dynamic analysis-preservation auditing (ISSUE 9).

``PassManager(audit_analyses=True)`` recomputes every still-cached
analysis from scratch after each phase and hard-errors on any divergence
from the cache — the runtime check that the ``preserved_analyses``
declarations replint rule R004 statically mandates are actually *true*.  These tests pin:

- every registered phase audits clean on the structured sources with
  every analysis force-warmed beforehand;
- the full registry run back-to-back under one shared manager audits
  clean, and auditing never changes results;
- the expression-fuzz corpus x random phase sequences audit clean;
- a deliberately corrupted declaration (simplifycfg claiming
  PRESERVE_CFG) is detected at the offending phase;
- an unreported mutation (code changed, "nothing changed" reported) is
  detected through the stale fingerprint, and a stale static-feature
  partial on its own is detected too;
- the warm-up fills exactly ``ALL_ANALYSES``, and the manager computes
  no analysis outside it, so no analysis can escape the audit.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import run_module
from repro.ir.printer import module_fingerprint
from repro.lang import compile_source
from repro.passes import (
    AnalysisManager,
    AnalysisPreservationError,
    PassManager,
    PRESERVE_CFG,
    available_phases,
)
from repro.passes.analysis import ALL_ANALYSES
from repro.passes.audit import audit_preservation
from repro.passes.simplifycfg import SimplifyCFG
from tests.conftest import LOOP_SOURCE, SMOKE_SOURCE
from tests.mlcomp.test_expression_fuzz import expressions

PHASES = available_phases()

#: Mid-pipeline warm-up (mirrors tests/passes/test_warm_vs_fresh.py).
WARMUP = ["mem2reg", "instcombine", "licm"]


def _force_warm(module, am):
    """Fill every analysis the manager knows, so any wrong preservation
    claim has a cached value to leave stale."""
    for function in module.defined_functions():
        am.fingerprint(function)
        am.get("static_partial", function)
        dom = am.domtree(function)
        loops = am.loops(function)
        ivs = am.loopivs(function)
        canon = am.loopcanon(function)
        for loop in loops.loops:
            canon.is_simplified(loop)
            canon.is_lcssa(loop)
            preheader = loop.preheader()
            if preheader is not None:
                ivs.induction_variable(loop, preheader)
                ivs.trip_count(loop, preheader)
                ivs.exit_plan(loop, preheader, dom)
                ivs.counted_bound(loop, preheader, dom)


def _prepare(source):
    module = compile_source(source)
    am = AnalysisManager()
    PassManager().run(module, WARMUP, am=am)
    _force_warm(module, am)
    for function, cache in am.entries():
        if not function.is_declaration():
            assert set(cache) == ALL_ANALYSES, function.name
    return module, am


class _RecordingName(str):
    """An analysis name equal to no other string; it records every name
    it is compared against."""

    def __new__(cls):
        name = super().__new__(cls, "<no such analysis>")
        name.compared = set()
        return name

    def __eq__(self, other):
        self.compared.add(other)
        return False

    __hash__ = str.__hash__


def test_manager_computes_exactly_all_analyses():
    """``_compute`` knows exactly ``ALL_ANALYSES`` and raises KeyError
    for any other name, so no analysis escapes the warm-up above."""
    function = compile_source(SMOKE_SOURCE).defined_functions()[0]
    name = _RecordingName()
    with pytest.raises(KeyError, match="unknown analysis"):
        AnalysisManager()._compute(name, function)
    assert name.compared == ALL_ANALYSES


@pytest.mark.parametrize("phase", PHASES)
def test_every_phase_audits_clean_when_fully_warm(phase):
    for source in (SMOKE_SOURCE, LOOP_SOURCE):
        module, am = _prepare(source)
        PassManager(verify=True, audit_analyses=True).run(
            module, [phase, phase], am=am)


def test_full_registry_audits_clean_under_one_manager():
    module, am = _prepare(SMOKE_SOURCE)
    PassManager(verify=True, audit_analyses=True).run(
        module, list(PHASES), am=am)


def test_auditing_never_changes_results():
    audited = compile_source(SMOKE_SOURCE)
    plain = compile_source(SMOKE_SOURCE)
    sequence = ["mem2reg", "simplifycfg", "loop-rotate", "licm",
                "loop-unroll", "gvn", "sccp", "dce", "simplifycfg"]
    audited_activity = PassManager(
        verify=True, audit_analyses=True).run(audited, sequence)
    plain_activity = PassManager(verify=True).run(plain, sequence)
    assert audited_activity == plain_activity
    assert module_fingerprint(audited) == module_fingerprint(plain)
    assert run_module(audited).observable() == \
        run_module(plain).observable()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expr=expressions(),
       sequence=st.lists(st.sampled_from(PHASES), min_size=1,
                         max_size=6))
def test_fuzz_corpus_audits_clean(expr, sequence):
    if not expr.valid:
        return
    source = f"""
    int main() {{
      int result = {expr.text};
      print_int(result);
      return result % 251;
    }}
    """
    module, am = _prepare(source)
    PassManager(verify=True, audit_analyses=True).run(
        module, sequence, am=am)


def test_corrupted_declaration_is_detected(monkeypatch):
    """simplifycfg restructures the CFG; claiming PRESERVE_CFG must trip
    the auditor at that exact phase."""
    def corruptible_run():
        module = compile_source(LOOP_SOURCE)
        am = AnalysisManager()
        PassManager().run(module, ["mem2reg"], am=am)
        for function in module.defined_functions():
            am.domtree(function)
            am.loops(function)
        return PassManager(verify=True, audit_analyses=True).run(
            module, ["simplifycfg"], am=am)

    # Sanity: the honest declaration audits clean on this exact setup.
    assert corruptible_run() == [True]
    monkeypatch.setattr(SimplifyCFG, "preserved_analyses", PRESERVE_CFG)
    with pytest.raises(AnalysisPreservationError, match="simplifycfg"):
        corruptible_run()


def test_unreported_mutation_is_detected():
    """A phase that edits code while reporting "no change" leaves the
    cached fingerprint stale — the auditor convicts it."""
    from repro.ir import BinaryInst, ConstantInt
    from repro.ir.types import I64

    module, am = _prepare(LOOP_SOURCE)
    function = module.get_function("main")
    am.fingerprint(function)
    extra = BinaryInst("add", ConstantInt(I64, 1), ConstantInt(I64, 2),
                       function.next_name("sneak"))
    function.entry.insert(0, extra)
    with pytest.raises(AnalysisPreservationError, match="fingerprint"):
        audit_preservation(module, am, "sneaky-phase")


def test_stale_static_partial_is_detected():
    """A static-feature partial cached before an edit is convicted on
    its own, even with the fingerprint brought up to date."""
    from repro.ir import BinaryInst, ConstantInt
    from repro.ir.printer import function_fingerprint
    from repro.ir.types import I64

    module, am = _prepare(LOOP_SOURCE)
    function = module.get_function("main")
    extra = BinaryInst("mul", ConstantInt(I64, 3), ConstantInt(I64, 5),
                       function.next_name("sneak"))
    function.entry.insert(0, extra)
    am.put("fingerprint", function, function_fingerprint(function))
    with pytest.raises(AnalysisPreservationError, match="static_partial"):
        audit_preservation(module, am, "sneaky-phase")
