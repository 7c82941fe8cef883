"""Differential tests: worklist engines vs the seed's rescan fixpoints
(ISSUE 3).

Every pass converted off a ``while progress: rescan everything`` loop —
instcombine's family, simplifycfg, dce/bdce, the sccp/ipsccp cleanup,
and the scalar/cse passes whose trailing dead-code collection went
worklist-driven — must be *bit-identical* to the seed engine: same
activity bits, same canonical fingerprints, same observable behaviour.
``PassManager(analysis_cache=False)`` runs the preserved rescan bodies;
the default manager runs the worklist engines.

Covers the expression-fuzz corpus, the structured fixtures, and every
workload suite under mid-pipeline states.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import run_module
from repro.ir.printer import module_fingerprint
from repro.lang import compile_source
from repro.passes import PassManager
from repro.workloads import load_suite
from tests.conftest import LOOP_SOURCE, SMOKE_SOURCE
from tests.mlcomp.test_expression_fuzz import expressions

#: Every pass whose execution engine changed in the worklist rebuild.
CONVERTED = (
    "instsimplify", "instcombine", "aggressive-instcombine",
    "simplifycfg", "dce", "bdce", "sccp", "ipsccp",
    "reassociate", "float2int", "early-cse", "early-cse-memssa", "gvn",
)

#: Mid-pipeline warm-up states the converted passes typically see.
PIPELINE_STATES = (
    (),
    ("mem2reg",),
    ("mem2reg", "instcombine", "sccp"),
    ("inline", "mem2reg", "ipsccp", "gvn"),
    ("mem2reg", "licm", "indvars", "loop-unroll"),
)


def _expression_source(expr):
    return f"""
    int main() {{
      int result = {expr.text};
      print_int(result);
      return result % 251;
    }}
    """


def assert_engines_identical(source, pipeline):
    """Worklist (default) and rescan (analysis_cache=False) engines
    agree on activity, canonical content, and behaviour."""
    worklist = compile_source(source)
    rescan = compile_source(source)
    worklist_activity = PassManager(verify=True).run(
        worklist, list(pipeline))
    rescan_activity = PassManager(
        verify=True, analysis_cache=False).run(rescan, list(pipeline))
    assert worklist_activity == rescan_activity, pipeline
    assert module_fingerprint(worklist) == module_fingerprint(rescan), \
        pipeline
    assert run_module(worklist).observable() == \
        run_module(rescan).observable()


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expr=expressions(),
       phase_index=st.integers(0, len(CONVERTED) - 1))
def test_worklist_vs_rescan_on_expression_corpus(expr, phase_index):
    if not expr.valid:
        return
    phase = CONVERTED[phase_index]
    assert_engines_identical(_expression_source(expr),
                             ["mem2reg", phase, phase])


@pytest.mark.parametrize("phase", CONVERTED)
def test_worklist_vs_rescan_every_converted_pass(phase):
    for source in (SMOKE_SOURCE, LOOP_SOURCE):
        for state in PIPELINE_STATES:
            assert_engines_identical(source, [*state, phase, phase])


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=st.lists(st.sampled_from(CONVERTED), min_size=1,
                         max_size=6))
def test_worklist_vs_rescan_random_converted_sequences(sequence):
    assert_engines_identical(SMOKE_SOURCE, ["mem2reg", *sequence])


@pytest.mark.parametrize("suite", ("beebs", "parsec", "multi"))
def test_worklist_vs_rescan_across_workloads(suite):
    """One representative mixed pipeline over every workload of every
    suite — the heaviest CFGs the frontend produces."""
    pipeline = ["inline", "mem2reg", "ipsccp", "instcombine",
                "jump-threading", "simplifycfg", "gvn", "sccp", "dce",
                "simplifycfg"]
    for workload in load_suite(suite):
        worklist = workload.compile()
        rescan = workload.compile()
        worklist_activity = PassManager(verify=True).run(
            worklist, pipeline)
        rescan_activity = PassManager(
            verify=True, analysis_cache=False).run(rescan, pipeline)
        assert worklist_activity == rescan_activity, workload.name
        assert module_fingerprint(worklist) == \
            module_fingerprint(rescan), workload.name
        assert run_module(worklist).observable() == \
            run_module(rescan).observable()
