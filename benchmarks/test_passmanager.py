"""Work-budget guards for the pass-execution layer.

Measures the deployment-loop evaluation shape — per phase: static
feature extraction, pass application, verification of changed
functions, fingerprint-based activity detection — over the tier-1
workload suites (BEEBS + PARSEC kernels plus the call-graph-rich
``multi`` suite) under representative 10-phase sequences.

Each guard counts the work one regime does and asserts it stays within
a budget pinned on this fixed config.  The counts are deterministic
(identical across processes and hosts), so the guards cannot flake on
a loaded machine, and each names the layer that regressed:

- ``analysis_misses``: analyses computed from scratch, each function's
  static-feature partial among them.  Rises when the AnalysisManager
  stops caching or a pass over-invalidates.
- ``analysis_lookups``: analysis requests, cached or computed (hits
  plus misses); every reuse of a static-feature partial is a hit.
  Rises when the composed module-fingerprint memo stops answering, so
  the caller falls back to per-function lookups.
- ``changed_functions``: functions a phase reported changed.  Rises
  when a pass reports (and so invalidates and re-verifies) spurious
  changes.

Verification must run exactly once per changed function
(``verified_functions == changed_functions``): never on a function a
phase left alone.  Both counts come from test-side wrappers around the
pass manager's ``create_pass`` and ``verify_function``.

Two regimes are guarded, each with one analysis manager per module
(the only per-function cache: there is no cross-module feature memo):

- **fresh (cold start)**: first-time evaluation of freshly compiled
  modules under empty analysis managers — the regime every new
  phase-sequence candidate pays during search and RL training.
- **converged**: re-evaluating sequences against already-optimized
  modules whose analysis managers are warm — the inactive-trial regime
  the PSS deployment loop spends its phase budget on (Table V allows 8
  inactive trials per step).

A change that does less work should lower the budget it beat; one
that does more must say why before it raises one.  Wall-clock seconds
are printed and, with ``REPRO_BENCH_RECORD=1``, appended to
``BENCH_passmanager.json`` next to the counts, but never asserted.

Marked ``fast``: this is the cheap guard tier, run in the default
(tier-1) selection even though it lives in ``benchmarks/``.
"""

import os
import time

import pytest

import repro.passes.base
from repro.features import extract_static_features
from repro.ir.printer import module_fingerprint
from repro.passes import AnalysisManager, PassManager
from repro.workloads import load_suite

from bench_record import record

pytestmark = pytest.mark.fast

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_passmanager.json")

#: Representative 10-phase sequences: -O2-flavoured scalar+loop recipe,
#: a loop-canonicalization recipe, and an interprocedural-first recipe.
SEQUENCES = (
    ("mem2reg", "instcombine", "simplifycfg", "gvn", "licm",
     "indvars", "loop-unroll", "sccp", "dce", "simplifycfg"),
    ("mem2reg", "sroa", "early-cse", "reassociate", "licm",
     "loop-rotate", "loop-idiom", "instcombine", "adce", "dse"),
    ("inline", "mem2reg", "ipsccp", "instcombine", "jump-threading",
     "simplifycfg", "gvn", "licm", "loop-unroll", "dce"),
)

#: Work budgets per regime, pinned on the config above.
FRESH_COLD_BUDGET = {
    "analysis_misses": 4511,
    "analysis_lookups": 9330,
    "changed_functions": 979,
}
CONVERGED_BUDGET = {
    "analysis_misses": 851,
    "analysis_lookups": 4561,
    "changed_functions": 174,
}


def _workloads():
    return load_suite("beebs") + load_suite("parsec") + \
        load_suite("multi")


@pytest.fixture
def pass_work(monkeypatch):
    """Running counts of the functions phases report changed and of the
    verifier runs, taken by wrapping the pass manager's ``create_pass``
    and ``verify_function``."""
    counts = {"changed_functions": 0, "verified_functions": 0}
    create_pass = repro.passes.base.create_pass
    verify_function = repro.passes.base.verify_function

    def counting_create_pass(name):
        phase = create_pass(name)
        run_with_changes = phase.run_with_changes

        def counted_run_with_changes(module, am):
            changed = run_with_changes(module, am)
            counts["changed_functions"] += len(changed)
            return changed

        phase.run_with_changes = counted_run_with_changes
        return phase

    def counting_verify_function(function, am=None, lcssa=False):
        counts["verified_functions"] += 1
        verify_function(function, am, lcssa=lcssa)

    monkeypatch.setattr(repro.passes.base, "create_pass",
                        counting_create_pass)
    monkeypatch.setattr(repro.passes.base, "verify_function",
                        counting_verify_function)
    return counts


def _new_work():
    return {"analysis_misses": 0, "analysis_hits": 0,
            "analysis_lookups": 0, "verified_functions": 0,
            "changed_functions": 0}


def _evaluate_incremental(module, sequence, am, work=None,
                          pass_work=None):
    """One deployment-loop evaluation; adds its work counts to ``work``
    when given (``pass_work`` is the fixture's running counts)."""
    pm = PassManager(verify=True)
    hits, misses = am.stats.hits, am.stats.misses
    passes_before = dict(pass_work or {})
    fingerprint = module_fingerprint(module, am)
    activity = []
    for phase in sequence:
        extract_static_features(module, am=am)
        pm.run(module, [phase], am=am)
        new_fingerprint = module_fingerprint(module, am)
        activity.append(new_fingerprint != fingerprint)
        fingerprint = new_fingerprint
    if work is not None:
        work["analysis_hits"] += am.stats.hits - hits
        work["analysis_misses"] += am.stats.misses - misses
        work["analysis_lookups"] += (am.stats.hits - hits) + \
            (am.stats.misses - misses)
        for name, count in pass_work.items():
            work[name] += count - passes_before[name]
    return activity


def _evaluate_fresh(workloads, sequences, pass_work):
    """Evaluate every workload under every sequence on freshly compiled
    modules; returns ``(activities, work, seconds)``."""
    work = _new_work()
    activities = {}
    started = time.perf_counter()
    for workload in workloads:
        for sequence in sequences:
            activities[(workload.name, sequence)] = _evaluate_incremental(
                workload.compile(), sequence, AnalysisManager(), work,
                pass_work)
    return activities, work, time.perf_counter() - started


def _plain_activity(workload, sequence):
    """The activity oracle: one fingerprinting run with no analysis
    warm and no feature extraction in between."""
    return PassManager(verify=True).run_with_fingerprints(
        workload.compile(), list(sequence))


def _check_budget(label, work, budget, seconds, points):
    print(f"\n[passmanager-bench] {label}: {seconds:.2f}s, {work}")
    record(BENCH_PATH, {"benchmark": label, "points": points,
             "incremental_seconds": round(seconds, 4), **work})
    over = {name: (work[name], budget[name]) for name in budget
            if work[name] > budget[name]}
    assert not over, f"{label} over its work budget: {over}"
    assert work["verified_functions"] == work["changed_functions"], \
        f"{label}: verification ran on unchanged functions: {work}"


def test_fresh_cold_evaluation_within_work_budget(pass_work):
    """Cold start: every analysis manager empty.  Activity matches a
    plain fingerprinting run and the work stays within budget."""
    workloads = _workloads()
    activities, work, seconds = _evaluate_fresh(workloads, SEQUENCES,
                                                pass_work)
    for workload in workloads:
        for sequence in SEQUENCES:
            assert activities[(workload.name, sequence)] == \
                _plain_activity(workload, sequence), \
                (workload.name, sequence)
    _check_budget("fresh_cold_evaluation", work, FRESH_COLD_BUDGET,
                  seconds, len(activities))


def test_converged_reevaluation_within_work_budget(pass_work):
    """Converged-module re-evaluation (the PSS inactive-trial regime)
    once each module's analysis manager is warm."""
    workloads = _workloads()

    points = []
    for workload in workloads:
        for sequence in SEQUENCES:
            module = workload.compile()
            am = AnalysisManager()
            PassManager().run(module, list(sequence), am=am)
            points.append((module, sequence, am))
    # Prime: the first re-evaluation warms each manager's static
    # partials for the converged states.
    for module, sequence, am in points:
        _evaluate_incremental(module, sequence, am)

    work = _new_work()
    started = time.perf_counter()
    for module, sequence, am in points:
        _evaluate_incremental(module, sequence, am, work, pass_work)
    seconds = time.perf_counter() - started
    _check_budget("converged_reevaluation", work, CONVERGED_BUDGET,
                  seconds, len(points))


def test_bench_converged_single_evaluation(benchmark):
    """Steady-state latency of one warm converged-module evaluation."""
    workload = _workloads()[0]
    sequence = SEQUENCES[0]
    module = workload.compile()
    am = AnalysisManager()
    PassManager().run(module, list(sequence), am=am)
    _evaluate_incremental(module, sequence, am)

    benchmark(_evaluate_incremental, module, sequence, am)
