"""Benchmark guard for multi-exit loop optimization (ISSUE 4).

The early-exit corpus (``workloads/earlyexit.py``) is optimized twice
under the same representative loop-heavy sequence:

- **bail-out baseline**: the multi-exit entry points of the loop-pass
  family are stubbed back to the pre-canonicalization behaviour (bail
  with no change on any loop with more than one exit) — exactly the
  PR-2 state this ISSUE recovers from;
- **canonicalized**: the shipped passes (LoopSimplify + LCSSA +
  per-exit fixups).

The guard requires the loop passes to *fire* on the corpus (activity
reported) and the simulated RISC-V cost to improve measurably — in
aggregate and strongly on the shapes where rotation/unroll/idiom now
land (partial fills memset, IV breaks unroll).  Running with
``REPRO_BENCH_RECORD=1`` appends the numbers to
``BENCH_passmanager.json`` (uploaded by the CI perf-smoke job).

Marked ``fast``: cheap guard tier, part of the default selection.
"""

import os

import pytest

from repro.ir import run_module
from repro.passes import PassManager
from repro.sim import Platform
from repro.workloads import load_suite

from bench_record import record

pytestmark = pytest.mark.fast

BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_passmanager.json")

SEQUENCE = ("mem2reg", "instcombine", "loop-rotate", "licm", "indvars",
            "loop-unroll", "loop-idiom", "simplifycfg", "sccp",
            "instcombine", "adce", "dce", "simplifycfg")

LOOP_PHASES = ("loop-rotate", "licm", "loop-unroll", "loop-idiom")


def _stub_multi_exit_bails(monkeypatch):
    """Restore the pre-ISSUE-4 single-exit bails (no change, no
    transform) on every multi-exit entry point."""
    from repro.passes.licm import LICM
    from repro.passes.loop_misc import LoopDeletion, LoopIdiom, LoopSink
    from repro.passes.loop_rotate import LoopRotate
    from repro.passes.loop_unroll import LoopUnroll

    monkeypatch.setattr(LoopRotate, "_rotate_multi_exit",
                        lambda self, function, loop, am: False)
    monkeypatch.setattr(LoopUnroll, "_unroll_multi_exit",
                        lambda self, function, loop, am, created:
                        (False, created))
    monkeypatch.setattr(LoopDeletion, "_delete_multi_exit",
                        lambda self, function, loop, am, created:
                        (False, created))
    monkeypatch.setattr(LoopIdiom, "_match_memset_multi_exit",
                        lambda self, function, loop, am: (False, False))
    monkeypatch.setattr(LoopSink, "_sink_multi_exit",
                        lambda self, function, loop, am: False)
    # The seed's licm already hoisted from multi-exit loops, so it
    # stays untouched.
    assert LICM is not None


def _optimized_cycles(platform):
    cycles = {}
    activity = {}
    for workload in load_suite("earlyexit"):
        module = workload.compile()
        reference = run_module(workload.compile()).observable()
        phase_activity = PassManager(verify=True).run(module,
                                                      list(SEQUENCE))
        assert run_module(module).observable() == reference, \
            workload.name
        cycles[workload.name] = platform.profile(module).cycles
        activity[workload.name] = {
            phase: active
            for phase, active in zip(SEQUENCE, phase_activity)}
    return cycles, activity


def test_multi_exit_recovery_improves_simulated_cost(monkeypatch):
    platform = Platform("riscv")

    with monkeypatch.context() as patch:
        _stub_multi_exit_bails(patch)
        bail_cycles, _bail_activity = _optimized_cycles(platform)

    full_cycles, full_activity = _optimized_cycles(platform)

    # The loop-pass family must report activity on the corpus (the
    # bails reported none for these loops).
    for phase in LOOP_PHASES:
        fired = sum(1 for per_workload in full_activity.values()
                    if per_workload.get(phase))
        assert fired > 0, f"{phase} never fired on the corpus"

    total_bail = sum(bail_cycles.values())
    total_full = sum(full_cycles.values())
    per_shape = {name: bail_cycles[name] / max(full_cycles[name], 1e-9)
                 for name in full_cycles}
    improvement = total_bail / max(total_full, 1e-9)
    best = max(per_shape.values())
    print(f"\n[loop-canon-bench] bail-out {total_bail:.0f} cycles, "
          f"canonicalized {total_full:.0f} cycles -> "
          f"x{improvement:.3f} (best shape x{best:.2f})")
    for name in sorted(per_shape):
        print(f"  {name:18s} x{per_shape[name]:.3f}")
    record(BENCH_PATH, {
        "benchmark": "multi_exit_loop_recovery",
        "workloads": len(full_cycles),
        "bailout_cycles": round(total_bail, 1),
        "canonicalized_cycles": round(total_full, 1),
        "improvement": round(improvement, 4),
        "per_shape": {k: round(v, 3) for k, v in per_shape.items()},
    })
    # Aggregate must improve; no shape may regress materially; the
    # shapes where unroll/idiom now land must improve clearly.
    assert improvement >= 1.005, (total_bail, total_full)
    assert best >= 1.05, per_shape
    assert all(ratio >= 0.999 for ratio in per_shape.values()), per_shape
