"""Loop canonicalization (LoopSimplify + LCSSA) and the multi-exit
loop-pass family (ISSUE 4).

Covers:

- the canonical-form invariants (dedicated preheader/exits, single
  backedge) and LCSSA formation, including the verifier's LCSSA check
  mode;
- the exact multi-exit trip simulation (per-exit IV conditions);
- the acceptance criterion: rotate/unroll/licm/idiom *fire* on
  multi-exit loops instead of bailing, verifier-clean and
  interpreter-bit-identical, with the original qurt/isqrt
  invalid-IR shape as a pinned regression;
- warm-vs-fresh bit-identity across every registered pass on the
  early-exit corpus (the ``loopcanon`` analysis must invalidate
  correctly);
- differential fuzz of random early-exit loops through the loop-pass
  family.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.ir import (
    BinaryInst,
    ConstantInt,
    LoopInfo,
    check_lcssa,
    run_module,
    verify_function,
    verify_module,
)
from repro.ir.cfg import DominatorTree
from repro.ir.printer import module_fingerprint
from repro.lang import compile_source
from repro.passes import AnalysisManager, PassManager, available_phases
from repro.passes.loop_canon import (
    counted_exit_bound,
    form_lcssa,
    loop_is_lcssa,
    loop_is_simplified,
    simplify_loop,
    simulate_exits,
)
from repro.workloads import load_suite
from tests.mlcomp.test_expression_fuzz import early_exit_loop_sources

QURT_SHAPE = """
int isqrt(int x) {
  if (x < 2) return x;
  int guess = x / 2;
  for (int i = 0; i < 12; i++) {
    int next = (guess + x / guess) / 2;
    if (next >= guess) return guess;
    guess = next;
  }
  return guess;
}
int main() {
  int total = 0;
  for (int v = 1; v < 30; v++) { total += isqrt(v * v * 3 + v); }
  print_int(total);
  return total % 251;
}
"""

BREAK_IV = """
int a[64];
int main() {
  for (int i = 0; i < 64; i++) {
    if (i == 10) break;
    a[i] = 7;
  }
  int t = 0;
  for (int i = 0; i < 64; i++) t += a[i];
  print_int(t);
  return t % 251;
}
"""

BREAK_DATA = """
int a[16];
int main() {
  for (int i = 0; i < 16; i++) a[i] = (i * 13) % 7;
  int found = 0 - 1;
  for (int i = 0; i < 16; i++) {
    if (a[i] == 5) { found = i; break; }
  }
  print_int(found);
  return (found + 2) % 251;
}
"""


def _multi_exit_loop(function):
    info = LoopInfo(function)
    loops = [lp for lp in info.loops if len(lp.exit_blocks()) > 1]
    assert loops, "fixture lost its multi-exit loop"
    return loops[0]


def _apply(source, phases):
    module = compile_source(source)
    reference = run_module(compile_source(source)).observable()
    PassManager(verify=True).run(module, phases)
    assert run_module(module).observable() == reference
    return module


# -- canonical form -------------------------------------------------------

def test_simplify_establishes_invariants():
    module = compile_source(QURT_SHAPE)
    PassManager(verify=True).run(module, ["mem2reg", "instcombine"])
    fn = module.get_function("isqrt")
    loop = _multi_exit_loop(fn)
    simplify_loop(fn, loop)
    assert loop_is_simplified(loop)
    assert loop.preheader() is not None
    assert len(loop.latches()) == 1
    assert loop.has_dedicated_exits()
    verify_function(fn)


def test_lcssa_formation_and_check_mode():
    module = compile_source(QURT_SHAPE)
    PassManager(verify=True).run(module, ["mem2reg", "instcombine"])
    fn = module.get_function("isqrt")
    loop = _multi_exit_loop(fn)
    simplify_loop(fn, loop)
    assert not loop_is_lcssa(loop)
    form_lcssa(fn, loop, DominatorTree(fn))
    assert loop_is_lcssa(loop)
    verify_function(fn, lcssa=True)
    check_lcssa(fn)
    # Formation is idempotent.
    assert form_lcssa(fn, loop, DominatorTree(fn)) is False


def test_exit_blocks_deterministically_ordered():
    module = compile_source(QURT_SHAPE)
    PassManager(verify=True).run(module, ["mem2reg"])
    fn = module.get_function("isqrt")
    loop = _multi_exit_loop(fn)
    exiting = loop.exiting_blocks()
    assert len(exiting) > 1
    # Exiting blocks arrive in function block order, not set order.
    assert [id(b) for b in exiting] == \
        [id(b) for b in fn.blocks if b in set(exiting)]
    # The orderings are a pure function of the program: a second
    # compile (different object addresses, different set hashing)
    # yields the same block positions.
    module2 = compile_source(QURT_SHAPE)
    PassManager(verify=True).run(module2, ["mem2reg"])
    fn2 = module2.get_function("isqrt")
    loop2 = _multi_exit_loop(fn2)

    def positions(function, blocks):
        return [function.blocks.index(b) for b in blocks]

    assert positions(fn, loop.exit_blocks()) == \
        positions(fn2, loop2.exit_blocks())
    assert positions(fn, loop.exiting_blocks()) == \
        positions(fn2, loop2.exiting_blocks())
    assert positions(fn, [b for b, _ in loop.exit_edges()]) == \
        positions(fn2, [b for b, _ in loop2.exit_edges()])


# -- multi-exit trip simulation -------------------------------------------

def test_simulate_exits_counts_early_exit_trips():
    module = compile_source(BREAK_IV)
    PassManager(verify=True).run(module, ["mem2reg", "instcombine"])
    fn = module.get_function("main")
    loop = _multi_exit_loop(fn)
    simplify_loop(fn, loop)
    dom = DominatorTree(fn)
    plan = simulate_exits(loop, loop.preheader(), dom)
    assert plan is not None
    # Iterations 0..9 store; the 11th entry fires the break.
    assert plan.n_entered == 11
    from repro.ir import StoreInst
    store = next(i for b in loop.ordered_blocks()
                 for i in b.instructions if isinstance(i, StoreInst))
    assert plan.executions_of(store.parent, dom) == 10
    # Both exits are counted (dominate the latch, IV-vs-constant);
    # the tighter one — the break at i == 10 — wins.
    bound = counted_exit_bound(loop, loop.preheader(), dom)
    assert bound is not None and bound[0] == 11


def test_simulate_exits_refuses_data_dependent_conditions():
    module = compile_source(BREAK_DATA)
    PassManager(verify=True).run(module, ["mem2reg", "instcombine"])
    fn = module.get_function("main")
    loop = _multi_exit_loop(fn)
    simplify_loop(fn, loop)
    dom = DominatorTree(fn)
    assert simulate_exits(loop, loop.preheader(), dom) is None
    # ...but the counted exit still bounds the loop.
    bound = counted_exit_bound(loop, loop.preheader(), dom)
    assert bound is not None and bound[0] == 17


TWO_IV = """
int main() {
  int acc = 0;
  int j = 5;
  for (int i = 0; i < 30; i++) {
    if (j > 40) break;
    acc += i * 3 + j;
    j = j + 3;
  }
  print_int(acc);
  return acc % 251;
}
"""


def test_simulate_exits_handles_two_independent_ivs():
    """``for (i...; j...)`` shapes: the break is governed by a second
    counter with its own start/step, and both exits still simulate
    exactly (ISSUE 5 — previously the data-dependent fallback)."""
    module = compile_source(TWO_IV)
    PassManager(verify=True).run(module, ["mem2reg", "instcombine"])
    fn = module.get_function("main")
    loop = _multi_exit_loop(fn)
    simplify_loop(fn, loop)
    dom = DominatorTree(fn)
    plan = simulate_exits(loop, loop.preheader(), dom)
    assert plan is not None
    # j = 5 + 3k first exceeds 40 at k = 12: 13 entries.
    assert plan.n_entered == 13
    assert len(plan.ivs) == 2
    # The tighter bound comes from the secondary counter's exit.
    bound = counted_exit_bound(loop, loop.preheader(), dom)
    assert bound is not None and bound[0] == 13
    assert bound[1].step == 3


def test_unroll_fires_on_two_iv_loop():
    module = _apply(TWO_IV, ["mem2reg", "instcombine", "loop-unroll",
                             "simplifycfg", "sccp", "instcombine",
                             "adce"])
    assert len(LoopInfo(module.get_function("main")).loops) == 0


def test_loop_idiom_memsets_two_iv_partial_fill():
    """The store is indexed by the secondary counter; the break by the
    same — the memset length follows from the two-IV simulation."""
    src = """
    int cells[40];
    int main() {
      for (int i = 0; i < 40; i++) { cells[i] = 9; }
      int k = 0;
      for (int i = 0; i < 99; i++) {
        if (k > 13) break;
        cells[k] = 0;
        k = k + 1;
      }
      int sum = 0;
      for (int i = 0; i < 40; i++) sum += cells[i];
      print_int(sum);
      return sum % 251;
    }
    """
    # One idiom lands per run; the init loop matches first, the
    # two-IV fill on the second run.
    module = _apply(src, ["mem2reg", "instcombine", "loop-idiom",
                          "loop-idiom"])
    from repro.ir import CallInst
    calls = [i for i in module.get_function("main").instructions()
             if isinstance(i, CallInst) and i.callee == "memset"
             and i.args[2].value == 14]
    assert calls, "two-IV partial fill not recognized"


# -- the passes fire (acceptance criterion) -------------------------------

def test_rotate_fires_on_qurt_shape_regression():
    """The original PR-2 miscompile shape: multi-exit rotation must
    now fire (no single-exit bail) and stay verifier-clean and
    interpreter-identical."""
    module = _apply(QURT_SHAPE, ["mem2reg", "instcombine"])
    fn = module.get_function("isqrt")
    assert _multi_exit_loop(fn) is not None
    from repro.passes.loop_rotate import LoopRotate
    rotated = LoopRotate().run_on_function(fn, AnalysisManager())
    assert rotated, "multi-exit rotation bailed"
    verify_function(fn)
    reference = run_module(compile_source(QURT_SHAPE)).observable()
    assert run_module(module).observable() == reference
    # The loop is rotated: the old top-test block (now the latch) no
    # longer tests anything — it re-enters the body unconditionally —
    # while the early ``return`` edge stays live in the new header.
    from repro.ir import BranchInst
    loop = LoopInfo(fn).loops[0]
    latch = loop.latches()[0]
    assert isinstance(latch.terminator(), BranchInst)
    assert len(loop.exiting_blocks()) == 2  # early return + counted test


def test_unroll_fires_on_iv_break_loop():
    """An IV-conditioned break far below the counted bound unrolls
    exactly (early-exit trip count via per-exit conditions)."""
    src = """
    int main() {
      int total = 0;
      for (int i = 0; i < 1000; i++) {
        if (i == 5) break;
        total += i * 3;
      }
      print_int(total);
      return total % 251;
    }
    """
    module = _apply(src, ["mem2reg", "instcombine", "loop-unroll",
                          "simplifycfg", "sccp", "instcombine", "adce"])
    assert len(LoopInfo(module.get_function("main")).loops) == 0


def test_unroll_fires_on_data_dependent_break_loop():
    """Data-dependent breaks stay live per copy; the counted exit
    bounds the unroll."""
    module = _apply(BREAK_DATA, ["mem2reg", "instcombine", "gvn",
                                 "loop-unroll", "simplifycfg", "sccp",
                                 "instcombine", "adce"])
    fn = module.get_function("main")
    # The search loop (16-bound, breaks on a loaded value) is gone.
    remaining = LoopInfo(fn).loops
    assert all(len(lp.exit_blocks()) <= 1 for lp in remaining)


def test_licm_hoists_from_multi_exit_loop():
    src = """
    int main() {
      int a = 6; int b = 7;
      int total = 0;
      for (int i = 0; i < 50; i++) {
        if (total > 300) break;
        total += a * b + i;
      }
      print_int(total);
      return total % 251;
    }
    """
    module = _apply(src, ["mem2reg", "instcombine", "licm"])
    fn = module.get_function("main")
    info = LoopInfo(fn)
    assert info.loops, "loop disappeared unexpectedly"
    loop = info.loops[0]
    in_loop_muls = [i for block in loop.ordered_blocks()
                    for i in block.instructions if i.opcode == "mul"]
    assert not in_loop_muls, "licm failed to hoist from multi-exit loop"


def test_loop_idiom_memsets_partial_fill():
    module = _apply(BREAK_IV, ["mem2reg", "instcombine", "loop-idiom"])
    from repro.ir import CallInst
    calls = [i for i in module.get_function("main").instructions()
             if isinstance(i, CallInst) and i.callee == "memset"]
    assert calls, "multi-exit memset not recognized"
    assert calls[0].args[2].value == 10  # exactly the stores executed


def test_loop_deletion_removes_dead_multi_exit_loop():
    src = """
    int main() {
      int waste = 0;
      for (int i = 0; i < 30; i++) {
        if (i == 11) break;
        waste += i;
      }
      return 5;
    }
    """
    module = _apply(src, ["mem2reg", "instcombine", "dce", "simplifycfg",
                          "loop-deletion", "simplifycfg"])
    assert len(LoopInfo(module.get_function("main")).loops) == 0


def test_loop_sink_rematerializes_per_exit():
    src = """
    int main() {
      int a = 9; int b = 13;
      int total = 0;
      int j = 0;
      while (j < 40) {
        int product = a * b;
        if (j == 17) { total = product + 1; break; }
        total = product + j;
        j += 2;
      }
      print_int(total);
      return total % 251;
    }
    """
    _apply(src, ["mem2reg", "instcombine", "loop-sink", "dce"])


def _observable_or_trap(module):
    try:
        return ("ok", run_module(module).observable())
    except Exception as error:  # noqa: BLE001 - trap identity compared
        return ("trap", type(error).__name__)


def test_licm_does_not_hoist_load_guarded_by_early_exit():
    """A load that dominates the latch but not the early exit never
    executes when the break fires first — hoisting it would introduce
    a trap the original program cannot reach."""
    src = """
    int a[4];
    int main() {
      int t = 0;
      int k = 0 - 20;
      for (int i = 0; i < 10; i++) {
        if (i < 100) break;
        t += a[k];
      }
      print_int(t);
      return 0;
    }
    """
    reference = _observable_or_trap(compile_source(src))
    assert reference[0] == "ok"  # the break always fires first
    module = compile_source(src)
    PassManager(verify=True).run(module,
                                 ["mem2reg", "instcombine", "licm"])
    assert _observable_or_trap(module) == reference


def test_loop_idiom_does_not_elide_trapping_division():
    """A memset-shaped loop whose body divides by a non-constant must
    not be deleted: the division's trap is observable."""
    src = """
    int a[64];
    int main() {
      int z = 5;
      for (int i = 0; i < 64; i++) {
        if (i == 21) break;
        int t = 100 / (i - z);
        a[i] = 0;
      }
      print_int(a[0]);
      return 0;
    }
    """
    reference = _observable_or_trap(compile_source(src))
    assert reference[0] == "trap"  # divides by zero at i == 5
    module = compile_source(src)
    PassManager(verify=True).run(module,
                                 ["mem2reg", "instcombine", "loop-idiom"])
    assert _observable_or_trap(module) == reference


def test_activity_reported_on_earlyexit_suite():
    """Across the early-exit workload suite, the loop-pass family must
    report activity (the old single-exit bails reported none)."""
    phases = ["mem2reg", "instcombine", "loop-rotate", "licm",
              "loop-unroll", "loop-idiom", "simplifycfg", "sccp",
              "instcombine", "adce"]
    fired = {"loop-rotate": 0, "licm": 0, "loop-unroll": 0,
             "loop-idiom": 0}
    for workload in load_suite("earlyexit"):
        module = workload.compile()
        reference = run_module(workload.compile()).observable()
        activity = PassManager(verify=True).run(module, phases)
        assert run_module(module).observable() == reference, \
            workload.name
        for name, active in zip(phases, activity):
            if name in fired and active:
                fired[name] += 1
    for name, count in fired.items():
        assert count > 0, f"{name} never fired on the early-exit suite"


# -- analysis caching (warm vs fresh) -------------------------------------

WARMUP = ["mem2reg", "instcombine", "licm"]


def _prepare(source, warm):
    module = compile_source(source)
    am = AnalysisManager()
    PassManager().run(module, WARMUP, am=am)
    if not warm:
        return module, AnalysisManager()
    for function in module.defined_functions():
        am.fingerprint(function)
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
    return module, am


@pytest.mark.parametrize("phase", sorted(available_phases()))
@pytest.mark.parametrize("source", [QURT_SHAPE, BREAK_IV, BREAK_DATA],
                         ids=["qurt", "break_iv", "break_data"])
def test_warm_vs_fresh_on_multi_exit_corpus(source, phase):
    """Every registered pass behaves bit-identically against a warm
    manager (loopcanon/exit-plan caches force-filled) and fresh
    analyses on the multi-exit corpus."""
    results = {}
    for warm in (True, False):
        module, am = _prepare(source, warm)
        activity = PassManager(verify=True).run(module, [phase, phase],
                                                am=am)
        results[warm] = (activity, module_fingerprint(module),
                         run_module(module).observable())
    assert results[True] == results[False], phase


def test_licm_hoists_chain_under_permuted_layout():
    """licm hoists a dependent invariant chain even when block layout
    puts the user's block before its operand's def (the user is only
    enabled in a later rescan round), and the program keeps its -O0
    output."""
    import random

    src = """
    int main() {
      int a = 3; int b = 11;
      int total = 0;
      for (int i = 0; i < 12; i++) {
        int x = a * b;
        if (i > 3) {
          int y = x + 5;
          total += y;
        } else {
          total += i;
        }
      }
      print_int(total);
      return total % 251;
    }
    """
    expected = run_module(compile_source(src)).observable()

    def constants(inst):
        return [op.value for op in inst.operands
                if isinstance(op, ConstantInt)]

    for trial in range(10):
        module = compile_source(src)
        PassManager().run(module, ["mem2reg"])
        fn = module.get_function("main")
        body = fn.blocks[1:]
        random.Random(trial).shuffle(body)
        fn.blocks[1:] = body
        fn._invalidate_positions()  # the raw splice bypassed the index
        PassManager(verify=True).run(module, ["licm"])
        (loop,) = LoopInfo(fn).loops
        hoisted = [inst for inst in loop.preheader().instructions
                   if isinstance(inst, BinaryInst)]
        products = [inst for inst in hoisted if inst.opcode == "mul"
                    and sorted(constants(inst)) == [3, 11]]
        assert len(products) == 1, trial
        assert any(inst.opcode == "add" and products[0] in inst.operands
                   and constants(inst) == [5] for inst in hoisted), trial
        assert run_module(module).observable() == expected, trial


def test_warm_loopcanon_memo_does_not_skip_lcssa_after_simplify():
    """A pre-filled LCSSA verdict must not answer for the loop after
    a simplify mutation moved its exit phis off the exit blocks
    (regression for a stale-memo read in ensure_canonical_loop)."""
    from repro.passes.loop_canon import ensure_canonical_loop

    src = """
    int main() {
      int t = 0;
      int last = 0;
      for (int i = 0; i < 20; i++) {
        last = i * 3;
        if (t > 25) break;
        t += last;
      }
      print_int(t + last);
      return (t + last) % 251;
    }
    """
    outcomes = {}
    for warm in (False, True):
        module = compile_source(src)
        am = AnalysisManager()
        PassManager().run(module, ["mem2reg", "instcombine"], am=am)
        fn = module.get_function("main")
        loop = am.loops(fn).loops[0]
        if warm:
            canon = am.loopcanon(fn)
            canon.is_simplified(loop)
            canon.is_lcssa(loop)
        changed = ensure_canonical_loop(fn, loop, am, lcssa=True)
        verify_function(fn, lcssa=True)
        outcomes[warm] = (changed, loop_is_simplified(loop),
                         loop_is_lcssa(loop), module_fingerprint(module))
    assert outcomes[True] == outcomes[False]


def test_loopcanon_verdicts_cached_and_invalidated():
    module = compile_source(QURT_SHAPE)
    am = AnalysisManager()
    PassManager().run(module, ["mem2reg", "instcombine"], am=am)
    fn = module.get_function("isqrt")
    canon = am.loopcanon(fn)
    assert am.cached("loopcanon", fn) is canon
    hits0 = am.stats.hits
    assert am.loopcanon(fn) is canon
    assert am.stats.hits == hits0 + 1
    # A mutating pass drops the verdict memo...
    PassManager().run(module, ["loop-rotate"], am=am)
    assert am.cached("loopcanon", fn) is None
    # ...and an inactive pass preserves the recomputed one.
    fresh = am.loopcanon(fn)
    PassManager().run(module, ["loop-rotate"], am=am)
    assert am.cached("loopcanon", fn) is fresh


# -- differential fuzz ----------------------------------------------------

LOOP_PIPELINES = (
    ("mem2reg", "loop-rotate"),
    ("mem2reg", "instcombine", "loop-rotate", "licm", "simplifycfg"),
    ("mem2reg", "instcombine", "loop-unroll", "simplifycfg", "sccp",
     "instcombine", "adce"),
    ("mem2reg", "instcombine", "loop-idiom", "loop-deletion",
     "simplifycfg"),
    ("mem2reg", "instcombine", "loop-sink", "loop-unswitch", "dce",
     "simplifycfg"),
)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=early_exit_loop_sources())
def test_early_exit_fuzz_through_loop_passes(source):
    reference = run_module(compile_source(source)).observable()
    for pipeline in LOOP_PIPELINES:
        module = compile_source(source)
        PassManager(verify=True).run(module, list(pipeline))
        verify_module(module)
        assert run_module(module).observable() == reference, pipeline
