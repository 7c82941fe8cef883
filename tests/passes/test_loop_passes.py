import random

import pytest

from repro.baselines import STANDARD_LEVELS
from repro.ir import CallInst, LoopInfo, run_module
from repro.ir.arith import icmp, wrap64
from repro.lang import compile_source
from repro.passes import AnalysisManager, PassManager
from repro.passes.loop_utils import ensure_preheader


def apply(source, phases):
    module = compile_source(source)
    reference = run_module(compile_source(source)).observable()
    PassManager(verify=True).run(module, phases)
    assert run_module(module).observable() == reference
    return module


def loop_count(module, name="main"):
    return len(LoopInfo(module.get_function(name)).loops)


def opcodes(module, name="main"):
    return [i.opcode for i in module.get_function(name).instructions()]


COUNTED = """
int main() {
  int total = 0;
  for (int i = 0; i < 8; i++) { total += i * 3; }
  print_int(total);
  return total;
}
"""


def test_loop_unroll_eliminates_small_loop():
    module = apply(COUNTED, ["mem2reg", "instcombine", "loop-unroll", "simplifycfg"])
    assert loop_count(module) == 0


def test_loop_unroll_then_sccp_constant_folds_everything():
    module = apply(COUNTED, ["mem2reg", "instcombine", "loop-unroll",
                             "simplifycfg", "sccp", "instcombine",
                             "simplifycfg", "adce"])
    main = module.get_function("main")
    # the sum 0+3+6+...+21 = 84 should be a literal
    text_ops = opcodes(module)
    assert "mul" not in text_ops and "add" not in text_ops


def test_loop_unroll_respects_trip_limit():
    src = """
    int main() {
      int total = 0;
      for (int i = 0; i < 1000; i++) { total += i; }
      return total % 251;
    }
    """
    module = apply(src, ["mem2reg", "instcombine", "loop-unroll"])
    assert loop_count(module) == 1  # too many trips: untouched


def test_loop_rotate_moves_test_to_latch():
    module = apply(COUNTED, ["mem2reg", "loop-rotate"])
    info = LoopInfo(module.get_function("main"))
    assert len(info.loops) == 1
    loop = info.loops[0]
    # rotated: the header is no longer the exiting block
    exiting = loop.exiting_blocks()
    assert loop.header not in exiting or len(loop.blocks) == 1


def test_licm_hoists_invariant_computation():
    src = """
    int main() {
      int a = 6; int b = 7;
      int total = 0;
      for (int i = 0; i < 10; i++) { total += a * b; }
      print_int(total);
      return 0;
    }
    """
    module = apply(src, ["mem2reg", "licm"])
    info = LoopInfo(module.get_function("main"))
    loop = info.loops[0]
    in_loop_muls = [i for block in loop.blocks
                    for i in block.instructions if i.opcode == "mul"]
    assert not in_loop_muls


def test_licm_hoists_invariant_load():
    src = """
    int g = 99;
    int main() {
      int total = 0;
      for (int i = 0; i < 10; i++) { total += g; }
      return total % 251;
    }
    """
    module = apply(src, ["mem2reg", "licm"])
    info = LoopInfo(module.get_function("main"))
    loop = info.loops[0]
    from repro.ir import LoadInst
    in_loop_loads = [i for block in loop.blocks
                     for i in block.instructions
                     if isinstance(i, LoadInst)]
    assert not in_loop_loads


def test_licm_does_not_hoist_clobbered_load():
    src = """
    int g = 1;
    int main() {
      int total = 0;
      for (int i = 0; i < 5; i++) { g = g + 1; total += g; }
      return total;
    }
    """
    apply(src, ["mem2reg", "licm"])  # differential check is the point


def test_loop_deletion_removes_dead_loop():
    src = """
    int main() {
      int waste = 0;
      for (int i = 0; i < 9; i++) { waste += i; }
      return 5;
    }
    """
    module = apply(src, ["mem2reg", "instcombine", "dce",
                         "loop-deletion", "simplifycfg"])
    assert loop_count(module) == 0


def test_loop_deletion_keeps_live_loop():
    module = apply(COUNTED, ["mem2reg", "instcombine", "loop-deletion"])
    assert loop_count(module) == 1


def test_loop_idiom_recognizes_memset():
    src = """
    int main() {
      int a[32];
      for (int i = 0; i < 32; i++) { a[i] = 0; }
      int t = 0;
      for (int i = 0; i < 32; i++) { t += a[i]; }
      return t;
    }
    """
    module = apply(src, ["mem2reg", "instcombine", "loop-idiom"])
    calls = [i for i in module.get_function("main").instructions()
             if isinstance(i, CallInst) and i.callee == "memset"]
    assert len(calls) == 1


def test_indvars_strength_reduction():
    src = """
    int main() {
      int total = 0;
      for (int i = 0; i < 20; i++) { total += i * 7; }
      print_int(total);
      return 0;
    }
    """
    module = apply(src, ["mem2reg", "instcombine", "licm", "indvars"])
    info = LoopInfo(module.get_function("main"))
    if info.loops:  # the multiply must be gone from the loop
        loop = info.loops[0]
        in_loop_muls = [i for block in loop.blocks
                        for i in block.instructions
                        if i.opcode == "mul"]
        assert not in_loop_muls


def test_loop_unswitch_versions_invariant_branch():
    src = """
    int main() {
      int flag = 1;
      int total = 0;
      for (int i = 0; i < 6; i++) {
        if (flag > 0) { total += 2; } else { total += 3; }
      }
      print_int(total);
      return 0;
    }
    """
    before = apply(src, ["mem2reg"])
    after = apply(src, ["mem2reg", "instcombine", "loop-unswitch"])
    assert (len(after.get_function("main").blocks)
            > len(before.get_function("main").blocks))


def test_loop_load_elim_forwards_store():
    src = """
    int main() {
      int a[8];
      int t = 0;
      for (int i = 0; i < 8; i++) {
        a[i] = i * 2;
        t += a[i];
      }
      return t;
    }
    """
    apply(src, ["mem2reg", "loop-load-elim", "dce"])


def test_loop_vectorize_unrolls_and_marks_slp():
    src = """
    float v[16];
    int main() {
      for (int i = 0; i < 16; i++) { v[i] = v[i] * 2.0 + 1.0; }
      float t = 0.0;
      for (int i = 0; i < 16; i++) { t = t + v[i]; }
      print_float(t);
      return 0;
    }
    """
    module = apply(src, ["mem2reg", "instcombine", "loop-vectorize"])
    assert "slp-enabled" in module.get_function("main").attributes


def test_nested_loop_pipeline():
    src = """
    int main() {
      int t = 0;
      for (int i = 0; i < 4; i++) {
        for (int j = 0; j < 4; j++) { t += i * j; }
      }
      print_int(t);
      return t;
    }
    """
    apply(src, ["mem2reg", "instcombine", "loop-rotate", "licm",
                "loop-unroll", "simplifycfg", "sccp", "instcombine",
                "loop-unroll", "simplifycfg", "adce"])


# -- trip counts of counters that wrap past INT64_MAX -------------------------

ROTATE_UNROLL = ["mem2reg", "instcombine", "simplifycfg", "loop-rotate",
                 "loop-unroll"]

WRAPPING = """
int main() {
  int s = 0;
  for (int i = 0; i < 4611686018427387906; i = i + 4611686018427387905) s = s + 1;
  print_int(s);
  return 0;
}
"""


@pytest.mark.parametrize("phases", [STANDARD_LEVELS["-O2"],
                                    STANDARD_LEVELS["-O3"], ROTATE_UNROLL],
                         ids=["O2", "O3", "rotate-unroll"])
def test_trip_count_follows_a_wrapping_counter(phases):
    """``i`` wraps to a negative value twice before it reaches the
    bound: five iterations, which an unbounded count cut to two."""
    module = apply(WRAPPING, phases)
    assert run_module(module).output == (("i", 5),)


def _draw_wrapping_loop(rng):
    """``(source, trips)`` of a counted loop whose i64 counter wraps
    and whose exit fires within 40 iterations."""
    while True:
        step = rng.choice((-1, 1)) * rng.randrange(1 << 59, 1 << 63)
        start = rng.randrange(-(1 << 62), 1 << 62)
        predicate = rng.choice(("slt", "sle", "sgt", "sge", "ne"))
        bound = wrap64(start + rng.randrange(1, 40) * step)
        if predicate != "ne":
            bound = max(-(1 << 63) + 1, min((1 << 63) - 1,
                                            bound + rng.randrange(-2, 3)))
        value, trips, wrapped = start, 0, False
        while trips <= 40 and icmp(predicate, value, bound):
            wrapped |= value + step != wrap64(value + step)
            value = wrap64(value + step)
            trips += 1
        if trips <= 40 and wrapped:
            break
    op, swapped = {"slt": ("<", ">"), "sle": ("<=", ">="),
                   "sgt": (">", "<"), "sge": (">=", "<="),
                   "ne": ("!=", "!=")}[predicate]
    test = f"i {op} {bound}" if rng.random() < 0.5 else f"{bound} {swapped} i"
    source = f"""
    int main() {{
      int s = 0;
      for (int i = {start}; {test}; i = i + {step}) s = s + 1;
      print_int(s);
      return 0;
    }}
    """
    return source, trips


def test_trip_counts_of_wrapping_counters_match_the_interpreter():
    rng = random.Random(2021)
    for _ in range(300):
        source, trips = _draw_wrapping_loop(rng)
        assert run_module(compile_source(source)).output == \
            (("i", trips),), source
        apply(source, ROTATE_UNROLL)
        module = compile_source(source)
        PassManager().run(module, ROTATE_UNROLL[:-1])
        main = module.get_function("main")
        loop, = LoopInfo(main).loops
        preheader, _ = ensure_preheader(main, loop)
        count, _ = AnalysisManager().loopivs(main).trip_count(loop,
                                                              preheader)
        assert count == trips, source
