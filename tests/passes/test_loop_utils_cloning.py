"""Unit tests for the loop analysis utilities and region cloning that
the loop transformations are built on."""

import pytest

from repro.ir import BranchInst, LoopInfo, run_module, verify_function
from repro.lang import compile_source
from repro.passes import PassManager
from repro.passes.cloning import clone_region
from repro.passes.loop_utils import (
    constant_trip_count,
    ensure_preheader,
    find_induction_variable,
    is_loop_invariant,
)


def _prepared(source, phases=("mem2reg", "instcombine")):
    module = compile_source(source)
    PassManager().run(module, list(phases))
    main = module.get_function("main")
    info = LoopInfo(main)
    return module, main, info


def _loop_src(init, cond, step):
    return f"""
    int main() {{
      int t = 0;
      for (int i = {init}; {cond}; i {step}) {{ t += i; }}
      print_int(t);
      return 0;
    }}
    """


@pytest.mark.parametrize("init,cond,step,expected", [
    (0, "i < 10", "+= 1", 10),
    (0, "i < 10", "+= 3", 4),
    (10, "i > 0", "-= 2", 5),
    (1, "i <= 7", "+= 2", 4),
    (5, "i < 5", "+= 1", 0),
    (0, "i != 6", "+= 2", 3),
])
def test_trip_counts(init, cond, step, expected):
    module, main, info = _prepared(_loop_src(init, cond, step))
    assert len(info.loops) == 1
    loop = info.loops[0]
    preheader, _ = ensure_preheader(main, loop)
    trips, iv = constant_trip_count(loop, preheader)
    assert trips == expected
    if expected > 0:
        assert iv is not None


def test_trip_count_unknown_bound():
    source = """
    int main() {
      int t = 0;
      int n = 10;
      for (int i = 0; i < n * n; i++) { t += i; }
      print_int(t);
      return 0;
    }
    """
    module, main, info = _prepared(source, ("mem2reg",))
    loop = info.loops[0]
    preheader, _ = ensure_preheader(main, loop)
    trips, _ = constant_trip_count(loop, preheader)
    # The bound is an expression, not a literal: analysis declines (until
    # sccp folds it).
    assert trips is None


def test_trip_count_after_rotation():
    # loop-rotate leaves pass-through phis behind; simplifycfg cleans
    # them up (the same ordering the -O pipelines use).
    module, main, info = _prepared(_loop_src(0, "i < 6", "+= 1"),
                                   ("mem2reg", "instcombine",
                                    "loop-rotate", "simplifycfg"))
    loop = info.loops[0]
    preheader, _ = ensure_preheader(main, loop)
    trips, _ = constant_trip_count(loop, preheader)
    assert trips == 6


def test_induction_variable_detection():
    module, main, info = _prepared(_loop_src(2, "i < 20", "+= 4"))
    loop = info.loops[0]
    preheader, _ = ensure_preheader(main, loop)
    iv = find_induction_variable(loop, preheader)
    assert iv is not None
    assert iv.step == 4
    assert iv.start.value == 2


def test_ensure_preheader_creates_dedicated_block():
    source = """
    int main() {
      int t = 0;
      int i = 0;
      if (t == 0) { i = 1; }
      while (i < 5) { i += 1; }
      print_int(i);
      return 0;
    }
    """
    module, main, info = _prepared(source, ("mem2reg",))
    loop = info.loops[0]
    before = loop.preheader()
    preheader, _ = ensure_preheader(main, loop)
    assert preheader is not None
    assert preheader.successors() == [loop.header]
    verify_function(main)
    # Idempotent.
    assert ensure_preheader(main, loop)[0] is preheader


def test_is_loop_invariant():
    module, main, info = _prepared(_loop_src(0, "i < 8", "+= 1"))
    loop = info.loops[0]
    from repro.ir import ConstantInt, I64
    assert is_loop_invariant(ConstantInt(I64, 3), loop)
    iv = find_induction_variable(loop, ensure_preheader(main, loop)[0])
    assert not is_loop_invariant(iv.phi, loop)


def test_clone_region_preserves_behaviour_when_substituted():
    """Clone a side-effect-only loop and redirect execution through the
    clone: the program must behave identically.  (Values flowing out of
    a cloned region need explicit merge phis — that fixup is owned by
    the passes, e.g. loop-unswitch — so this test uses a region whose
    only products are side effects.)"""
    source = """
    int main() {
      for (int i = 0; i < 5; i++) { print_int(i * i); }
      return 0;
    }
    """
    module = compile_source(source)
    PassManager().run(module, ["mem2reg"])
    reference = run_module(compile_source(source)).observable()
    main = module.get_function("main")
    info = LoopInfo(main)
    loop = info.loops[0]
    preheader, _ = ensure_preheader(main, loop)
    blocks = [b for b in main.blocks if b in loop.blocks]
    value_map, block_map = clone_region(blocks, main, "copy")
    # Send the entry edge through the clone instead of the original.
    term = preheader.terminator()
    term.erase_from_parent()
    preheader.append(BranchInst(block_map[id(loop.header)]))
    PassManager().run(module, ["simplifycfg"])  # sweep the original
    verify_function(main)
    assert run_module(module).observable() == reference


def test_clone_region_maps_all_values():
    source = _loop_src(0, "i < 4", "+= 1")
    module = compile_source(source)
    PassManager().run(module, ["mem2reg"])
    main = module.get_function("main")
    loop = LoopInfo(main).loops[0]
    blocks = [b for b in main.blocks if b in loop.blocks]
    value_map, block_map = clone_region(blocks, main, "c2")
    originals = [i for b in blocks for i in b.instructions]
    for inst in originals:
        assert id(inst) in value_map
        clone = value_map[id(inst)]
        assert type(clone) is type(inst)
    assert len(block_map) == len(blocks)
