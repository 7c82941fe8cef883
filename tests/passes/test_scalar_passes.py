import pytest

from repro.ir import (
    CallInst,
    LoadInst,
    StoreInst,
    run_module,
)
from repro.lang import compile_source
from repro.passes import AnalysisManager, PassManager, create_pass


def apply(source, phases):
    module = compile_source(source)
    reference = run_module(compile_source(source)).observable()
    PassManager(verify=True).run(module, phases)
    assert run_module(module).observable() == reference
    return module


def opcodes(module):
    out = []
    for fn in module.defined_functions():
        for inst in fn.instructions():
            out.append(inst.opcode)
    return out


def test_instcombine_strength_reduces_mul_pow2():
    src = "int main(){ int x = 3; int y = x * 8; print_int(y); return 0; }"
    module = apply(src, ["mem2reg", "instcombine"])
    ops = opcodes(module)
    assert "shl" in ops or "mul" not in ops


def test_instcombine_folds_constants():
    src = "int main(){ int x = 2 + 3 * 4; return x; }"
    module = apply(src, ["mem2reg", "instcombine"])
    main = module.get_function("main")
    # only the return remains
    assert main.instruction_count() <= 2


def test_instcombine_add_zero_identity():
    src = "int main(){ int x = 7; int y = x + 0; return y * 1; }"
    module = apply(src, ["mem2reg", "instsimplify"])
    assert "add" not in opcodes(module)
    assert "mul" not in opcodes(module)


def test_instcombine_zext_icmp_fold():
    # (x < y) != 0 is the frontend's boolean pattern; instcombine folds
    # the zext/icmp-ne chain away.
    src = """
    int main() {
      int x = 3; int y = 4;
      if (x < y) return 1;
      return 0;
    }
    """
    before = apply(src, ["mem2reg"])
    after = apply(src, ["mem2reg", "instcombine"])
    assert (after.get_function("main").instruction_count()
            < before.get_function("main").instruction_count())


def test_dce_removes_unused_computation():
    src = """
    int main() {
      int x = 3 * 7;
      int unused = x * 100 + 5;
      return x;
    }
    """
    module = apply(src, ["mem2reg", "dce"])
    assert "mul" not in opcodes(module) or \
        len([o for o in opcodes(module) if o == "mul"]) <= 1


def test_adce_keeps_side_effects():
    src = """
    int main() {
      int x = 3;
      print_int(x);
      int dead = x * 100;
      return 0;
    }
    """
    module = apply(src, ["mem2reg", "adce"])
    assert "mul" not in opcodes(module)
    assert any(isinstance(i, CallInst)
               for fn in module.defined_functions()
               for i in fn.instructions())


def test_dse_removes_overwritten_store():
    src = """
    int main() {
      int a[2];
      a[0] = 1;
      a[0] = 2;
      return a[0];
    }
    """
    module = apply(src, ["dse"])
    stores = [i for fn in module.defined_functions()
              for i in fn.instructions() if isinstance(i, StoreInst)]
    # The first store to a[0] is dead (note scalar locals also store).
    values = [s.value for s in stores]
    from repro.ir import ConstantInt
    assert not any(isinstance(v, ConstantInt) and v.value == 1
                   for v in values)


def test_early_cse_dedups_pure_expressions():
    src = """
    int main() {
      int x = 6; int y = 7;
      int a = x * y;
      int b = x * y;
      return a + b;
    }
    """
    module = apply(src, ["mem2reg", "early-cse"])
    muls = [o for o in opcodes(module) if o == "mul"]
    assert len(muls) == 1


def test_early_cse_memssa_forwards_stored_value():
    src = """
    int main() {
      int a[2];
      a[0] = 41;
      int x = a[0] + 1;
      return x;
    }
    """
    module = apply(src, ["early-cse-memssa", "instcombine"])
    loads = [i for fn in module.defined_functions()
             for i in fn.instructions() if isinstance(i, LoadInst)]
    assert len(loads) == 0


def test_gvn_across_blocks():
    src = """
    int main() {
      int x = 6; int y = 7;
      int a = x * y;
      if (a > 10) { print_int(x * y); }
      return a;
    }
    """
    module = apply(src, ["mem2reg", "gvn"])
    muls = [o for o in opcodes(module) if o == "mul"]
    assert len(muls) == 1


def test_sccp_propagates_through_branches():
    src = """
    int main() {
      int x = 4;
      int y;
      if (x > 0) { y = 10; } else { y = 20; }
      return y;
    }
    """
    module = apply(src, ["mem2reg", "sccp", "simplifycfg"])
    main = module.get_function("main")
    assert len(main.blocks) == 1
    assert main.instruction_count() == 1  # just 'ret 10'


def test_ipsccp_propagates_constant_arguments():
    src = """
    int scale(int x) { return x * 3; }
    int main() { return scale(5); }
    """
    module = apply(src, ["mem2reg", "ipsccp"])
    main = module.get_function("main")
    from repro.ir import RetInst, ConstantInt
    ret = main.blocks[-1].terminator()
    # main should return the constant 15 directly (call may remain but
    # its result is folded).
    assert isinstance(ret, RetInst)


def test_ipsccp_iterates_a_deep_call_chain_to_its_fixpoint():
    """``sink`` is called with 5 and with ``g5(i)``.  The argument and
    return cells of the chain fall one link per round (13 rounds here),
    so a solve stopped after 4 rounds folded ``sink``'s argument to 5
    and printed 40 instead of 46."""
    src = """
    int sink(int x) { return x * 2; }
    int g1(int x) { return x + 1; }
    int g2(int x) { return g1(x) + 1; }
    int g3(int x) { return g2(x) + 1; }
    int g4(int x) { return g3(x) + 1; }
    int g5(int x) { return g4(x) + 1; }
    int main() {
      int t = 0;
      for (int i = 0; i < 3; i++) { t += sink(g5(i)); }
      t += sink(5);
      print_int(t);
      return 0;
    }
    """
    module = apply(src, ["mem2reg", "ipsccp"])
    assert run_module(module).output == (("i", 46),)


def test_sccp_keeps_zero_and_negative_zero_apart():
    """The loop phi meets 0.0 and -0.0; folding it to 0.0 printed inf
    twice instead of inf, -inf."""
    src = """
    int main() {
      float x = 0.0;
      for (int i = 0; i < 2; i++) { print_float(1.0 / x); x = x * -1.0; }
      return 0;
    }
    """
    module = apply(src, ["mem2reg", "sccp"])
    assert run_module(module).output == (("f", float("inf")),
                                         ("f", float("-inf")))


@pytest.mark.parametrize("phase", ["gvn", "early-cse"])
def test_value_numbering_keeps_zero_and_negative_zero_apart(phase):
    """``1.0 / z`` (z = -0.0) and ``1.0 / 0.0`` divide equal-comparing
    zeros; keying constants by value merged them into -inf twice."""
    src = """
    int main() {
      float z = 0.0 * -1.0;
      float y = 0.0;
      print_float(1.0 / z);
      print_float(1.0 / y);
      return 0;
    }
    """
    module = apply(src, ["mem2reg", "instcombine", phase])
    assert run_module(module).output == (("f", float("-inf")),
                                         ("f", float("inf")))


def test_ipsccp_reports_and_invalidates_only_changed_functions():
    src = """
    int helper(int x) { print_int(x); return 7; }
    int main() {
      int t = 0;
      for (int i = 0; i < 3; i++) { t += helper(i); }
      return t;
    }
    """
    module = compile_source(src)
    am = AnalysisManager()
    PassManager().run(module, ["mem2reg"], am)
    helper = module.get_function("helper")
    main = module.get_function("main")
    for function in (helper, main):
        am.fingerprint(function)
        am.get("static_partial", function)
    fingerprint = am.cached("fingerprint", helper)
    partial = am.cached("static_partial", helper)

    changed = create_pass("ipsccp").run_with_changes(module, am)

    assert changed == {main}
    assert am.cached("fingerprint", helper) is fingerprint
    assert am.cached("static_partial", helper) is partial
    assert am.cached("fingerprint", main) is None
    assert am.cached("static_partial", main) is None


def test_reassociate_groups_constants():
    src = """
    int main() {
      int x = 9;
      int y = ((x + 1) + 2) + 3;
      return y;
    }
    """
    module = apply(src, ["mem2reg", "reassociate", "instcombine"])
    adds = [o for o in opcodes(module) if o == "add"]
    assert len(adds) <= 1


def test_div_rem_pairs_drops_second_division():
    src = """
    int main() {
      int a = 17; int b = 5;
      return a / b + a % b;
    }
    """
    module = apply(src, ["mem2reg", "div-rem-pairs"])
    ops = opcodes(module)
    assert "srem" not in ops
    assert ops.count("sdiv") == 1


def test_float2int_demotes_integer_float_math():
    src = """
    int main() {
      int a = 4; int b = 5;
      float fa = a;
      float fb = b;
      int c = fa + fb;
      return c;
    }
    """
    module = apply(src, ["mem2reg", "float2int", "dce"])
    ops = opcodes(module)
    assert "fadd" not in ops


def test_tailcallelim_turns_recursion_into_loop():
    src = """
    int count(int n, int acc) {
      if (n == 0) return acc;
      return count(n - 1, acc + 1);
    }
    int main() { return count(10, 0); }
    """
    module = apply(src, ["mem2reg", "tailcallelim"])
    count_fn = module.get_function("count")
    calls = [i for i in count_fn.instructions()
             if isinstance(i, CallInst)]
    assert not calls  # self tail call became a back edge


def test_speculative_execution_hoists():
    src = """
    int main() {
      int x = 3; int y = 9;
      int r;
      if (x < y) { r = x * 2; } else { r = y * 2; }
      return r;
    }
    """
    module = apply(src, ["mem2reg", "speculative-execution",
                         "simplifycfg"])
    # After hoisting both multiplies, the diamond folds to selects.
    main = module.get_function("main")
    assert len(main.blocks) <= 2


def test_mldst_motion_sinks_common_store():
    src = """
    int main() {
      int a[1];
      int x = 5;
      if (x > 2) { a[0] = 7; } else { a[0] = 9; }
      return a[0];
    }
    """
    # speculative-execution first hoists the address computation out of
    # the arms so both stores share one pointer value.
    module = apply(src, ["mem2reg", "speculative-execution",
                         "mldst-motion"])
    stores = [i for fn in module.defined_functions()
              for i in fn.instructions() if isinstance(i, StoreInst)]
    assert len(stores) == 1


def test_jump_threading():
    src = """
    int main() {
      int x = 1;
      int y;
      if (x > 0) { y = 1; } else { y = 0; }
      if (y == 1) { print_int(100); }
      return 0;
    }
    """
    # mem2reg creates the phi-into-branch pattern jump-threading eats.
    apply(src, ["mem2reg", "jump-threading", "simplifycfg"])


def test_correlated_propagation():
    src = """
    int main() {
      int x = 7;
      if (x == 7) { print_int(x + 1); }
      return 0;
    }
    """
    apply(src, ["mem2reg", "correlated-propagation", "sccp"])


def test_bdce_folds_masked_zero():
    src = """
    int main() {
      int x = 12;
      int low = x & 1;
      int masked = (low << 4) & 3;   // bits cannot overlap: always 0
      return masked;
    }
    """
    module = apply(src, ["mem2reg", "bdce"])
    ops = opcodes(module)
    assert "shl" not in ops
