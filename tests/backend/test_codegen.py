"""Backend tests: isel, register allocation, encoding, differential
execution against the IR interpreter."""

import pytest

from repro.backend import compile_module, get_isa
from repro.backend.mir import Imm, PhysReg, StackSlot, VirtReg
from repro.ir import run_module
from repro.lang import compile_source
from repro.passes import PassManager
from repro.sim import Simulator
from repro.sim.pipeline import PipelineModel


def simulate(module, target):
    isa = get_isa(target)
    program = compile_module(module, isa)
    result = Simulator(program, isa, PipelineModel(isa)).run()
    return program, result


@pytest.mark.parametrize("target", ["x86", "riscv"])
def test_backend_matches_interpreter(smoke_source, target):
    reference = run_module(compile_source(smoke_source))
    _, result = simulate(compile_source(smoke_source), target)
    assert result.output == reference.output
    assert result.return_value == reference.return_value


@pytest.mark.parametrize("target", ["x86", "riscv"])
def test_backend_matches_after_o2(smoke_source, target):
    from repro.baselines import STANDARD_LEVELS
    reference = run_module(compile_source(smoke_source))
    module = compile_source(smoke_source)
    PassManager().run(module, STANDARD_LEVELS["-O2"])
    _, result = simulate(module, target)
    assert result.output == reference.output
    assert result.return_value == reference.return_value


def test_code_size_positive_and_target_dependent(smoke_module):
    x86_program = compile_module(smoke_module, "x86")
    riscv_program = compile_module(smoke_module, "riscv")
    assert x86_program.code_size > 0
    assert riscv_program.code_size > 0
    assert x86_program.code_size != riscv_program.code_size


def test_optimization_shrinks_code(smoke_source):
    from repro.baselines import STANDARD_LEVELS
    unopt = compile_module(compile_source(smoke_source), "riscv")
    module = compile_source(smoke_source)
    PassManager().run(module, STANDARD_LEVELS["-Oz"])
    opt = compile_module(module, "riscv")
    assert opt.code_size < unopt.code_size


def test_instruction_addresses_are_laid_out(smoke_module):
    program = compile_module(smoke_module, "x86")
    last_end = 0
    for mfunc in program.functions.values():
        for instr in mfunc.instructions():
            assert instr.address == last_end
            assert instr.size > 0
            last_end = instr.address + instr.size
    assert program.code_size == last_end


def test_all_registers_physical_after_ra(smoke_module):
    program = compile_module(smoke_module, "riscv")
    for mfunc in program.functions.values():
        for instr in mfunc.instructions():
            for op in instr.operands:
                assert not isinstance(op, VirtReg), instr


def test_register_pressure_spills():
    # A function with many simultaneously-live values forces spills.
    n = 40
    exprs = "\n".join(f"  int v{i} = {i} * 3 + {i % 7};"
                      for i in range(n))
    total = " + ".join(f"v{i}" for i in range(n))
    src = f"int main() {{\n{exprs}\n  int t = {total};\n" \
          "  print_int(t);\n  return t % 251;\n}"
    module = compile_source(src)
    PassManager().run(module, ["mem2reg"])  # keep values in registers
    reference = run_module(compile_source(src))
    program, result = simulate(module, "riscv")
    assert result.output == reference.output
    # Spill slots show up as StackSlot operands.
    has_spill = any(
        isinstance(op, StackSlot)
        for mfunc in program.functions.values()
        for instr in mfunc.instructions()
        for op in instr.operands)
    main_fn = program.functions["main"]
    assert has_spill or main_fn.frame_slots > 0


def test_values_survive_calls():
    src = """
    int id(int x) { return x; }
    int main() {
      int a = 11; int b = 22; int c = 33;
      int r = id(5);
      return a + b + c + r;   // a,b,c live across the call
    }
    """
    module = compile_source(src)
    PassManager().run(module, ["mem2reg", "instcombine"])
    _, result = simulate(module, "riscv")
    assert result.return_value == 71


def test_recursion_uses_fresh_frames():
    src = """
    int fact(int n) {
      if (n == 0) return 1;
      int local[4];
      local[n % 4] = n;
      return local[n % 4] * fact(n - 1);
    }
    int main() { return fact(6) % 251; }
    """
    module = compile_source(src)
    reference = run_module(compile_source(src))
    _, result = simulate(module, "riscv")
    assert result.return_value == reference.return_value


def test_loop_vectorized_float_code_matches_reference():
    src = """
    float a[8];
    float b[8];
    int main() {
      for (int i = 0; i < 8; i++) { a[i] = i * 1.5; b[i] = i * 0.5; }
      float t = 0.0;
      for (int i = 0; i < 8; i++) { t = t + a[i] * b[i]; }
      print_float(t);
      return 0;
    }
    """
    module = compile_source(src)
    reference = run_module(compile_source(src))
    PassManager().run(module, ["mem2reg", "instcombine", "loop-vectorize",
                               "simplifycfg", "gvn"])
    assert "slp-enabled" in module.functions["main"].attributes
    _, result = simulate(module, "x86")
    assert result.output == reference.output
    _, riscv_result = simulate(module, "riscv")
    assert riscv_result.output == reference.output


def test_isa_encoding_sizes_differ():
    x86 = get_isa("x86")
    riscv = get_isa("riscv")
    from repro.backend.mir import MachineInstr
    mv = MachineInstr("mv", [PhysReg("a", "int", 0),
                             PhysReg("b", "int", 1)])
    assert x86.encode_size(mv) == 3
    assert riscv.encode_size(mv) == 2
    li_small = MachineInstr("li", [PhysReg("a", "int", 0), Imm(5)])
    li_large = MachineInstr("li", [PhysReg("a", "int", 0),
                                   Imm(1 << 40)])
    assert riscv.encode_size(li_small) < riscv.encode_size(li_large)


def test_unknown_target_rejected():
    with pytest.raises(KeyError):
        get_isa("sparc")
