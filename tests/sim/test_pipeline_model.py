"""Focused unit tests for the pipeline timing model's mechanisms."""

import pytest

from repro.backend.isa import get_isa
from repro.backend.mir import Imm, MachineInstr, PhysReg
from repro.sim.pipeline import PipelineModel


def _reg(name, index=0):
    return PhysReg(name, "int", index)


def _instr(opcode, operands, address=0):
    instr = MachineInstr(opcode, operands)
    instr.address = address
    instr.size = 4
    return instr


@pytest.fixture
def riscv_model():
    return PipelineModel(get_isa("riscv"))


@pytest.fixture
def x86_model():
    return PipelineModel(get_isa("x86"))


def test_scalar_issue_rate(riscv_model):
    # Independent single-cycle ops issue one per cycle on a scalar core.
    for i in range(10):
        riscv_model.on_simple(_instr("add", [_reg(f"d{i}"), _reg("a"),
                                             _reg("b")], address=i * 4))
    # 10 issue cycles plus at most two icache-line fill penalties (40
    # bytes of code straddle two 32-byte lines).
    miss = riscv_model.isa.icache["miss"]
    assert 10 <= riscv_model.cycles() <= 10 + 2 * miss


def test_superscalar_issues_faster(x86_model, riscv_model):
    for model in (x86_model, riscv_model):
        for i in range(40):
            model.on_simple(_instr("add", [_reg(f"d{i}"), _reg("a"),
                                           _reg("b")], address=i * 4))
    assert x86_model.cycles() < riscv_model.cycles()


def _mul_then_add(model, *add_sources):
    """Issue ``x = a * b`` then ``y = add_sources``; returns cycles."""
    model.on_simple(_instr("mul", [_reg("x"), _reg("a"), _reg("b")],
                           address=0))
    model.on_simple(_instr("add", [_reg("y"), *add_sources], address=4))
    return model.cycles()


def test_dependency_stall(riscv_model):
    independent = _mul_then_add(PipelineModel(get_isa("riscv")),
                                _reg("c"), _reg("d"))
    # The add waits for mul's 4-cycle latency, so it ends later than an
    # add of independent operands.
    assert _mul_then_add(riscv_model, _reg("x"), _reg("x")) > independent


def test_independent_ops_do_not_stall(riscv_model):
    # One issue cycle each, plus the fill of the one I-cache line the
    # two instructions share.
    miss = riscv_model.isa.icache["miss"]
    assert _mul_then_add(riscv_model, _reg("c"), _reg("d")) == 2 + miss


def test_branch_mispredict_penalty(riscv_model):
    branch = _instr("bcc", [_reg("a"), _reg("b")], address=64)
    # Alternate outcomes: the 2-bit predictor stays wrong often.
    for i in range(20):
        riscv_model.on_branch(branch, taken=bool(i % 2))
    assert riscv_model.mispredicts >= 8


def test_well_predicted_branch_cheap():
    model = PipelineModel(get_isa("riscv"))
    branch = _instr("bcc", [_reg("a"), _reg("b")], address=64)
    for _ in range(50):
        model.on_branch(branch, taken=True)
    assert model.mispredicts <= 1


def test_load_miss_latency(riscv_model):
    load = _instr("ld", [_reg("x"), _reg("p"), Imm(0)], address=0)
    use = _instr("add", [_reg("y"), _reg("x"), _reg("x")], address=4)
    riscv_model.on_load(load, address=0x8000)   # cold: miss
    riscv_model.on_simple(use)
    miss_cycles = riscv_model.cycles()

    warm = PipelineModel(get_isa("riscv"))
    warm.on_load(load, address=0x8000)
    warm.on_load(load, address=0x8000)          # second access hits
    warm.on_simple(use)
    assert warm.dcache.hits == 1


def test_block_op_streams(riscv_model):
    memset = _instr("memset", [_reg("d"), _reg("v"), _reg("n")],
                    address=0)
    riscv_model.on_block_op(memset, count=100)
    # ~2 cycles per cell on the embedded target.
    assert riscv_model.cycles() >= 200


def test_seconds_uses_frequency():
    x86 = PipelineModel(get_isa("x86"))
    riscv = PipelineModel(get_isa("riscv"))
    for model in (x86, riscv):
        for i in range(10):
            model.on_simple(_instr("add", [_reg("d"), _reg("a"),
                                           _reg("b")], address=i * 4))
    # 3 GHz vs 100 MHz: the same cycle count is 30x faster in seconds.
    assert x86.seconds() < riscv.seconds()
