"""Deterministic work budget of register allocation (counts only, no
timing): every allocated function of a -O2 corpus compile decodes each
instruction's operand roles at most once, and builds its label→block
map at most once (each build reads every block's label once)."""

import pytest

from repro.backend import codegen, compile_module, regalloc
from repro.backend.mir import MachineBlock
from repro.baselines import STANDARD_LEVELS
from repro.passes import PassManager
from repro.workloads import load_suite


class _CountingBlock(MachineBlock):
    """A MachineBlock that counts reads of its label."""

    reads = 0

    @property
    def label(self):
        _CountingBlock.reads += 1
        return self.__dict__["label"]

    @label.setter
    def label(self, value):
        self.__dict__["label"] = value


@pytest.fixture(scope="module")
def allocation_records():
    """[(function, instructions, blocks, decodes, label reads)] for every
    function allocated in a -O2 compile of the corpus on both targets."""
    records = []
    decodes = [0]
    decode = regalloc._instr_vregs
    allocate = codegen.allocate_registers

    def counting_decode(instr):
        decodes[0] += 1
        return decode(instr)

    def counting_allocate(mfunc, isa):
        decodes[0] = 0
        _CountingBlock.reads = 0
        instructions = mfunc.instruction_count()
        for block in mfunc.blocks:
            block.__class__ = _CountingBlock
        try:
            return allocate(mfunc, isa)
        finally:
            for block in mfunc.blocks:
                block.__class__ = MachineBlock
            records.append((mfunc.name, instructions, len(mfunc.blocks),
                            decodes[0], _CountingBlock.reads))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regalloc, "_instr_vregs", counting_decode)
        patch.setattr(codegen, "allocate_registers", counting_allocate)
        for suite in ("beebs", "parsec", "multi", "earlyexit"):
            for workload in load_suite(suite):
                module = workload.compile()
                PassManager().run(module, STANDARD_LEVELS["-O2"])
                for target in ("x86", "riscv"):
                    compile_module(module, target)
    assert records
    return records


def test_operand_roles_decoded_at_most_once_per_instruction(
        allocation_records):
    over = [(name, instructions, decodes)
            for name, instructions, _, decodes, _ in allocation_records
            if decodes > instructions]
    assert not over, over[:5]


def test_label_map_built_at_most_once_per_function(allocation_records):
    over = [(name, blocks, reads)
            for name, _, blocks, _, reads in allocation_records
            if reads > blocks]
    assert not over, over[:5]
