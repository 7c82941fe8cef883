"""Deterministic work budget of module cloning (counts only, no timing).

On every -O2 corpus state, ``clone_module`` runs no instruction
constructor (every copy is a field copy), and its second phase touches
only the copies that hold a forward reference.  A copy holds one when
it is a phi (its incoming entries are filled once every block has its
copy) or when an operand is defined later in block order.  "Touching"
is counted as reading the copy's operand list, the one field the second
phase rewrites.
"""

import pytest

from repro.baselines import STANDARD_LEVELS
from repro.ir import Instruction, PhiInst
from repro.passes import PassManager
from repro.passes.cloning import clone_module
from repro.workloads import load_suite

SUITES = ("beebs", "parsec", "multi", "earlyexit")


def _o2_states():
    states = []
    for suite in SUITES:
        for workload in load_suite(suite):
            module = workload.compile()
            PassManager().run(module, STANDARD_LEVELS["-O2"])
            states.append((f"{suite}/{workload.name}", module))
    return states


def _instructions(module):
    return [inst for function in module.functions.values()
            for block in function.blocks for inst in block.instructions]


def _forward_reference_holders(module):
    """Positions (in :func:`_instructions` order) of the instructions
    whose copy cannot be finished in block order."""
    holders = set()
    position = 0
    for function in module.functions.values():
        seen = set()
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    if inst.operands:
                        holders.add(position)
                elif any(isinstance(op, Instruction) and id(op) not in seen
                         for op in inst.operands):
                    holders.add(position)
                seen.add(id(inst))
                position += 1
    return holders


@pytest.fixture(scope="module")
def clone_records():
    """[(program, state, clone, constructor calls, operand-list reads
    by object id)] for every -O2 corpus state."""
    records = []
    with pytest.MonkeyPatch.context() as patch:
        states = _o2_states()
        constructed = [0]
        reads = {}
        init = Instruction.__init__

        def counting_init(self, *args, **kwargs):
            constructed[0] += 1
            init(self, *args, **kwargs)

        def read_operands(self):
            reads[id(self)] = reads.get(id(self), 0) + 1
            return self.__dict__["_operands"]

        def write_operands(self, value):
            self.__dict__["_operands"] = value

        patch.setattr(Instruction, "__init__", counting_init)
        # A data descriptor on the class sees every read of the field.
        patch.setattr(Instruction, "_operands",
                      property(read_operands, write_operands),
                      raising=False)
        for key, state in states:
            constructed[0] = 0
            reads.clear()
            clone = clone_module(state)
            records.append((key, state, clone, constructed[0],
                            dict(reads)))
    assert len(records) == 41
    return records


def test_clone_module_runs_no_instruction_constructor(clone_records):
    built = [(key, count) for key, _, _, count, _ in clone_records
             if count]
    assert not built, built[:5]


def test_second_phase_touches_only_forward_reference_holders(
        clone_records):
    total = 0
    for key, state, clone, _, reads in clone_records:
        copies = _instructions(clone)
        touched = {position for position, copy in enumerate(copies)
                   if reads.get(id(copy))}
        holders = _forward_reference_holders(state)
        assert touched == holders, (key, sorted(touched - holders)[:5],
                                    sorted(holders - touched)[:5])
        total += len(holders)
    assert total > 0
