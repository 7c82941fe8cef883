"""The backend's MachinePrograms are bit-identical to the golden digests.

See ``codegen_golden.py`` for what a digest covers and for the one rule
about regenerating ``codegen_golden.json``: only when the IR that
reaches the backend changes (a pass or the frontend), never in a
backend-only change.
"""

import pytest

from codegen_golden import (
    SLP_KEY,
    SLP_SOURCE,
    compile_digests,
    corpus,
    load_golden,
)
from repro.backend import compile_module
from repro.baselines import STANDARD_LEVELS
from repro.lang import compile_source
from repro.passes import PassManager

GOLDEN = load_golden()
CORPUS = corpus()


def test_golden_covers_every_program():
    assert sorted(GOLDEN) == sorted(key for key, _ in CORPUS)


@pytest.mark.parametrize("key, build", CORPUS,
                         ids=[key for key, _ in CORPUS])
def test_machine_program_matches_golden_digest(key, build):
    assert compile_digests(build) == GOLDEN[key]


def test_slp_program_fuses_a_vop_at_o3():
    module = compile_source(SLP_SOURCE)
    PassManager().run(module, STANDARD_LEVELS["-O3"])
    program = compile_module(module, "x86")
    opcodes = [instr.opcode for mfunc in program.functions.values()
               for instr in mfunc.instructions()]
    assert "vop" in opcodes, SLP_KEY
