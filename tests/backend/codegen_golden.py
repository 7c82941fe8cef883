"""Golden digests of the backend's MachinePrograms.

A digest hashes, per function, its name, ``frame_slots`` and block
labels, and every instruction's opcode, ``pred``, operands, ``size`` and
``address``; then the program's ``code_size``.  Each instruction line
also carries a constant ``[-]`` field (formerly vector lanes), which
keeps the recorded digests valid.  The
digests in ``codegen_golden.json`` cover the workload corpus (BEEBS,
PARSEC, ``multi`` and ``earlyexit``) at -O0, -O2 and -O3 (which brings
in ``slp-vectorizer``) on both targets.

A backend-only change (isel, register allocation, layout, encoding)
must leave every digest unchanged.  Regenerate the file only
when the IR that reaches the backend changes (a pass or the frontend),
never in a backend-only change::

    PYTHONPATH=src python tests/backend/codegen_golden.py
"""

import hashlib
import json
import os

from repro.backend import compile_module
from repro.baselines import STANDARD_LEVELS
from repro.passes import PassManager
from repro.workloads import load_suite

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "codegen_golden.json")
SUITES = ("beebs", "parsec", "multi", "earlyexit")
LEVELS = ("-O0", "-O2", "-O3")
TARGETS = ("x86", "riscv")


def _operand(op):
    return f"{type(op).__name__}:{op!r}"


def program_digest(program):
    """sha256 over every observable field of a laid-out MachineProgram."""
    lines = []
    for mfunc in program.functions.values():
        lines.append(f"F {mfunc.name} {mfunc.frame_slots}")
        for block in mfunc.blocks:
            lines.append(f"B {block.label}")
            for instr in block.instructions:
                operands = " ".join(_operand(op) for op in instr.operands)
                lines.append(f"I {instr.opcode} {instr.pred} [{operands}] "
                             f"[-] {instr.size} {instr.address}")
    lines.append(f"S {program.code_size}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def corpus():
    """[(key, build)] for every program the digests cover; ``build()``
    returns a fresh IR module."""
    return [(f"{suite}/{workload.name}", workload.compile)
            for suite in SUITES for workload in load_suite(suite)]


def optimized_modules(build):
    """[(level, module)]: the program's IR after each covered level."""
    modules = []
    for level in LEVELS:
        module = build()
        PassManager().run(module, STANDARD_LEVELS[level])
        modules.append((level, module))
    return modules


def compile_digests(build):
    """{"<level> <target>": digest} for one program."""
    return {f"{level} {target}": program_digest(
                compile_module(module, target))
            for level, module in optimized_modules(build)
            for target in TARGETS}


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def main():
    golden = {key: compile_digests(build) for key, build in corpus()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} programs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
