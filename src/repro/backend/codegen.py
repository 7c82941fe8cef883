"""Code generation driver: IR module → MachineProgram.

Steps: instruction selection per function, register allocation, global
data layout, and code layout/encoding (assigning every instruction an
address and a byte size — the paper's "code size" metric).
"""

from repro.backend.isa import get_isa
from repro.backend.isel import select_function
from repro.backend.mir import MachineProgram
from repro.backend.regalloc import allocate_registers

_GLOBAL_BASE = 0x1000


def compile_module(module, target):
    """Lower an IR module for ``target`` ('x86' or 'riscv')."""
    isa = get_isa(target) if isinstance(target, str) else target
    program = MachineProgram(module.name, isa.name)
    _layout_globals(module, program)
    for function in module.defined_functions():
        mfunc = select_function(function, isa, program)
        allocate_registers(mfunc, isa)
        program.add_function(mfunc)
    _layout_code(program, isa)
    return program


def _layout_globals(module, program):
    address = _GLOBAL_BASE
    for gv in module.globals.values():
        cells = gv.value_type.size_cells()
        program.global_layout[gv.name] = (address, cells)
        init = gv.initializer
        if init is None:
            values = [0] * cells
        elif isinstance(init, (list, tuple)):
            values = list(init) + [0] * (cells - len(init))
        else:
            values = [init]
        for offset, value in enumerate(values):
            program.global_init[address + offset] = value
        address += cells
    program.data_cells = address - _GLOBAL_BASE


def _layout_code(program, isa):
    address = 0
    for mfunc in program.functions.values():
        for block in mfunc.blocks:
            for instr in block.instructions:
                instr.address = address
                instr.size = isa.encode_size(instr)
                address += instr.size
    program.code_size = address


def code_size(module, target):
    """Convenience: compile and return the encoded code size in bytes."""
    return compile_module(module, target).code_size
