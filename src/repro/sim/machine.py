"""Reference machine-code simulator.

Executes a :class:`MachineProgram` over a cell-addressed memory, producing
the same observable behaviour as the IR interpreter (the test suite checks
this differentially), while the timing model (:mod:`repro.sim.pipeline`)
and energy model (:mod:`repro.sim.energy`) observe the instruction stream.
Profiling runs the pre-decoded :class:`repro.sim.tape.TapeSimulator`;
this one-instruction-at-a-time simulator is the oracle the tests and
benchmarks check the tape against.
"""

from repro.errors import SimulationError
from repro.backend.mir import (
    FImm,
    GlobalRef,
    Imm,
    PhysReg,
    StackSlot,
)
from repro.ir import arith
from repro.ir.intrinsics import evaluate_float_intrinsic

_STACK_BASE = 0x4000000

#: Instruction budget of one simulated run (both simulators, every
#: platform and evaluation path); exhausting it is a SimulationError.
DEFAULT_FUEL = 20_000_000


def _wrap(value):
    return arith.wrap64(int(value))


class MachineState:
    """Architectural state: registers, memory, stack, output."""

    def __init__(self, program):
        self.program = program
        self.registers = {}
        self.memory = dict(program.global_init)
        self.sp = _STACK_BASE
        self.output = []

    def read(self, operand, frame_base):
        if isinstance(operand, PhysReg):
            return self.registers.get(operand.name,
                                      0.0 if operand.cls == "float" else 0)
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, FImm):
            return operand.value
        if isinstance(operand, GlobalRef):
            return self.program.global_layout[operand.name][0]
        if isinstance(operand, StackSlot):
            return frame_base + operand.index
        raise SimulationError(f"cannot read operand {operand!r}")

    def write(self, reg, value):
        self.registers[reg.name] = value

    def load(self, address):
        if address <= 0:
            raise SimulationError(f"load from invalid address {address}")
        return self.memory.get(address, 0)

    def store(self, address, value):
        if address <= 0:
            raise SimulationError(f"store to invalid address {address}")
        self.memory[address] = value


class Simulator:
    """Functional + micro-architectural simulation of a MachineProgram."""

    def __init__(self, program, isa, timing=None, fuel=DEFAULT_FUEL):
        self.program = program
        self.isa = isa
        self.state = MachineState(program)
        self.timing = timing  # PipelineModel or None (functional only)
        self.fuel = fuel
        self.instructions_executed = 0
        self.dynamic_histogram = {}
        # label -> (function, block_index)
        self.labels = {}
        for mfunc in program.functions.values():
            for index, block in enumerate(mfunc.blocks):
                self.labels[block.label] = (mfunc, index)

    # -- entry --------------------------------------------------------------
    def run(self, function_name="main"):
        mfunc = self.program.functions[function_name]
        self._run_function(mfunc, depth=0)
        # The return value sits in the integer return register (all
        # workloads' main returns int).
        value = self.state.registers.get(self.isa.ret_int.name, 0)
        return MachineResult(_wrap(value), self.state.output,
                             self.instructions_executed,
                             self.dynamic_histogram, self.timing)

    # -- execution ---------------------------------------------------------------
    def _run_function(self, mfunc, depth):
        if depth > 400:
            raise SimulationError("call stack overflow")
        state = self.state
        state.sp -= mfunc.frame_slots
        frame_base = state.sp
        try:
            self._run_blocks(mfunc, frame_base, depth)
        finally:
            # Restore unconditionally: a SimulationError raised in a
            # callee must not leave the stack pointer shifted for the
            # caller's (or a reused Simulator's) next frame.
            state.sp = frame_base + mfunc.frame_slots

    def _run_blocks(self, mfunc, frame_base, depth):
        state = self.state
        block = mfunc.blocks[0]
        index = 0
        while True:
            if index >= len(block.instructions):
                raise SimulationError(
                    f"fell off block {block.label}")
            instr = block.instructions[index]
            self.instructions_executed += 1
            histogram = self.dynamic_histogram
            histogram[instr.opcode] = histogram.get(instr.opcode, 0) + 1
            if self.instructions_executed > self.fuel:
                raise SimulationError("simulator fuel exhausted")
            opcode = instr.opcode
            ops = instr.operands
            timing = self.timing

            if opcode == "jmp":
                if timing:
                    timing.on_jump(instr)
                mfunc2, bindex = self.labels[ops[0].name]
                block = mfunc2.blocks[bindex]
                index = 0
                continue
            if opcode in ("bcc", "fbcc"):
                a = state.read(ops[0], frame_base)
                b = state.read(ops[1], frame_base)
                taken = self._evaluate_predicate(opcode, instr.pred, a, b)
                if timing:
                    timing.on_branch(instr, taken)
                if taken:
                    mfunc2, bindex = self.labels[ops[2].name]
                    block = mfunc2.blocks[bindex]
                    index = 0
                    continue
                index += 1
                continue
            if opcode == "ret":
                if timing:
                    timing.on_simple(instr)
                break
            if opcode == "call":
                if timing:
                    timing.on_call(instr)
                callee = self.program.functions[ops[0]]
                self._run_function(callee, depth + 1)
                index += 1
                continue

            self._execute(instr, opcode, ops, state, frame_base, timing)
            index += 1

    def _execute(self, instr, opcode, ops, state, frame_base, timing):
        if opcode == "li":
            value = state.read(ops[1], frame_base)
            state.write(ops[0], value)
        elif opcode == "lfi":
            state.write(ops[0], ops[1].value)
        elif opcode == "mv":
            state.write(ops[0], state.read(ops[1], frame_base))
        elif opcode == "frame_alloc":
            state.write(ops[0], frame_base + ops[1].value)
        elif opcode == "lea":
            base = state.read(ops[1], frame_base)
            index_value = state.read(ops[2], frame_base)
            state.write(ops[0], base + index_value * ops[3].value)
        elif opcode in _INT_BINOPS:
            a = state.read(ops[1], frame_base)
            b = state.read(ops[2], frame_base)
            state.write(ops[0], _INT_BINOPS[opcode](a, b))
        elif opcode in _FLOAT_BINOPS:
            a = state.read(ops[1], frame_base)
            b = state.read(ops[2], frame_base)
            state.write(ops[0], _FLOAT_BINOPS[opcode](a, b))
        elif opcode in ("setcc", "fsetcc"):
            a = state.read(ops[1], frame_base)
            b = state.read(ops[2], frame_base)
            state.write(ops[0], int(self._evaluate_predicate(
                "bcc" if opcode == "setcc" else "fbcc",
                instr.pred, a, b)))
        elif opcode == "cmov":
            cond = state.read(ops[1], frame_base)
            a = state.read(ops[2], frame_base)
            b = state.read(ops[3], frame_base)
            state.write(ops[0], a if cond else b)
        elif opcode == "ld":
            base = state.read(ops[1], frame_base)
            offset = state.read(ops[2], frame_base) \
                if not isinstance(ops[2], Imm) else ops[2].value
            address = base + offset
            if timing:
                timing.on_load(instr, address)
            state.write(ops[0], state.load(address))
            return
        elif opcode == "st":
            value = state.read(ops[0], frame_base)
            base = state.read(ops[1], frame_base)
            offset = state.read(ops[2], frame_base) \
                if not isinstance(ops[2], Imm) else ops[2].value
            address = base + offset
            if timing:
                timing.on_store(instr, address)
            state.store(address, value)
            return
        elif opcode in ("fsqrt", "fexp", "flog", "fsin", "fcos", "fabs"):
            value = state.read(ops[1], frame_base)
            name = {"fsqrt": "sqrt", "fexp": "exp", "flog": "log",
                    "fsin": "sin", "fcos": "cos", "fabs": "fabs"}[opcode]
            state.write(ops[0], evaluate_float_intrinsic(name, [value]))
        elif opcode == "fpow":
            a = state.read(ops[1], frame_base)
            b = state.read(ops[2], frame_base)
            state.write(ops[0], evaluate_float_intrinsic("pow", [a, b]))
        elif opcode == "cvtsi2sd":
            state.write(ops[0], float(state.read(ops[1], frame_base)))
        elif opcode == "cvtsd2si":
            state.write(ops[0],
                        arith.fptosi(state.read(ops[1], frame_base)))
        elif opcode == "fneg":
            state.write(ops[0], -state.read(ops[1], frame_base))
        elif opcode == "print":
            value = state.read(ops[1], frame_base)
            if ops[0] == "i":
                state.output.append(("i", _wrap(value)))
            else:
                state.output.append(("f", arith.round_float_output(value)))
        elif opcode == "memset":
            dest = state.read(ops[0], frame_base)
            value = state.read(ops[1], frame_base)
            count = state.read(ops[2], frame_base)
            for i in range(int(count)):
                state.store(dest + i, value)
            if timing:
                timing.on_block_op(instr, int(count))
            return
        elif opcode == "memcpy":
            dest = state.read(ops[0], frame_base)
            src = state.read(ops[1], frame_base)
            count = state.read(ops[2], frame_base)
            values = [state.load(src + i) for i in range(int(count))]
            for i, value in enumerate(values):
                state.store(dest + i, value)
            if timing:
                timing.on_block_op(instr, int(count))
            return
        else:
            raise SimulationError(f"unknown opcode {opcode!r}")
        if timing:
            timing.on_simple(instr)

    @staticmethod
    def _evaluate_predicate(opcode, pred, a, b):
        if opcode == "fbcc":
            return arith.fcmp(pred, a, b)
        return arith.icmp(pred, a, b)


# Machine opcodes map onto the shared exact-64-bit semantics in
# repro.ir.arith; div/rem in particular use exact integer truncation.
_INT_BINOPS = {
    "add": lambda a, b: _wrap(a + b),
    "sub": lambda a, b: _wrap(a - b),
    "mul": lambda a, b: _wrap(a * b),
    "div": arith.sdiv64,
    "rem": arith.srem64,
    "and": lambda a, b: _wrap(a & b),
    "or": lambda a, b: _wrap(a | b),
    "xor": lambda a, b: _wrap(a ^ b),
    "shl": lambda a, b: _wrap(a << (b & 63)),
    "sar": lambda a, b: _wrap(a >> (b & 63)),
    "shr": lambda a, b: _wrap((a & arith.MASK64) >> (b & 63)),
}

_FLOAT_BINOPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": arith.fdiv,
}


class MachineResult:
    """Functional + micro-architectural outcome of a simulation."""

    def __init__(self, return_value, output, instructions, histogram,
                 timing):
        self.return_value = return_value
        self.output = tuple(output)
        self.instructions_executed = instructions
        self.dynamic_histogram = dict(histogram)
        self.timing = timing

    def observable(self):
        return self.output

    @property
    def cycles(self):
        return 0 if self.timing is None else self.timing.cycles()

    def __repr__(self):
        return (f"<MachineResult |out|={len(self.output)} "
                f"instrs={self.instructions_executed} "
                f"cycles={self.cycles}>")
