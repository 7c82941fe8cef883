"""Machine IR: the target-level program representation.

Instruction selection lowers IR functions into ``MachineFunction``s of
``MachineInstr``s over virtual registers; register allocation rewrites them
to physical registers and stack slots; the ISA encoders assign byte sizes;
the simulator executes them directly.
"""


class VirtReg:
    """A virtual register (int or float class)."""

    __slots__ = ("vid", "cls")

    def __init__(self, vid, cls):
        self.vid = vid
        self.cls = cls  # 'int' | 'float'

    def __repr__(self):
        prefix = "v" if self.cls == "int" else "w"
        return f"%{prefix}{self.vid}"


class PhysReg:
    __slots__ = ("name", "cls", "index")

    def __init__(self, name, cls, index):
        self.name = name
        self.cls = cls
        self.index = index

    def __repr__(self):
        return self.name


class Imm:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = int(value)

    def __repr__(self):
        return f"#{self.value}"


class FImm:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def __repr__(self):
        return f"#{self.value!r}"


class StackSlot:
    """A spill / local slot, indexed from the frame base (in cells)."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def __repr__(self):
        return f"[sp+{self.index}]"


class GlobalRef:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"@{self.name}"


class Label:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f".{self.name}"


# Opcode vocabulary.  Operand shapes are documented per opcode:
#   li    dst, Imm            load integer immediate
#   lfi   dst, FImm           load float immediate
#   mv    dst, src            register copy (int or float)
#   lea   dst, base, index, scale      address arithmetic (1 instr on x86)
#   <bin> dst, a, b           add sub mul div rem and or xor shl sar shr
#   <fbin> dst, a, b          fadd fsub fmul fdiv
#   fun   dst, a              fsqrt fexp flog fsin fcos fabs cvtsi2sd
#                             cvtsd2si fneg
#   fpow  dst, a, b
#   setcc pred, dst, a, b     dst = (a pred b) as 0/1
#   fsetcc pred, dst, a, b
#   bcc   pred, a, b, Label   conditional branch
#   fbcc  pred, a, b, Label
#   cmov  dst, cond, a, b     dst = cond ? a : b
#   ld    dst, base, off      load cell at base+off (off Imm or reg)
#   st    val, base, off      store
#   jmp   Label
#   call  function_name       (args pre-placed in ABI registers)
#   ret
#   print kind, src           kind in {'i','f'}
#   memset dst, val, n        block fill (n cells)
#   memcpy dst, src, n        block copy
#   frame_alloc dst, size     dst = address of a fresh stack area (alloca)
# Every opcode is scalar: there is no vector or multi-lane instruction.

TERMINATORS = frozenset({"jmp", "bcc", "fbcc", "ret"})


class MachineInstr:
    __slots__ = ("opcode", "operands", "pred", "address", "size")

    def __init__(self, opcode, operands=(), pred=None):
        self.opcode = opcode
        self.operands = list(operands)
        self.pred = pred        # predicate for setcc/bcc families
        self.address = 0        # byte address after layout
        self.size = 0           # encoded size in bytes

    def is_terminator(self):
        return self.opcode in TERMINATORS

    def __repr__(self):
        pred = f".{self.pred}" if self.pred else ""
        ops = ", ".join(repr(o) for o in self.operands)
        return f"{self.opcode}{pred} {ops}".strip()


class MachineBlock:
    def __init__(self, label):
        self.label = label
        self.instructions = []

    def append(self, instr):
        self.instructions.append(instr)
        return instr

    def __repr__(self):
        return f"<MachineBlock {self.label} ({len(self.instructions)})>"


class MachineFunction:
    def __init__(self, name):
        self.name = name
        self.blocks = []
        self.frame_slots = 0      # locals + spills, in cells
        self._next_vreg = 0

    def new_block(self, label):
        block = MachineBlock(label)
        self.blocks.append(block)
        return block

    def new_vreg(self, cls):
        self._next_vreg += 1
        return VirtReg(self._next_vreg, cls)

    def new_slot(self):
        slot = StackSlot(self.frame_slots)
        self.frame_slots += 1
        return slot

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self):
        return sum(len(b.instructions) for b in self.blocks)

    def __repr__(self):
        return f"<MachineFunction @{self.name} ({len(self.blocks)} blocks)>"


class MachineProgram:
    """A fully lowered module: functions plus global data layout."""

    def __init__(self, name, target_name):
        self.name = name
        self.target_name = target_name
        self.functions = {}
        self.global_layout = {}   # name -> (address, cells)
        self.global_init = {}     # address -> initial value
        self.data_cells = 0
        self.code_size = 0        # bytes, set by the encoder

    def add_function(self, mfunc):
        self.functions[mfunc.name] = mfunc

    def instruction_histogram(self):
        """Static opcode counts (the paper's platform-specific features)."""
        histogram = {}
        for mfunc in self.functions.values():
            for instr in mfunc.instructions():
                histogram[instr.opcode] = histogram.get(instr.opcode, 0) + 1
        return histogram

    def __repr__(self):
        return (f"<MachineProgram {self.name} [{self.target_name}] "
                f"{len(self.functions)} funcs, {self.code_size}B>")
