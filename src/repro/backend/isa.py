"""Target ISA descriptions: register files, encoding sizes, and the
per-opcode latency/energy tables the simulator consumes.

Two targets mirror the paper's platforms:

- ``x86``: CISC-flavoured — 14 allocatable integer and 14 float registers,
  variable-length encoding, ``lea`` address arithmetic, ``cmov``, a wide
  out-of-order-approximated pipeline.
- ``riscv``: RISC-flavoured embedded core — 26 allocatable integer and 30
  float registers, fixed 4-byte encoding (2-byte compressed subset),
  no cmov (expands), scalar in-order pipeline.

Neither target has vector instructions: the ``slp-enabled`` attribute
that ``slp-vectorizer`` and ``loop-vectorize`` set never reaches the
machine code.
"""

from repro.backend.mir import Imm, PhysReg


class ISA:
    name = "<abstract>"
    issue_width = 1
    has_lea = False
    has_cmov = False
    # Cache geometry (cells per line, lines, ways) and penalties.
    dcache = {"line": 8, "sets": 64, "ways": 2,
              "hit": 2, "miss": 20}
    icache = {"line_bytes": 64, "lines": 128, "miss": 8}
    branch_mispredict = 8
    call_overhead = 2
    frequency_ghz = 1.0

    def __init__(self):
        self.int_regs = [PhysReg(n, "int", i)
                         for i, n in enumerate(self.int_reg_names)]
        self.float_regs = [PhysReg(n, "float", i)
                           for i, n in enumerate(self.float_reg_names)]
        self.arg_int = [r for r in self.int_regs
                        if r.name in self.arg_int_names]
        self.arg_float = [r for r in self.float_regs
                          if r.name in self.arg_float_names]
        self.ret_int = self.arg_int[0]
        self.ret_float = self.arg_float[0]
        # Registers the allocator may use freely (excludes arg registers,
        # which the simple ABI reserves for calls).
        reserved = set(self.arg_int_names) | set(self.arg_float_names)
        self.alloc_int = [r for r in self.int_regs
                          if r.name not in reserved]
        self.alloc_float = [r for r in self.float_regs
                            if r.name not in reserved]

    # -- encoding --------------------------------------------------------
    def encode_size(self, instr):
        raise NotImplementedError

    # -- timing/energy ------------------------------------------------------
    def latency(self, instr):
        return self.latency_table.get(instr.opcode, 1)

    def energy(self, instr):
        return self.energy_table.get(instr.opcode, self.base_energy)


class X86(ISA):
    """Intel-Core-i7-flavoured target (the paper's x86 platform)."""

    name = "x86"
    issue_width = 4
    has_lea = True
    has_cmov = True
    dcache = {"line": 8, "sets": 64, "ways": 8, "hit": 1, "miss": 16}
    icache = {"line_bytes": 64, "lines": 512, "miss": 6}
    branch_mispredict = 14
    call_overhead = 2
    frequency_ghz = 3.0

    int_reg_names = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi",
                     "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"]
    float_reg_names = [f"xmm{i}" for i in range(16)]
    arg_int_names = ["rdi", "rsi", "rdx", "rcx", "r8", "r9"]
    arg_float_names = ["xmm0", "xmm1", "xmm2", "xmm3",
                       "xmm4", "xmm5", "xmm6", "xmm7"]

    latency_table = {
        "mul": 3, "div": 22, "rem": 24,
        "fadd": 3, "fsub": 3, "fmul": 4, "fdiv": 14,
        "fsqrt": 15, "fexp": 40, "flog": 40, "fsin": 45, "fcos": 45,
        "fpow": 60, "cvtsi2sd": 4, "cvtsd2si": 4,
        "ld": 4, "cmov": 2,
    }
    # Energy in picojoules per operation (McPAT-like orders of magnitude
    # for a desktop core).
    base_energy = 45.0
    energy_table = {
        "mul": 95.0, "div": 400.0, "rem": 420.0,
        "fadd": 110.0, "fsub": 110.0, "fmul": 140.0, "fdiv": 450.0,
        "fsqrt": 500.0, "fexp": 1400.0, "flog": 1400.0,
        "fsin": 1600.0, "fcos": 1600.0, "fpow": 2100.0,
        "ld": 140.0, "st": 160.0, "call": 180.0, "ret": 90.0,
        "memset": 90.0, "memcpy": 120.0,
        "print": 600.0,
    }
    static_power_watts = 4.5

    def encode_size(self, instr):
        opcode = instr.opcode
        if opcode in ("jmp",):
            return 2
        if opcode in ("bcc", "fbcc"):
            return 5  # cmp (3) + jcc (2)
        if opcode in ("setcc", "fsetcc"):
            return 6  # cmp + setcc + movzx
        if opcode == "li":
            operand = instr.operands[1]
            if isinstance(operand, Imm):
                value = operand.value
                return 5 if -(1 << 31) <= value < (1 << 31) else 10
            return 7  # RIP-relative global address
        if opcode == "lfi":
            return 8
        if opcode in ("mv", "fneg"):
            return 3
        if opcode == "lea":
            return 4
        if opcode in ("ld", "st"):
            return 4
        if opcode in ("call",):
            return 5
        if opcode == "ret":
            return 1
        if opcode == "cmov":
            return 4
        if opcode in ("memset", "memcpy"):
            return 6  # rep stosq / rep movsq with setup
        if opcode == "print":
            return 5
        if opcode == "frame_alloc":
            return 4
        # ALU ops: reg/reg 3 bytes, reg/imm 4-7.
        if any(isinstance(op, Imm) for op in instr.operands):
            return 5
        return 3


class RiscV(ISA):
    """Embedded RISC-V-flavoured target (the paper's RISC-V platform,
    profiled via HIPERSIM+McPAT in the original)."""

    name = "riscv"
    issue_width = 1
    has_lea = False
    has_cmov = False
    dcache = {"line": 4, "sets": 32, "ways": 2, "hit": 1, "miss": 30}
    icache = {"line_bytes": 32, "lines": 64, "miss": 12}
    branch_mispredict = 3
    call_overhead = 1
    frequency_ghz = 0.1  # 100 MHz embedded part

    int_reg_names = ([f"x{i}" for i in range(5, 32)] +
                     [f"a{i}" for i in range(8)])
    float_reg_names = ([f"f{i}" for i in range(22)] +
                       [f"fa{i}" for i in range(8)])
    arg_int_names = [f"a{i}" for i in range(8)]
    arg_float_names = [f"fa{i}" for i in range(8)]

    latency_table = {
        "mul": 4, "div": 33, "rem": 34,
        "fadd": 4, "fsub": 4, "fmul": 5, "fdiv": 28,
        "fsqrt": 30, "fexp": 110, "flog": 110, "fsin": 130, "fcos": 130,
        "fpow": 180, "cvtsi2sd": 3, "cvtsd2si": 3,
        "ld": 2, "cmov": 3,
    }
    # Energy per op for a small in-order embedded core.
    base_energy = 6.0
    energy_table = {
        "mul": 14.0, "div": 60.0, "rem": 62.0,
        "fadd": 16.0, "fsub": 16.0, "fmul": 20.0, "fdiv": 70.0,
        "fsqrt": 80.0, "fexp": 210.0, "flog": 210.0,
        "fsin": 240.0, "fcos": 240.0, "fpow": 320.0,
        "ld": 18.0, "st": 20.0, "call": 20.0, "ret": 10.0,
        "memset": 12.0, "memcpy": 16.0, "print": 80.0,
    }
    static_power_watts = 0.035

    _COMPRESSED = frozenset({"mv", "jmp", "ret", "add", "li"})

    def encode_size(self, instr):
        opcode = instr.opcode
        if opcode == "li":
            operand = instr.operands[1]
            if not isinstance(operand, Imm):
                return 8  # lui+addi global address
            value = operand.value
            if -32 <= value < 32:
                return 2  # c.li
            if -(1 << 11) <= value < (1 << 11):
                return 4
            return 8  # lui+addi / constant pool
        if opcode == "lfi":
            return 8  # aupic+fld from constant pool
        if opcode in ("setcc", "fsetcc"):
            return 8  # slt + xori style pair
        if opcode == "cmov":
            return 12  # branch + moves
        if opcode in ("memset", "memcpy"):
            return 16  # tight runtime loop stub
        if opcode == "print":
            return 8
        if opcode in self._COMPRESSED:
            return 2
        if opcode == "lea":
            return 8  # shift+add pair
        if opcode in ("bcc", "fbcc"):
            pred = instr.pred or "eq"
            return 4 if pred in ("eq", "ne", "slt", "sge") else 8
        return 4


TARGETS = {"x86": X86, "riscv": RiscV}


def get_isa(name):
    try:
        return TARGETS[name]()
    except KeyError:
        raise KeyError(f"unknown target {name!r}; "
                       f"available: {sorted(TARGETS)}") from None
