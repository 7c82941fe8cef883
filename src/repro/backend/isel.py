"""Instruction selection: IR functions → MachineFunctions (virtual regs).

Selection is a straightforward tree-less lowering with a few target hooks:
``lea`` address folding and ``cmov`` on targets that have them, fused
compare-and-branch when an icmp's only user is the branch, and ABI
argument/return register copies around calls.  Phi nodes are resolved with
parallel copies on (split) edges.
"""

from repro.ir import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    ConstantFloat,
    ConstantInt,
    FCmpInst,
    GEPInst,
    GlobalVariable,
    ICmpInst,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UndefValue,
    UnreachableInst,
)
from repro.backend.mir import (
    FImm,
    GlobalRef,
    Imm,
    Label,
    MachineFunction,
    MachineInstr,
)

_BINOP_MAP = {
    "add": "add", "sub": "sub", "mul": "mul", "sdiv": "div", "srem": "rem",
    "and": "and", "or": "or", "xor": "xor",
    "shl": "shl", "ashr": "sar", "lshr": "shr",
    "fadd": "fadd", "fsub": "fsub", "fmul": "fmul", "fdiv": "fdiv",
}

_FLOAT_UNARY = {"sqrt": "fsqrt", "exp": "fexp", "log": "flog",
                "sin": "fsin", "cos": "fcos", "fabs": "fabs"}


class FunctionSelector:
    def __init__(self, function, isa, program):
        self.function = function
        self.isa = isa
        self.program = program
        self.mfunc = MachineFunction(function.name)
        self.value_map = {}
        self.block_map = {}
        self.current = None
        self._label_counter = 0
        # (id(pred block), id(succ block)) -> Label of the split edge.
        self._redirects = {}

    # -- helpers --------------------------------------------------------------
    def emit(self, opcode, operands=(), pred=None):
        return self.current.append(MachineInstr(opcode, operands, pred))

    def _cls(self, value):
        return "float" if value.type.is_float() else "int"

    def vreg_for(self, value):
        """Operand for an IR value, materializing constants."""
        vreg = self.value_map.get(id(value))
        if vreg is not None:
            return vreg
        return self._MATERIALIZE[type(value)](self, value)

    def _materialize_int(self, value):
        dst = self.mfunc.new_vreg("int")
        self.emit("li", [dst, Imm(value.value)])
        return dst

    def _materialize_float(self, value):
        dst = self.mfunc.new_vreg("float")
        self.emit("lfi", [dst, FImm(value.value)])
        return dst

    def _materialize_undef(self, value):
        dst = self.mfunc.new_vreg(self._cls(value))
        if value.type.is_float():
            self.emit("lfi", [dst, FImm(0.0)])
        else:
            self.emit("li", [dst, Imm(0)])
        return dst

    def _materialize_global(self, value):
        dst = self.mfunc.new_vreg("int")
        self.emit("li", [dst, GlobalRef(value.name)])
        return dst

    _MATERIALIZE = {
        ConstantInt: _materialize_int,
        ConstantFloat: _materialize_float,
        UndefValue: _materialize_undef,
        GlobalVariable: _materialize_global,
    }

    def label_of(self, ir_block):
        return Label(self.block_map[id(ir_block)].label)

    # -- driver -----------------------------------------------------------------
    def run(self):
        function = self.function
        for index, block in enumerate(function.blocks):
            label = f"{function.name}__{index}_{block.name}"
            self.block_map[id(block)] = self.mfunc.new_block(label)
        # Pre-create vregs for phis and for every instruction result used
        # across blocks (so forward references resolve).
        for block in function.blocks:
            for inst in block.instructions:
                if not inst.type.is_void():
                    self.value_map[id(inst)] = \
                        self.mfunc.new_vreg(self._cls(inst))
        # Entry: copy ABI argument registers into parameter vregs.
        self.current = self.block_map[id(function.entry)]
        int_args = iter(self.isa.arg_int)
        float_args = iter(self.isa.arg_float)
        for arg in function.args:
            vreg = self.mfunc.new_vreg(self._cls(arg))
            self.value_map[id(arg)] = vreg
            source = next(float_args if arg.type.is_float() else int_args)
            self.emit("mv", [vreg, source])
        # Select instructions block by block.
        for block in function.blocks:
            self.current = self.block_map[id(block)]
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    continue  # resolved on edges below
                if inst.is_terminator():
                    self._emit_phi_copies(block)
                    self._select_terminator(block, inst)
                else:
                    self._select(inst)
        return self.mfunc

    # -- phi resolution ------------------------------------------------------------
    def _emit_phi_copies(self, pred_block):
        """Emit parallel copies for phis in every successor, splitting
        critical edges with fresh MIR blocks."""
        term = pred_block.terminator()
        successors = term.successors()
        multiple_succs = isinstance(term, CondBranchInst)
        # dict.fromkeys: dedupe while keeping successor order (a raw
        # set iterates in id-hash order, which made edge-block layout —
        # and therefore icache timing — vary run to run).
        for succ in dict.fromkeys(successors):
            phis = succ.phis()
            if not phis:
                continue
            copies = []
            for phi in phis:
                incoming = phi.incoming_value_for(pred_block)
                copies.append((self.value_map[id(phi)], incoming))
            if multiple_succs:
                # Copies on a conditional edge must not execute on the
                # other path (they would clobber phi registers that are
                # still live there) and must not run before the branch
                # compare reads its operands — so every such edge gets a
                # dedicated block.
                self._label_counter += 1
                edge = self.mfunc.new_block(
                    f"{self.mfunc.name}__edge{self._label_counter}")
                saved = self.current
                self.current = edge
                self._emit_parallel_copies(copies)
                self.emit("jmp", [Label(self.block_map[id(succ)].label)])
                self.current = saved
                self._edge_redirect(term, pred_block, succ, edge)
            else:
                self._emit_parallel_copies(copies)

    def _edge_redirect(self, term, pred_block, succ, edge_mblock):
        # Record the redirect so _select_terminator emits the edge label.
        self._redirects[(id(pred_block), id(succ))] = \
            Label(edge_mblock.label)

    def _target_label(self, pred_block, succ):
        label = self._redirects.get((id(pred_block), id(succ)))
        return label if label is not None else self.label_of(succ)

    def _emit_parallel_copies(self, copies):
        """dst_i <- src_i simultaneously: stage through temporaries."""
        staged = []
        for dst, incoming in copies:
            src = self.vreg_for(incoming)
            tmp = self.mfunc.new_vreg(dst.cls)
            self.emit("mv", [tmp, src])
            staged.append((dst, tmp))
        for dst, tmp in staged:
            self.emit("mv", [dst, tmp])

    # -- terminators --------------------------------------------------------------
    def _select_terminator(self, block, term):
        if isinstance(term, BranchInst):
            self.emit("jmp", [self._target_label(block, term.target)])
            return
        if isinstance(term, CondBranchInst):
            true_label = self._target_label(block, term.true_target)
            false_label = self._target_label(block, term.false_target)
            condition = term.condition
            fused = self._fusable_compare(condition, term)
            if fused is not None:
                opcode, pred, lhs, rhs = fused
                self.emit(opcode, [lhs, rhs, true_label], pred=pred)
            else:
                cond = self.vreg_for(condition)
                zero = self.mfunc.new_vreg("int")
                self.emit("li", [zero, Imm(0)])
                self.emit("bcc", [cond, zero, true_label], pred="ne")
            self.emit("jmp", [false_label])
            return
        if isinstance(term, RetInst):
            if term.value is not None:
                value = self.vreg_for(term.value)
                target = (self.isa.ret_float
                          if term.value.type.is_float()
                          else self.isa.ret_int)
                self.emit("mv", [target, value])
            self.emit("ret", [])
            return
        if isinstance(term, UnreachableInst):
            self.emit("ret", [])
            return
        raise TypeError(f"unknown terminator {term!r}")

    def _fusable_compare(self, condition, term):
        """(opcode, pred, lhs, rhs) when the compare can fuse into the
        branch: single user, same block."""
        if not isinstance(condition, (ICmpInst, FCmpInst)):
            return None
        if condition.parent is not term.parent:
            return None
        if len(condition.users) != 1:
            return None
        lhs = self.vreg_for(condition.operands[0])
        rhs = self.vreg_for(condition.operands[1])
        if isinstance(condition, ICmpInst):
            return ("bcc", condition.predicate, lhs, rhs)
        return ("fbcc", condition.predicate, lhs, rhs)

    # -- ordinary instructions -------------------------------------------------------
    def _select(self, inst):
        selector = self._SELECTORS.get(type(inst))
        if selector is None:
            raise TypeError(f"cannot select {inst!r}")
        selector(self, inst)

    def _select_alloca(self, inst):
        size = inst.allocated_type.size_cells()
        offset = self.mfunc.frame_slots
        self.mfunc.frame_slots += size
        self.emit("frame_alloc",
                  [self.value_map[id(inst)], Imm(offset), Imm(size)])

    def _select_binary(self, inst):
        dst = self.value_map[id(inst)]
        lhs = self.vreg_for(inst.lhs)
        rhs = self.vreg_for(inst.rhs)
        self.emit(_BINOP_MAP[inst.opcode], [dst, lhs, rhs])

    def _select_compare(self, inst):
        users = inst.users
        term = inst.parent.terminator()
        if len(users) == 1 and users[0] is term and \
                isinstance(term, CondBranchInst) and \
                term.condition is inst:
            return  # fused into the branch
        dst = self.value_map[id(inst)]
        lhs = self.vreg_for(inst.operands[0])
        rhs = self.vreg_for(inst.operands[1])
        opcode = "setcc" if isinstance(inst, ICmpInst) else "fsetcc"
        self.emit(opcode, [dst, lhs, rhs], pred=inst.predicate)

    def _select_load(self, inst):
        address = self.vreg_for(inst.pointer)
        self.emit("ld", [self.value_map[id(inst)], address, Imm(0)])

    def _select_store(self, inst):
        address = self.vreg_for(inst.pointer)
        value = self.vreg_for(inst.value)
        self.emit("st", [value, address, Imm(0)])

    def _select_select(self, inst):
        dst = self.value_map[id(inst)]
        cond = self.vreg_for(inst.condition)
        tval = self.vreg_for(inst.true_value)
        fval = self.vreg_for(inst.false_value)
        self.emit("cmov", [dst, cond, tval, fval])

    def _select_gep(self, inst):
        dst = self.value_map[id(inst)]
        base = self.vreg_for(inst.base)
        scale = inst.type.pointee.size_cells()
        if isinstance(inst.index, ConstantInt):
            offset = inst.index.value * scale
            tmp = self.mfunc.new_vreg("int")
            self.emit("li", [tmp, Imm(offset)])
            self.emit("add", [dst, base, tmp])
            return
        index = self.vreg_for(inst.index)
        if self.isa.has_lea and scale in (1, 2, 4, 8):
            self.emit("lea", [dst, base, index, Imm(scale)])
            return
        if scale == 1:
            self.emit("add", [dst, base, index])
            return
        scaled = self.mfunc.new_vreg("int")
        if scale & (scale - 1) == 0:
            shift = self.mfunc.new_vreg("int")
            self.emit("li", [shift, Imm(scale.bit_length() - 1)])
            self.emit("shl", [scaled, index, shift])
        else:
            factor = self.mfunc.new_vreg("int")
            self.emit("li", [factor, Imm(scale)])
            self.emit("mul", [scaled, index, factor])
        self.emit("add", [dst, base, scaled])

    def _select_cast(self, inst):
        dst = self.value_map[id(inst)]
        src = self.vreg_for(inst.value)
        if inst.opcode == "sitofp":
            self.emit("cvtsi2sd", [dst, src])
        elif inst.opcode == "fptosi":
            self.emit("cvtsd2si", [dst, src])
        elif inst.opcode == "trunc" and inst.type.bits == 1:
            one = self.mfunc.new_vreg("int")
            self.emit("li", [one, Imm(1)])
            self.emit("and", [dst, src, one])
        else:  # zext / sext / wide trunc: cells are 64-bit, plain move
            self.emit("mv", [dst, src])

    def _select_call(self, inst):
        if inst.is_intrinsic():
            self._select_intrinsic(inst)
            return
        int_args = iter(self.isa.arg_int)
        float_args = iter(self.isa.arg_float)
        moves = []
        for arg in inst.args:
            value = self.vreg_for(arg)
            target = next(float_args if arg.type.is_float() else int_args)
            moves.append((target, value))
        for target, value in moves:
            self.emit("mv", [target, value])
        self.emit("call", [inst.callee.name])
        if not inst.type.is_void():
            source = (self.isa.ret_float if inst.type.is_float()
                      else self.isa.ret_int)
            self.emit("mv", [self.value_map[id(inst)], source])

    def _select_intrinsic(self, inst):
        name = inst.callee
        if name in _FLOAT_UNARY:
            src = self.vreg_for(inst.args[0])
            self.emit(_FLOAT_UNARY[name], [self.value_map[id(inst)], src])
            return
        if name == "pow":
            a = self.vreg_for(inst.args[0])
            b = self.vreg_for(inst.args[1])
            self.emit("fpow", [self.value_map[id(inst)], a, b])
            return
        if name in ("imin", "imax"):
            a = self.vreg_for(inst.args[0])
            b = self.vreg_for(inst.args[1])
            dst = self.value_map[id(inst)]
            cond = self.mfunc.new_vreg("int")
            pred = "slt" if name == "imin" else "sgt"
            self.emit("setcc", [cond, a, b], pred=pred)
            self.emit("cmov", [dst, cond, a, b])
            return
        if name == "iabs":
            a = self.vreg_for(inst.args[0])
            dst = self.value_map[id(inst)]
            zero = self.mfunc.new_vreg("int")
            self.emit("li", [zero, Imm(0)])
            neg = self.mfunc.new_vreg("int")
            self.emit("sub", [neg, zero, a])
            cond = self.mfunc.new_vreg("int")
            self.emit("setcc", [cond, a, zero], pred="slt")
            self.emit("cmov", [dst, cond, neg, a])
            return
        if name == "print_int":
            self.emit("print", ["i", self.vreg_for(inst.args[0])])
            return
        if name == "print_float":
            self.emit("print", ["f", self.vreg_for(inst.args[0])])
            return
        if name == "memset":
            dest = self.vreg_for(inst.args[0])
            value = self.vreg_for(inst.args[1])
            count = self.vreg_for(inst.args[2])
            self.emit("memset", [dest, value, count])
            return
        if name == "memcpy":
            dest = self.vreg_for(inst.args[0])
            src = self.vreg_for(inst.args[1])
            count = self.vreg_for(inst.args[2])
            self.emit("memcpy", [dest, src, count])
            return
        raise TypeError(f"cannot select intrinsic {name!r}")

    _SELECTORS = {
        AllocaInst: _select_alloca,
        BinaryInst: _select_binary,
        ICmpInst: _select_compare,
        FCmpInst: _select_compare,
        LoadInst: _select_load,
        StoreInst: _select_store,
        GEPInst: _select_gep,
        SelectInst: _select_select,
        CastInst: _select_cast,
        CallInst: _select_call,
    }


def select_function(function, isa, program):
    return FunctionSelector(function, isa, program).run()
