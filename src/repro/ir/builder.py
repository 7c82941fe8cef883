"""IRBuilder: convenience layer used by the frontend and by passes that
synthesize new instructions."""

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from repro.ir.types import F64, I64
from repro.ir.values import ConstantInt


class IRBuilder:
    """Appends instructions at a movable insertion point."""

    def __init__(self, block=None):
        self.block = block
        self.index = None  # None means append at end

    def set_insert_point(self, block, index=None):
        self.block = block
        self.index = index

    def _insert(self, inst):
        if self.block is None:
            raise RuntimeError("IRBuilder has no insertion block")
        if not inst.name and not inst.type.is_void():
            inst.name = self.block.parent.next_name()
        if self.index is None:
            self.block.append(inst)
        else:
            self.block.insert(self.index, inst)
            self.index += 1
        return inst

    # -- constants ---------------------------------------------------------
    def const_int(self, value, type_=I64):
        return ConstantInt(type_, value)

    # -- arithmetic ----------------------------------------------------------
    def binop(self, opcode, lhs, rhs, name=""):
        return self._insert(BinaryInst(opcode, lhs, rhs, name))

    def add(self, lhs, rhs, name=""):
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs, rhs, name=""):
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs, rhs, name=""):
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs, rhs, name=""):
        return self.binop("sdiv", lhs, rhs, name)

    def srem(self, lhs, rhs, name=""):
        return self.binop("srem", lhs, rhs, name)

    def fadd(self, lhs, rhs, name=""):
        return self.binop("fadd", lhs, rhs, name)

    def fsub(self, lhs, rhs, name=""):
        return self.binop("fsub", lhs, rhs, name)

    def fmul(self, lhs, rhs, name=""):
        return self.binop("fmul", lhs, rhs, name)

    def fdiv(self, lhs, rhs, name=""):
        return self.binop("fdiv", lhs, rhs, name)

    def icmp(self, predicate, lhs, rhs, name=""):
        return self._insert(ICmpInst(predicate, lhs, rhs, name))

    def fcmp(self, predicate, lhs, rhs, name=""):
        return self._insert(FCmpInst(predicate, lhs, rhs, name))

    # -- memory ----------------------------------------------------------------
    def alloca(self, allocated_type, name=""):
        return self._insert(AllocaInst(allocated_type, name))

    def load(self, pointer, name=""):
        return self._insert(LoadInst(pointer, name))

    def store(self, value, pointer):
        return self._insert(StoreInst(value, pointer))

    def gep(self, base, index, name=""):
        return self._insert(GEPInst(base, index, name))

    # -- control flow ------------------------------------------------------------
    def br(self, target):
        return self._insert(BranchInst(target))

    def cond_br(self, condition, true_target, false_target):
        return self._insert(CondBranchInst(condition, true_target,
                                           false_target))

    def ret(self, value=None):
        return self._insert(RetInst(value))

    def unreachable(self):
        return self._insert(UnreachableInst())

    def phi(self, type_, name=""):
        return self._insert(PhiInst(type_, name))

    # -- misc -----------------------------------------------------------------
    def call(self, callee, args, name=""):
        return self._insert(CallInst(callee, args, name))

    def select(self, condition, true_value, false_value, name=""):
        return self._insert(SelectInst(condition, true_value, false_value,
                                       name))

    def cast(self, opcode, value, target_type, name=""):
        return self._insert(CastInst(opcode, value, target_type, name))

    def sitofp(self, value, name=""):
        return self.cast("sitofp", value, F64, name)

    def fptosi(self, value, type_=I64, name=""):
        return self.cast("fptosi", value, type_, name)
