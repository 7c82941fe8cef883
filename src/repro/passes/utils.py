"""Shared analysis and rewriting utilities used across passes.

Includes: constant folding, trivial dead-code collection, a lightweight
alias analysis (identified-object based), and CFG edit helpers.
"""

import struct

from repro.errors import SimulationError
from repro.ir import (
    arith,
    AllocaInst,
    BinaryInst,
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
    SelectInst,
    StoreInst,
    UndefValue,
)
from repro.ir.types import F64, I1


# -- constant folding --------------------------------------------------------

def fold_binary(opcode, lhs, rhs, type_):
    """Fold a binary op over constants; returns a Constant or None.

    Folding evaluates through :mod:`repro.ir.arith`, the same exact
    semantics the interpreter and simulators execute — a fold must
    never be able to produce a value execution would not.
    """
    if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
        a, b = lhs.value, rhs.value
        if opcode in ("sdiv", "srem") and b == 0:
            return None  # division by zero traps at runtime; don't fold
        try:
            return ConstantInt(type_, arith.eval_int_binop(
                opcode, a, b, type_))
        except SimulationError:
            return None
    if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
        a, b = lhs.value, rhs.value
        if opcode == "fdiv" and b == 0.0:
            return None  # preserve the runtime NaN/inf rules
        try:
            return ConstantFloat(F64, arith.eval_float_binop(opcode, a, b))
        except (OverflowError, SimulationError):
            return None
    return None


def fold_icmp(predicate, lhs, rhs):
    if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
        return ConstantInt(I1, int(arith.icmp(predicate, lhs.value,
                                              rhs.value)))
    return None


def fold_fcmp(predicate, lhs, rhs):
    if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
        return ConstantInt(I1, int(arith.fcmp(predicate, lhs.value,
                                              rhs.value)))
    return None


def fold_cast(opcode, value, source_type, target_type):
    if isinstance(value, ConstantInt):
        v = value.value
        if opcode == "sext":
            return ConstantInt(target_type, v)
        if opcode == "zext":
            mask = (1 << source_type.bits) - 1
            return ConstantInt(target_type, v & mask)
        if opcode == "trunc":
            return ConstantInt(target_type, v)
        if opcode == "sitofp":
            return ConstantFloat(F64, float(v))
    if isinstance(value, ConstantFloat) and opcode == "fptosi":
        return ConstantInt(target_type, arith.fptosi(value.value,
                                                     target_type))
    return None


def fold_instruction(inst):
    """Try to fold ``inst`` to a constant; returns Constant or None."""
    if isinstance(inst, BinaryInst):
        return fold_binary(inst.opcode, inst.lhs, inst.rhs, inst.type)
    if isinstance(inst, ICmpInst):
        return fold_icmp(inst.predicate, inst.operands[0], inst.operands[1])
    if isinstance(inst, FCmpInst):
        return fold_fcmp(inst.predicate, inst.operands[0], inst.operands[1])
    if isinstance(inst, CastInst):
        return fold_cast(inst.opcode, inst.value, inst.value.type, inst.type)
    if isinstance(inst, SelectInst):
        cond = inst.condition
        if isinstance(cond, ConstantInt):
            chosen = inst.true_value if cond.value else inst.false_value
            if chosen.is_constant():
                return chosen
    return None


# -- dead code ----------------------------------------------------------------

def is_trivially_dead(inst):
    return (not inst.is_used() and not inst.type.is_void()
            and not inst.has_side_effects())


def delete_dead_instructions(function):
    """Iteratively delete unused side-effect-free instructions."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if is_trivially_dead(inst):
                    inst.erase_from_parent()
                    changed = True
                    progress = True
    return changed


# -- alias analysis (lite) ------------------------------------------------------

def underlying_object(pointer):
    """Walk GEP chains to the base object defining a pointer."""
    seen = 0
    while isinstance(pointer, GEPInst) and seen < 100:
        pointer = pointer.base
        seen += 1
    return pointer


def alloca_escapes(alloca):
    """True if the alloca's address may be observed outside the function.

    The address escapes when it is passed to a call or stored into memory.
    GEPs derived from it are tracked transitively.
    """
    worklist = [alloca]
    visited = set()
    while worklist:
        pointer = worklist.pop()
        if id(pointer) in visited:
            continue
        visited.add(id(pointer))
        for user in pointer.users:
            if isinstance(user, GEPInst) and user.base is pointer:
                worklist.append(user)
            elif isinstance(user, CallInst):
                return True
            elif isinstance(user, StoreInst) and user.value is pointer:
                return True
            elif isinstance(user, (PhiInst, SelectInst)):
                worklist.append(user)
    return False


def _is_identified(obj):
    return isinstance(obj, (AllocaInst, GlobalVariable))


def may_alias(p1, p2):
    """Conservative may-alias query for two pointers."""
    if p1 is p2:
        return True
    base1 = underlying_object(p1)
    base2 = underlying_object(p2)
    if _is_identified(base1) and _is_identified(base2):
        if base1 is not base2:
            return False
        return _indices_may_overlap(p1, p2)
    # An identified non-escaping alloca cannot alias an unknown pointer
    # (e.g. a pointer argument).
    for ident, other in ((base1, base2), (base2, base1)):
        if isinstance(ident, AllocaInst) and not _is_identified(other):
            if not alloca_escapes(ident):
                return False
    if _is_identified(base1) != _is_identified(base2):
        return True
    return True


def _indices_may_overlap(p1, p2):
    """Same base object: compare constant GEP indices when available."""
    off1 = _constant_offset(p1)
    off2 = _constant_offset(p2)
    if off1 is not None and off2 is not None:
        return off1 == off2
    return True


def _constant_offset(pointer):
    """Total constant cell offset of a (possibly nested) GEP chain."""
    offset = 0
    while isinstance(pointer, GEPInst):
        index = pointer.index
        if not isinstance(index, ConstantInt):
            return None
        offset += index.value * pointer.type.pointee.size_cells()
        pointer = pointer.base
    return offset


def must_alias(p1, p2):
    """True only when both pointers provably refer to the same cell."""
    if p1 is p2:
        return True
    base1 = underlying_object(p1)
    base2 = underlying_object(p2)
    if base1 is not base2 or not _is_identified(base1):
        return False
    off1 = _constant_offset(p1)
    off2 = _constant_offset(p2)
    return off1 is not None and off1 == off2


def instruction_may_write(inst, pointer):
    """May executing ``inst`` write to the cell(s) behind ``pointer``?"""
    if isinstance(inst, StoreInst):
        return may_alias(inst.pointer, pointer)
    if isinstance(inst, CallInst):
        if not inst.callee_may_access_memory():
            return False
        base = underlying_object(pointer)
        if isinstance(base, AllocaInst) and not alloca_escapes(base):
            # memset/memcpy intrinsics write through their pointer args.
            if inst.is_intrinsic() and inst.callee in ("memset", "memcpy"):
                return any(may_alias(arg, pointer) for arg in inst.args
                           if arg.type.is_pointer())
            return False
        return True
    return False


def instruction_may_read(inst, pointer):
    if isinstance(inst, LoadInst):
        return may_alias(inst.pointer, pointer)
    if isinstance(inst, CallInst):
        if not inst.callee_may_access_memory():
            return False
        base = underlying_object(pointer)
        if isinstance(base, AllocaInst) and not alloca_escapes(base):
            if inst.is_intrinsic() and inst.callee in ("memset", "memcpy"):
                return any(may_alias(arg, pointer) for arg in inst.args
                           if arg.type.is_pointer())
            return False
        return True
    return False


# -- CFG edits -----------------------------------------------------------------

def replace_and_erase(inst, new_value):
    inst.replace_all_uses_with(new_value)
    inst.erase_from_parent()


def remove_block_from_phis(block, successor):
    for phi in successor.phis():
        phi.remove_incoming(block)


def constant_fold_terminator(block):
    """Turn ``condbr const, a, b`` into ``br`` and clean up phis."""
    term = block.terminator()
    if not isinstance(term, CondBranchInst):
        return False
    cond = term.condition
    taken = None
    if isinstance(cond, ConstantInt):
        taken = term.true_target if cond.value else term.false_target
    elif term.true_target is term.false_target:
        taken = term.true_target
    if taken is None:
        return False
    dead = (term.false_target if taken is term.true_target
            else term.true_target)
    from repro.ir.instructions import BranchInst as _Br
    block.set_terminator(_Br(taken))
    if dead is not taken:
        remove_block_from_phis(block, dead)
    return True


def is_pure(inst):
    """Side-effect free, non-memory, non-control instruction."""
    if isinstance(inst, (BinaryInst, ICmpInst, FCmpInst, CastInst,
                         SelectInst, GEPInst)):
        return not inst.has_side_effects()
    if isinstance(inst, CallInst):
        return inst.is_pure_call() and not inst.callee_may_access_memory()
    return False


def value_number_key(inst):
    """Hashable key identifying the computation an instruction performs.

    Commutative operations are canonicalized by sorting operand ids.
    Returns None for instructions that cannot be value-numbered.
    """
    def opkey(value):
        if isinstance(value, ConstantInt):
            return ("ci", value.type.bits, value.value)
        if isinstance(value, ConstantFloat):
            # By bit pattern: 0.0 and -0.0 compare equal but divide to
            # opposite infinities, and a NaN must match itself.
            return ("cf", struct.pack("<d", value.value))
        if isinstance(value, UndefValue):
            return ("undef", str(value.type))
        return ("v", id(value))

    if isinstance(inst, BinaryInst):
        ops = [opkey(inst.lhs), opkey(inst.rhs)]
        if inst.is_commutative():
            ops.sort()
        return (inst.opcode, tuple(ops))
    if isinstance(inst, ICmpInst):
        return ("icmp", inst.predicate, opkey(inst.operands[0]),
                opkey(inst.operands[1]))
    if isinstance(inst, FCmpInst):
        return ("fcmp", inst.predicate, opkey(inst.operands[0]),
                opkey(inst.operands[1]))
    if isinstance(inst, CastInst):
        return ("cast", inst.opcode, str(inst.type), opkey(inst.value))
    if isinstance(inst, GEPInst):
        return ("gep", opkey(inst.base), opkey(inst.index))
    if isinstance(inst, SelectInst):
        return ("select", opkey(inst.condition), opkey(inst.true_value),
                opkey(inst.false_value))
    if isinstance(inst, CallInst) and is_pure(inst):
        return ("call", inst.callee_name(),
                tuple(opkey(a) for a in inst.args))
    return None
