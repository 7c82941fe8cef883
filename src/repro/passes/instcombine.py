"""instsimplify / instcombine / aggressive-instcombine.

``instsimplify`` only performs folds whose result is an existing value or a
constant.  ``instcombine`` additionally rewrites instructions into cheaper
forms (strength reduction, cast/cmp combining).  ``aggressive-instcombine``
adds pattern folds over small expression trees (constant chains).

All three share one fixpoint body: rescan the function in program order
while any rewrite makes progress (at most 8 rounds), then sweep the
trivially dead instructions once.  On the bundled corpus the loop
reaches its fixpoint well inside the cap: a second run reports no
activity (``tests/passes/test_differential.py``).
"""

from repro.ir import (
    BinaryInst,
    CastInst,
    ConstantFloat,
    ConstantInt,
    ICmpInst,
    SelectInst,
)
from repro.ir.instructions import ICMP_SWAP
from repro.ir.types import I1, I64
from repro.passes.analysis import PRESERVE_CFG
from repro.passes.base import FunctionPass, register_pass
from repro.passes.utils import (
    delete_dead_instructions,
    fold_instruction,
    replace_and_erase,
)


def _cint(value):
    return ConstantInt(I64, value)


def _is_int_const(value, expected=None):
    if not isinstance(value, ConstantInt):
        return False
    return expected is None or value.value == expected


def _is_float_const(value, expected=None):
    if not isinstance(value, ConstantFloat):
        return False
    return expected is None or value.value == expected


def simplify_instruction(inst):
    """Return an existing value or constant equal to ``inst``, or None.

    This is the shared engine of instsimplify; it never creates new
    instructions.
    """
    folded = fold_instruction(inst)
    if folded is not None:
        return folded
    if isinstance(inst, BinaryInst):
        return _simplify_binary(inst)
    if isinstance(inst, ICmpInst):
        return _simplify_icmp(inst)
    if isinstance(inst, SelectInst):
        if inst.true_value is inst.false_value:
            return inst.true_value
        if isinstance(inst.condition, ConstantInt):
            return (inst.true_value if inst.condition.value
                    else inst.false_value)
    if isinstance(inst, CastInst):
        # sitofp(fptosi x) is NOT an identity; but zext/sext of i1 followed
        # by trunc back to i1 is.
        inner = inst.value
        if isinstance(inner, CastInst):
            if (inst.opcode == "trunc" and inner.opcode in ("zext", "sext")
                    and inst.type == inner.value.type):
                return inner.value
    return None


def _simplify_binary(inst):
    opcode, lhs, rhs = inst.opcode, inst.lhs, inst.rhs
    if opcode == "add":
        if _is_int_const(rhs, 0):
            return lhs
        if _is_int_const(lhs, 0):
            return rhs
    elif opcode == "sub":
        if _is_int_const(rhs, 0):
            return lhs
        if lhs is rhs:
            return _cint(0)
    elif opcode == "mul":
        if _is_int_const(rhs, 1):
            return lhs
        if _is_int_const(lhs, 1):
            return rhs
        if _is_int_const(rhs, 0) or _is_int_const(lhs, 0):
            return _cint(0)
    elif opcode == "sdiv":
        if _is_int_const(rhs, 1):
            return lhs
        if lhs is rhs:
            return None  # 0/0 traps; cannot fold to 1
    elif opcode == "srem":
        if _is_int_const(rhs, 1):
            return _cint(0)
    elif opcode == "and":
        if lhs is rhs:
            return lhs
        if _is_int_const(rhs, 0) or _is_int_const(lhs, 0):
            return ConstantInt(inst.type, 0)
        if _is_int_const(rhs, -1):
            return lhs
        if _is_int_const(lhs, -1):
            return rhs
    elif opcode == "or":
        if lhs is rhs:
            return lhs
        if _is_int_const(rhs, 0):
            return lhs
        if _is_int_const(lhs, 0):
            return rhs
        if _is_int_const(rhs, -1) or _is_int_const(lhs, -1):
            return ConstantInt(inst.type, -1)
    elif opcode == "xor":
        if lhs is rhs:
            return ConstantInt(inst.type, 0)
        if _is_int_const(rhs, 0):
            return lhs
        if _is_int_const(lhs, 0):
            return rhs
    elif opcode in ("shl", "ashr", "lshr"):
        if _is_int_const(rhs, 0):
            return lhs
        if _is_int_const(lhs, 0):
            return _cint(0)
    elif opcode == "fadd":
        # x + 0.0 is safe for finite x only when x is not -0.0; our float
        # model ignores signed zero, so treat as identity.
        if _is_float_const(rhs, 0.0):
            return lhs
        if _is_float_const(lhs, 0.0):
            return rhs
    elif opcode == "fsub":
        if _is_float_const(rhs, 0.0):
            return lhs
    elif opcode == "fmul":
        if _is_float_const(rhs, 1.0):
            return lhs
        if _is_float_const(lhs, 1.0):
            return rhs
    elif opcode == "fdiv":
        if _is_float_const(rhs, 1.0):
            return lhs
    return None


def _simplify_icmp(inst):
    lhs, rhs = inst.operands
    if lhs is rhs:
        result = inst.predicate in ("eq", "sle", "sge")
        return ConstantInt(I1, int(result))
    return None


class _CombineBase(FunctionPass):
    aggressive = False
    create_instructions = True
    # Instruction rewrites only; the CFG is never modified.
    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        """Rescan the whole function while any rewrite makes progress
        (at most 8 rounds), then sweep the dead instructions."""
        changed = False
        progress = True
        iterations = 0
        while progress and iterations < 8:
            progress = False
            iterations += 1
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue
                    simplified = simplify_instruction(inst)
                    if simplified is not None:
                        replace_and_erase(inst, simplified)
                        progress = True
                        continue
                    if self.create_instructions and self._combine(inst):
                        progress = True
            changed |= progress
        changed |= delete_dead_instructions(function)
        return changed

    # -- rewrites that create new instructions ------------------------------
    def _combine(self, inst):
        if isinstance(inst, BinaryInst):
            return (self._combine_binary(inst)
                    or (self.aggressive and self._combine_chains(inst)))
        if isinstance(inst, ICmpInst):
            return self._combine_icmp(inst)
        if isinstance(inst, SelectInst):
            return self._combine_select(inst)
        return False

    def _replace_with(self, inst, new_inst):
        block = inst.parent
        index = block.instructions.index(inst)
        new_inst.name = inst.name or block.parent.next_name()
        block.insert(index, new_inst)
        replace_and_erase(inst, new_inst)
        return True

    def _combine_binary(self, inst):
        opcode, lhs, rhs = inst.opcode, inst.lhs, inst.rhs
        # Canonicalize constants to the RHS of commutative ops.
        if inst.is_commutative() and isinstance(lhs, ConstantInt) \
                and not isinstance(rhs, ConstantInt):
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            return True
        if opcode == "mul" and _is_int_const(rhs):
            value = rhs.value
            if value > 1 and (value & (value - 1)) == 0:
                shift = value.bit_length() - 1
                return self._replace_with(
                    inst, BinaryInst("shl", lhs, _cint(shift)))
            if value == -1:
                return self._replace_with(
                    inst, BinaryInst("sub", _cint(0), lhs))
        if opcode == "srem" and _is_int_const(rhs):
            # x % 2^k == x & (2^k - 1) for non-negative x; without a range
            # analysis this is only safe when x is a zext from i1/i8 — skip.
            pass
        if opcode == "sub" and _is_int_const(rhs):
            # x - C -> x + (-C): exposes reassociation and CSE.
            if rhs.value != 0:
                return self._replace_with(
                    inst, BinaryInst("add", lhs, _cint(-rhs.value)))
        if opcode == "add" and isinstance(rhs, BinaryInst) \
                and rhs.opcode == "sub" and rhs.lhs is lhs:
            # a + (b - a) is not generally a+b; skip. (left intentionally)
            pass
        if opcode == "xor" and _is_int_const(rhs, -1):
            # Double negation: ~(~x) -> x.
            if isinstance(lhs, BinaryInst) and lhs.opcode == "xor" \
                    and _is_int_const(lhs.rhs, -1):
                replace_and_erase(inst, lhs.lhs)
                return True
        # (x op C1) op C2 -> x op (C1 op C2) for associative op.
        if opcode in ("add", "mul", "and", "or", "xor") \
                and _is_int_const(rhs) and isinstance(lhs, BinaryInst) \
                and lhs.opcode == opcode and _is_int_const(lhs.rhs) \
                and len(lhs.uses) == 1:
            from repro.passes.utils import fold_binary
            folded = fold_binary(opcode, lhs.rhs, rhs, inst.type)
            if folded is not None:
                return self._replace_with(
                    inst, BinaryInst(opcode, lhs.lhs, folded))
        return False

    def _combine_icmp(self, inst):
        lhs, rhs = inst.operands
        # icmp with constant on the LHS: swap to canonical form.
        if isinstance(lhs, ConstantInt) and not isinstance(rhs, ConstantInt):
            swapped = ICmpInst(ICMP_SWAP[inst.predicate], rhs, lhs)
            return self._replace_with(inst, swapped)
        # icmp ne (zext i1 x), 0  ->  x ;  icmp eq (zext i1 x), 0 -> not x
        if isinstance(lhs, CastInst) and lhs.opcode == "zext" \
                and lhs.value.type == I1 and _is_int_const(rhs, 0):
            if inst.predicate == "ne":
                replace_and_erase(inst, lhs.value)
                return True
            if inst.predicate == "eq":
                flipped = ICmpInst("eq", lhs.value, ConstantInt(I1, 0))
                return self._replace_with(inst, flipped)
        # icmp pred (add x, C1), C2 -> icmp pred x, C2-C1
        if isinstance(lhs, BinaryInst) and lhs.opcode == "add" \
                and _is_int_const(lhs.rhs) and _is_int_const(rhs):
            new_rhs = _cint(rhs.value - lhs.rhs.value)
            # Only safe if no wraparound at the boundary; our i64 wraps like
            # the interpreter, and predicates are signed, so the rewrite is
            # unsafe when C2-C1 overflows — ConstantInt wraps identically,
            # making it safe except at the extreme boundary; accept i64
            # two's-complement semantics as the contract.
            if abs(rhs.value - lhs.rhs.value) < (1 << 62):
                return self._replace_with(
                    inst, ICmpInst(inst.predicate, lhs.lhs, new_rhs))
        return False

    def _combine_select(self, inst):
        condition = inst.condition
        # select (icmp eq c, 0), a, b -> select c, b, a
        if isinstance(condition, ICmpInst) and len(condition.uses) == 1 \
                and condition.predicate == "eq" \
                and _is_int_const(condition.operands[1], 0) \
                and condition.operands[0].type == I1:
            flipped = SelectInst(condition.operands[0], inst.false_value,
                                 inst.true_value)
            return self._replace_with(inst, flipped)
        # select c, 1, 0 (i64) -> zext c
        if _is_int_const(inst.true_value, 1) \
                and _is_int_const(inst.false_value, 0) \
                and inst.type == I64:
            return self._replace_with(
                inst, CastInst("zext", inst.condition, I64))
        return False

    def _combine_chains(self, inst):
        """Aggressive: reassociate (x op y) op C over single-use chains to
        sink all constants into one operand."""
        opcode = inst.opcode
        if opcode not in ("add", "mul"):
            return False
        if not _is_int_const(inst.rhs):
            return False
        node = inst.lhs
        # Look through one non-constant level: ((x op C1) op y) op C2.
        if isinstance(node, BinaryInst) and node.opcode == opcode \
                and len(node.uses) == 1 and isinstance(node.lhs, BinaryInst) \
                and node.lhs.opcode == opcode and len(node.lhs.uses) == 1 \
                and _is_int_const(node.lhs.rhs):
            from repro.passes.utils import fold_binary
            folded = fold_binary(opcode, node.lhs.rhs, inst.rhs, inst.type)
            if folded is None:
                return False
            inner = BinaryInst(opcode, node.lhs.lhs, node.rhs)
            block = inst.parent
            index = block.instructions.index(inst)
            inner.name = block.parent.next_name()
            block.insert(index, inner)
            return self._replace_with(inst, BinaryInst(opcode, inner, folded))
        return False


@register_pass("instsimplify")
class InstSimplify(_CombineBase):
    # Value rewrites only; the CFG is untouched (R004: the contract is
    # declared per concrete pass, not inherited silently).
    preserved_analyses = PRESERVE_CFG
    create_instructions = False


@register_pass("instcombine")
class InstCombine(_CombineBase):
    preserved_analyses = PRESERVE_CFG


@register_pass("aggressive-instcombine")
class AggressiveInstCombine(_CombineBase):
    preserved_analyses = PRESERVE_CFG
    aggressive = True
