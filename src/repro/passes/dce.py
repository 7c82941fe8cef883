"""Dead-code elimination family: dce, adce, bdce, dse.

- ``dce``   — iterative trivial dead-instruction elimination.
- ``adce``  — aggressive DCE: everything is dead unless transitively
  required by a side-effecting root (liveness over def-use + phis).
- ``bdce``  — bit-tracking DCE: demanded-bits analysis through ``and``/
  ``trunc`` masks; instructions whose demanded bits are fully known fold to
  constants, and ops feeding only dead bits are removed.
- ``dse``   — dead-store elimination: stores overwritten before any read,
  and stores to non-escaping allocas never read afterwards.
"""

from repro.ir import (
    AllocaInst,
    BinaryInst,
    CastInst,
    ConstantInt,
    Instruction,
    LoadInst,
    StoreInst,
)
from repro.passes.analysis import PRESERVE_CFG
from repro.passes.base import FunctionPass, register_pass
from repro.passes.utils import (
    alloca_escapes,
    delete_dead_instructions,
    instruction_may_read,
    may_alias,
    must_alias,
    replace_and_erase,
    underlying_object,
)


@register_pass("dce")
class DCE(FunctionPass):
    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        return delete_dead_instructions(function)


@register_pass("adce")
class ADCE(FunctionPass):
    """Liveness-rooted DCE.

    Control flow is kept intact (no branch removal), matching the scalar
    part of LLVM's ADCE: roots are terminators and side-effecting
    instructions; anything not reached through operands is deleted.
    """

    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        live = set()
        worklist = []
        for block in function.blocks:
            for inst in block.instructions:
                if inst.is_terminator() or inst.has_side_effects():
                    live.add(id(inst))
                    worklist.append(inst)
        while worklist:
            inst = worklist.pop()
            for op in inst.operands:
                if isinstance(op, Instruction) and id(op) not in live:
                    live.add(id(op))
                    worklist.append(op)
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if id(inst) not in live:
                    inst.drop_all_references()
                    # Uses of this dead value are themselves dead; erasing in
                    # reverse dependency order is guaranteed because a live
                    # instruction can never use a dead one.
                    for user, index in list(inst.uses):
                        from repro.ir import UndefValue
                        user.set_operand(index, UndefValue(inst.type))
                    block.remove_instruction(inst)
                    changed = True
        return changed


@register_pass("bdce")
class BDCE(FunctionPass):
    """Demanded-bits DCE.

    Computes, for integer instructions, which result bits can influence
    side effects.  When an ``and`` mask kills all bits an operand chain can
    produce, the chain collapses to zero.
    """

    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, BinaryInst):
                    continue
                if inst.opcode != "and":
                    continue
                mask = inst.rhs if isinstance(inst.rhs, ConstantInt) else None
                if mask is None:
                    continue
                known = self._known_zero_bits(inst.lhs, depth=0)
                if known is None:
                    continue
                # Bits that survive both the mask and the operand.
                if (mask.value & ~known) == 0 and mask.value >= 0:
                    replace_and_erase(inst, ConstantInt(inst.type, 0))
                    changed = True
        changed |= delete_dead_instructions(function)
        return changed

    def _known_zero_bits(self, value, depth):
        """Bit mask of positions known to be zero in ``value``."""
        if depth > 4:
            return None
        if isinstance(value, ConstantInt):
            return ~value.value
        if isinstance(value, CastInst) and value.opcode == "zext":
            source_bits = value.value.type.bits
            return ~((1 << source_bits) - 1)
        if isinstance(value, BinaryInst):
            if value.opcode == "and":
                lhs = self._known_zero_bits(value.lhs, depth + 1)
                rhs = self._known_zero_bits(value.rhs, depth + 1)
                results = [r for r in (lhs, rhs) if r is not None]
                if results:
                    combined = results[0]
                    for r in results[1:]:
                        combined |= r
                    return combined
            if value.opcode == "shl" and \
                    isinstance(value.rhs, ConstantInt):
                inner = self._known_zero_bits(value.lhs, depth + 1)
                shift = value.rhs.value & 63
                low_mask = (1 << shift) - 1
                if inner is None:
                    return low_mask
                return (inner << shift) | low_mask
            if value.opcode == "or":
                lhs = self._known_zero_bits(value.lhs, depth + 1)
                rhs = self._known_zero_bits(value.rhs, depth + 1)
                if lhs is not None and rhs is not None:
                    return lhs & rhs
        return None


@register_pass("dse")
class DSE(FunctionPass):
    # Store removal cannot affect the CFG nor IV discovery.
    preserved_analyses = PRESERVE_CFG | frozenset({"loopivs"})

    def run_on_function(self, function, am):
        changed = False
        changed |= self._intra_block(function)
        changed |= self._dead_at_exit(function)
        return changed

    @staticmethod
    def _intra_block(function):
        """Remove a store overwritten later in the same block with no
        intervening read of the same memory."""
        changed = False
        for block in function.blocks:
            instructions = block.instructions
            for i, inst in enumerate(list(instructions)):
                if not isinstance(inst, StoreInst) or inst.parent is None:
                    continue
                for later in instructions[instructions.index(inst) + 1:]:
                    if isinstance(later, StoreInst) and \
                            must_alias(later.pointer, inst.pointer):
                        inst.erase_from_parent()
                        changed = True
                        break
                    if instruction_may_read(later, inst.pointer):
                        break
                    if later.is_terminator():
                        break
        return changed

    @staticmethod
    def _dead_at_exit(function):
        """Remove stores to non-escaping allocas that are never loaded."""
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, StoreInst):
                    continue
                base = underlying_object(inst.pointer)
                if not isinstance(base, AllocaInst):
                    continue
                if alloca_escapes(base):
                    continue
                has_load = any(
                    isinstance(user, LoadInst) or
                    (isinstance(user, Instruction)
                     and not isinstance(user, StoreInst)
                     and not isinstance(user, AllocaInst)
                     and any(isinstance(u2, LoadInst)
                             for u2 in user.users))
                    for user in base.users)
                # Precise check: any load whose pointer may alias the base.
                loads = []
                for other_block in function.blocks:
                    for other in other_block.instructions:
                        if isinstance(other, LoadInst) and \
                                may_alias(other.pointer, inst.pointer):
                            loads.append(other)
                if not loads and not has_load:
                    inst.erase_from_parent()
                    changed = True
        return changed
