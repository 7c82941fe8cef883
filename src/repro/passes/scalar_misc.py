"""Scalar phases: reassociate, tailcallelim, jump-threading,
correlated-propagation, memcpyopt, mldst-motion, float2int, div-rem-pairs,
lower-expect, speculative-execution, alignment-from-assumptions,
callsite-splitting, sroa.
"""

from repro.ir import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    ConstantInt,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    StoreInst,
)
from repro.ir.arith import icmp
from repro.ir.types import I64
from repro.passes.analysis import PRESERVE_CFG, PRESERVE_NONE
from repro.passes.base import FunctionPass, Pass, register_pass
from repro.passes.utils import (
    delete_dead_instructions,
    fold_binary,
    is_pure,
    must_alias,
    replace_and_erase,
)


@register_pass("reassociate")
class Reassociate(FunctionPass):
    """Canonicalize commutative chains: gather the leaves of a single-use
    add/mul tree, sort constants last, fold them, and rebuild a left-
    leaning chain.  This exposes CSE/constant-folding opportunities."""

    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if inst.parent is None or not isinstance(inst, BinaryInst):
                    continue
                if inst.opcode not in ("add", "mul"):
                    continue
                # Only rewrite tree roots (no same-opcode single-use user).
                if any(isinstance(u, BinaryInst) and u.opcode == inst.opcode
                       for u in inst.users):
                    continue
                leaves = self._gather(inst, inst.opcode)
                if leaves is None or len(leaves) < 3:
                    continue
                constants = [l for l in leaves
                             if isinstance(l, ConstantInt)]
                if len(constants) < 2:
                    continue
                variables = [l for l in leaves
                             if not isinstance(l, ConstantInt)]
                folded = constants[0]
                for constant in constants[1:]:
                    folded = fold_binary(inst.opcode, folded, constant,
                                         inst.type)
                ordered = variables + ([folded] if not self._is_identity(
                    inst.opcode, folded) else [])
                if not ordered:
                    ordered = [folded]
                block_obj = inst.parent
                index = block_obj.instructions.index(inst)
                current = ordered[0]
                for leaf in ordered[1:]:
                    new_inst = BinaryInst(inst.opcode, current, leaf)
                    new_inst.name = function.next_name("ra")
                    block_obj.insert(index, new_inst)
                    index += 1
                    current = new_inst
                if current is not inst:
                    replace_and_erase(inst, current)
                    changed = True
        changed |= delete_dead_instructions(function)
        return changed

    @staticmethod
    def _is_identity(opcode, constant):
        return (opcode == "add" and constant.value == 0) or \
               (opcode == "mul" and constant.value == 1)

    @staticmethod
    def _gather(root, opcode, limit=8):
        """Collect leaves of a single-use same-opcode tree."""
        leaves = []
        worklist = [(root, True)]
        while worklist:
            node, is_root = worklist.pop()
            if isinstance(node, BinaryInst) and node.opcode == opcode and \
                    (is_root or len(node.uses) == 1):
                worklist.append((node.lhs, False))
                worklist.append((node.rhs, False))
            else:
                leaves.append(node)
            if len(leaves) + len(worklist) > limit:
                return None
        return leaves


@register_pass("tailcallelim")
class TailCallElim(FunctionPass):
    """Turn self-recursive tail calls into loops.

    ``return f(args...)`` inside ``f`` becomes: rewrite the entry into a
    loop header with phis for the parameters, and the tail call becomes a
    back edge updating the phis.
    """

    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        tail_sites = []
        for block in function.blocks:
            instructions = block.instructions
            if len(instructions) < 2:
                continue
            term = instructions[-1]
            call = instructions[-2]
            if not isinstance(term, RetInst) or \
                    not isinstance(call, CallInst) or call.is_intrinsic():
                continue
            if call.callee is not function:
                continue
            if term.value is not call and term.value is not None:
                continue
            tail_sites.append((block, call, term))
        if not tail_sites:
            return False
        # Re-entering the body must not observe stale locals: with allocas
        # present, each recursive activation would need fresh slots, so the
        # phase only fires on alloca-free functions (run after mem2reg).
        for block in function.blocks:
            for inst in block.instructions:
                if isinstance(inst, AllocaInst):
                    return False
        # Build a new header: old entry becomes the loop body target.
        old_entry = function.entry
        new_entry = function.append_block("tce.entry")
        new_entry.insert_before(old_entry)
        new_entry.append(BranchInst(old_entry))
        phis = []
        for arg in function.args:
            phi = PhiInst(arg.type, function.next_name(f"tce.{arg.name}"))
            old_entry.insert(len(phis), phi)
            phi.add_incoming(arg, new_entry)
            phis.append(phi)
            for user, index in list(arg.uses):
                if user is not phi:
                    user.set_operand(index, phi)
        for block, call, term in tail_sites:
            for phi, actual in zip(phis, call.args):
                phi.add_incoming(actual, block)
            term.erase_from_parent()
            call.erase_from_parent()
            block.set_terminator(BranchInst(old_entry))
        return True


@register_pass("jump-threading")
class JumpThreading(FunctionPass):
    """Thread branches over phi-of-constant conditions: when a block's
    conditional branch tests a phi whose incoming value from predecessor P
    is a constant, P can jump directly to the decided successor."""

    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        changed = False
        for block in list(function.blocks):
            if block not in function.blocks:
                continue
            term = block.terminator()
            if not isinstance(term, CondBranchInst):
                continue
            condition = term.condition
            phi = None
            if isinstance(condition, PhiInst) and condition.parent is block:
                phi = condition
            elif isinstance(condition, ICmpInst) and \
                    condition.parent is block and \
                    isinstance(condition.operands[0], PhiInst) and \
                    condition.operands[0].parent is block and \
                    isinstance(condition.operands[1], ConstantInt) and \
                    len(condition.operands[0].uses) == 1:
                phi = condition.operands[0]
            if phi is None:
                continue
            # Only thread through blocks that do nothing else (phis +
            # optional compare + condbr): otherwise we would need to clone
            # the block body per predecessor.
            body = [i for i in block.instructions
                    if not isinstance(i, PhiInst) and i is not term
                    and i is not condition]
            if body:
                continue
            if len(block.phis()) != 1:
                continue
            for value, pred in list(phi.incoming()):
                if not isinstance(value, ConstantInt):
                    continue
                if pred not in function.blocks:
                    continue
                if isinstance(condition, ICmpInst):
                    folded = icmp(condition.predicate, value.value,
                                  condition.operands[1].value)
                    target = term.true_target if folded \
                        else term.false_target
                else:
                    target = term.true_target if value.value \
                        else term.false_target
                if target is block or target.phis():
                    continue
                # Redirect pred around this block.
                pred.terminator().replace_successor(block, target)
                phi.remove_incoming(pred)
                changed = True
                if not phi.incoming_blocks:
                    # Block became unreachable; leave cleanup to
                    # simplifycfg but keep IR consistent.
                    break
        return changed


@register_pass("correlated-propagation")
class CorrelatedPropagation(FunctionPass):
    """Replace a value with a constant in regions dominated by an
    equality test: after ``if (x == C)`` the true block knows ``x == C``.
    """

    # Operand rewrites only; no CFG edits.
    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        dom = am.domtree(function)
        changed = False
        for block in function.blocks:
            term = block.terminator()
            if not isinstance(term, CondBranchInst):
                continue
            condition = term.condition
            if not isinstance(condition, ICmpInst):
                continue
            if condition.predicate != "eq":
                continue
            lhs, rhs = condition.operands
            if not isinstance(rhs, ConstantInt) or \
                    isinstance(lhs, ConstantInt):
                continue
            true_block = term.true_target
            if true_block is term.false_target:
                continue
            # The true block must be dominated by this edge: it has the
            # branch block as unique predecessor.
            if true_block.predecessors() != [block]:
                continue
            for user, index in list(lhs.uses):
                if user is condition:
                    continue
                if isinstance(user, PhiInst):
                    continue
                if user.parent is not None and \
                        dom.dominates(true_block, user.parent):
                    user.set_operand(index, rhs)
                    changed = True
        return changed


@register_pass("memcpyopt")
class MemCpyOpt(FunctionPass):
    """Collapse runs of stores of one value to consecutive constant
    addresses into a ``memset`` intrinsic (≥ 4 elements)."""

    preserved_analyses = PRESERVE_CFG
    MIN_RUN = 4

    def run_on_function(self, function, am):
        from repro.passes.utils import _constant_offset, underlying_object

        changed = False
        for block in function.blocks:
            run = []  # list of (store, base, offset)
            instructions = block.instructions
            index = 0
            while index <= len(instructions):
                inst = instructions[index] if index < len(instructions) \
                    else None
                extended = False
                if isinstance(inst, StoreInst):
                    pointer = inst.pointer
                    base = underlying_object(pointer)
                    offset = _constant_offset(pointer)
                    if offset is not None:
                        if not run:
                            run = [(inst, base, offset)]
                            extended = True
                        else:
                            _, rbase, roffset = run[-1]
                            same_value = run[0][0].value is inst.value
                            if rbase is base and offset == roffset + 1 and \
                                    same_value:
                                run.append((inst, base, offset))
                                extended = True
                if not extended:
                    if len(run) >= self.MIN_RUN:
                        self._replace_run(function, block, run)
                        changed = True
                        instructions = block.instructions
                        index = 0
                        run = []
                        continue
                    run = []
                    if isinstance(inst, StoreInst):
                        pointer = inst.pointer
                        base = underlying_object(pointer)
                        offset = _constant_offset(pointer)
                        if offset is not None:
                            run = [(inst, base, offset)]
                index += 1
        return changed

    @staticmethod
    def _replace_run(function, block, run):
        first_store = run[0][0]
        count = len(run)
        value = first_store.value
        index = block.instructions.index(first_store)
        memset = CallInst("memset",
                          [first_store.pointer, value,
                           ConstantInt(I64, count)])
        block.insert(index, memset)
        for store, _, _ in run:
            store.erase_from_parent()


@register_pass("mldst-motion")
class MergedLoadStoreMotion(FunctionPass):
    """Sink identical stores from both arms of a diamond into the join
    block (the classic mldst-motion store sinking)."""

    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        changed = False
        for block in function.blocks:
            term = block.terminator()
            if not isinstance(term, CondBranchInst):
                continue
            left, right = term.true_target, term.false_target
            if left is right:
                continue
            if not (isinstance(left.terminator(), BranchInst)
                    and isinstance(right.terminator(), BranchInst)):
                continue
            join = left.terminator().target
            if join is not right.terminator().target:
                continue
            if left.predecessors() != [block] or \
                    right.predecessors() != [block]:
                continue
            left_stores = [i for i in left.instructions
                           if isinstance(i, StoreInst)]
            right_stores = [i for i in right.instructions
                            if isinstance(i, StoreInst)]
            if not left_stores or not right_stores:
                continue
            ls, rs = left_stores[-1], right_stores[-1]
            # Must be the last memory operation in each arm.
            if left.instructions[-2:] != [ls, left.terminator()] or \
                    right.instructions[-2:] != [rs, right.terminator()]:
                continue
            if ls.pointer is not rs.pointer:
                if not must_alias(ls.pointer, rs.pointer):
                    continue
                # The sunk store reuses one of the pointers: it must be
                # defined above the diamond, not inside an arm.
                from repro.ir import Instruction
                if isinstance(ls.pointer, Instruction) and \
                        ls.pointer.parent in (left, right):
                    continue
            if ls.value is rs.value:
                merged_value = ls.value
            else:
                phi = PhiInst(ls.value.type, function.next_name("mls"))
                join.insert(0, phi)
                phi.add_incoming(ls.value, left)
                phi.add_incoming(rs.value, right)
                merged_value = phi
            new_store = StoreInst(merged_value, ls.pointer)
            join.insert(join.first_non_phi_index(), new_store)
            ls.erase_from_parent()
            rs.erase_from_parent()
            changed = True
        return changed


@register_pass("float2int")
class Float2Int(FunctionPass):
    """Demote float arithmetic on sitofp-ed integers consumed only by
    fptosi back into integer arithmetic."""

    preserved_analyses = PRESERVE_CFG
    _SAFE = {"fadd": "add", "fsub": "sub", "fmul": "mul"}

    def run_on_function(self, function, am):
        changed = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, BinaryInst) or \
                        inst.opcode not in self._SAFE:
                    continue
                lhs, rhs = inst.lhs, inst.rhs
                if not (isinstance(lhs, CastInst) and lhs.opcode == "sitofp"
                        and isinstance(rhs, CastInst)
                        and rhs.opcode == "sitofp"):
                    continue
                users = inst.users
                if not users or not all(
                        isinstance(u, CastInst) and u.opcode == "fptosi"
                        for u in users):
                    continue
                new_inst = BinaryInst(self._SAFE[inst.opcode],
                                      lhs.value, rhs.value)
                new_inst.name = function.next_name("f2i")
                block.insert(block.instructions.index(inst), new_inst)
                for user in list(users):
                    user.replace_all_uses_with(new_inst)
                    user.erase_from_parent()
                inst.erase_from_parent()
                changed = True
        changed |= delete_dead_instructions(function)
        return changed


@register_pass("div-rem-pairs")
class DivRemPairs(FunctionPass):
    """When both ``a / b`` and ``a % b`` exist in the same block, compute
    the remainder as ``a - (a/b)*b``, saving one division."""

    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        changed = False
        for block in function.blocks:
            divs = {}
            for inst in list(block.instructions):
                if not isinstance(inst, BinaryInst):
                    continue
                key = (id(inst.lhs), id(inst.rhs))
                if inst.opcode == "sdiv":
                    divs.setdefault(key, inst)
                elif inst.opcode == "srem" and key in divs:
                    div = divs[key]
                    if block.instructions.index(div) > \
                            block.instructions.index(inst):
                        continue
                    mul = BinaryInst("mul", div, inst.rhs)
                    mul.name = function.next_name("drp")
                    sub = BinaryInst("sub", inst.lhs, mul)
                    sub.name = function.next_name("drp")
                    index = block.instructions.index(inst)
                    block.insert(index, mul)
                    block.insert(index + 1, sub)
                    replace_and_erase(inst, sub)
                    changed = True
        return changed


@register_pass("lower-expect")
class LowerExpect(Pass):
    """The IR has no ``llvm.expect`` intrinsic or branch-weight metadata;
    the phase exists for sequence compatibility and is a documented no-op.
    """

    # A no-op trivially keeps the CFG analyses valid (never consulted:
    # invalidation only runs when a pass reports a change).
    preserved_analyses = PRESERVE_CFG

    def run_on_module(self, module, am):
        return False


@register_pass("alignment-from-assumptions")
class AlignmentFromAssumptions(Pass):
    """Cell-addressed memory has no alignment; documented no-op."""

    preserved_analyses = PRESERVE_CFG

    def run_on_module(self, module, am):
        return False


@register_pass("speculative-execution")
class SpeculativeExecution(FunctionPass):
    """Hoist cheap, pure, single instructions from both targets of a
    conditional branch into the branching block (if-conversion prep)."""

    # Moves instructions between existing blocks; edges untouched.
    preserved_analyses = PRESERVE_CFG
    MAX_HOIST = 4

    def run_on_function(self, function, am):
        changed = False
        for block in function.blocks:
            term = block.terminator()
            if not isinstance(term, CondBranchInst):
                continue
            for target in (term.true_target, term.false_target):
                if target.predecessors() != [block]:
                    continue
                hoisted = 0
                for inst in list(target.instructions):
                    if inst.is_terminator() or isinstance(inst, PhiInst):
                        break
                    if not is_pure(inst) or isinstance(inst, LoadInst):
                        break
                    # Operands must dominate the branch block: they cannot
                    # be defined in ``target`` itself (we hoist in order,
                    # so earlier hoisted instructions are fine).
                    if any(isinstance(op, Instruction)
                           and op.parent is target
                           for op in inst.operands):
                        break
                    if hoisted >= self.MAX_HOIST:
                        break
                    target.remove_instruction(inst)
                    block.insert_before_terminator(inst)
                    hoisted += 1
                    changed = True
        return changed


@register_pass("callsite-splitting")
class CallSiteSplitting(FunctionPass):
    """Split a call whose argument is a phi of constants into per-
    predecessor calls with the constant bound — enabling ipsccp/inlining
    specialization.  Conservative shape: block contains only the phi(s),
    the call, and the terminator, and the call's users are phis or local.
    """

    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        for block in list(function.blocks):
            phis = block.phis()
            if len(phis) != 1:
                continue
            phi = phis[0]
            body = block.instructions[len(phis):]
            if len(body) != 2:
                continue
            call, term = body
            if not isinstance(call, CallInst) or call.is_intrinsic():
                continue
            if not isinstance(term, BranchInst):
                continue
            if phi not in call.operands:
                continue
            if len(phi.uses) != 1:
                continue
            if not all(isinstance(v, ConstantInt) for v in phi.operands):
                continue
            preds = block.predecessors()
            if len(preds) < 2 or len(preds) != len(phi.incoming_blocks):
                continue
            successor = term.target
            if successor.phis():
                continue
            if call.is_used():
                continue  # keeping the result would need a merge phi
            # Split: each predecessor gets its own copy of the call.
            for value, pred in list(phi.incoming()):
                args = [value if a is phi else a for a in call.args]
                new_call = CallInst(call.callee, args)
                pred_term = pred.terminator()
                pred.insert(pred.instructions.index(pred_term), new_call)
            call.erase_from_parent()
            return True
        return False


@register_pass("sroa")
class SROA(FunctionPass):
    """Scalar replacement of aggregates.

    Splits small, non-escaping, constant-indexed array allocas into one
    scalar alloca per element, then lets mem2reg promote them.  Scalar
    allocas are promoted directly (mem2reg subsumed).
    """

    # Alloca splitting + SSA construction: CFG untouched.
    preserved_analyses = PRESERVE_CFG
    MAX_ELEMENTS = 16

    def run_on_function(self, function, am):
        changed = self._split_arrays(function)
        from repro.passes.mem2reg import Mem2Reg
        changed |= Mem2Reg().run_on_function(function, am)
        return changed

    def _split_arrays(self, function):
        changed = False
        for inst in list(function.entry.instructions):
            if not isinstance(inst, AllocaInst):
                continue
            atype = inst.allocated_type
            if not atype.is_array() or atype.count > self.MAX_ELEMENTS:
                continue
            if not atype.element.is_scalar():
                continue
            # Every use must be a GEP with a constant in-bounds index,
            # itself used only by loads/stores.
            geps = []
            ok = True
            for user in inst.users:
                if isinstance(user, GEPInst) and user.base is inst and \
                        isinstance(user.index, ConstantInt) and \
                        0 <= user.index.value < atype.count:
                    if all(isinstance(u, LoadInst) or
                           (isinstance(u, StoreInst) and u.value is not user)
                           for u in user.users):
                        geps.append(user)
                    else:
                        ok = False
                        break
                else:
                    ok = False
                    break
            if not ok or not geps:
                continue
            scalars = []
            for element_index in range(atype.count):
                scalar = AllocaInst(atype.element,
                                    function.next_name("sroa"))
                function.entry.insert(0, scalar)
                scalars.append(scalar)
            for gep in list(geps):
                replace_and_erase(gep, scalars[gep.index.value])
            inst.erase_from_parent()
            changed = True
        return changed
