"""simplifycfg: CFG cleanup.

Folds constant branches, removes unreachable blocks, merges straight-line
block chains, skips empty forwarding blocks, collapses trivial phis, and
if-converts small diamonds into selects.

One fixpoint body applies every rule to every block, in a fixed
priority order, while any rule makes progress (the rules interact: a
merge exposes a diamond, a fold orphans a region).

Every guard query reads the IR-maintained predecessor links
(``Block.predecessors()`` is O(preds)), so no rule rebuilds a
predecessors map after CFG edits.
"""

from repro.ir import (
    BranchInst,
    CondBranchInst,
    SelectInst,
)
from repro.ir.cfg import reachable_blocks
from repro.passes.analysis import PRESERVE_NONE
from repro.passes.base import FunctionPass, register_pass
from repro.passes.utils import (
    constant_fold_terminator,
    remove_block_from_phis,
)


@register_pass("simplifycfg")
class SimplifyCFG(FunctionPass):
    # CFG restructuring: preserves nothing.
    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        changed = False
        progress = True
        while progress:
            progress = False
            progress |= self._fold_constant_branches(function)
            progress |= self._remove_unreachable(function)
            progress |= self._collapse_trivial_phis(function)
            progress |= self._merge_chains(function)
            progress |= self._skip_forwarding_blocks(function)
            progress |= self._diamond_to_select(function)
            changed |= progress
        return changed

    @staticmethod
    def _fold_constant_branches(function):
        changed = False
        for block in function.blocks:
            changed |= constant_fold_terminator(block)
        return changed

    @staticmethod
    def _remove_unreachable(function):
        reachable = reachable_blocks(function)
        dead = [b for b in function.blocks if b not in reachable]
        if not dead:
            return False
        dead_set = set(dead)
        for block in dead:
            for succ in block.successors():
                if succ not in dead_set:
                    remove_block_from_phis(block, succ)
        for block in dead:
            # Break def-use links into the live region first.
            for inst in list(block.instructions):
                from repro.ir import UndefValue
                if not inst.type.is_void() and inst.is_used():
                    inst.replace_all_uses_with(UndefValue(inst.type))
            block.remove_from_parent()
        return True

    # -- per-block rules ----------------------------------------------------
    @staticmethod
    def _collapse_phis_at(block):
        """Collapse trivial phis of one block."""
        changed = False
        preds = block.predecessors()
        for phi in list(block.phis()):
            value = None
            if len(preds) == 1 and len(phi.operands) == 1:
                value = phi.operands[0]
            else:
                values = [v for v in phi.operands if v is not phi]
                if values and all(v is values[0] for v in values):
                    value = values[0]
            if value is None:
                continue
            phi.replace_all_uses_with(value)
            phi.erase_from_parent()
            changed = True
        return changed

    @staticmethod
    def _collapse_trivial_phis(function):
        changed = False
        progress = True
        while progress:
            progress = False
            for block in function.blocks:
                progress |= SimplifyCFG._collapse_phis_at(block)
            changed |= progress
        return changed

    @staticmethod
    def _merge_chain_at(block):
        """Merge ``block -> succ`` when block's only successor is succ
        and succ's only predecessor is block."""
        function = block.parent
        if function is None:
            return False
        term = block.terminator()
        if not isinstance(term, BranchInst):
            return False
        succ = term.target
        if succ is block or succ is function.entry:
            return False
        if len(succ.predecessors()) != 1:
            return False
        # Fold phis in succ (single predecessor).
        for phi in list(succ.phis()):
            phi.replace_all_uses_with(phi.incoming_value_for(block))
            phi.erase_from_parent()
        term.erase_from_parent()
        after_blocks = succ.successors()
        # Move succ's body (terminator included) into block; the
        # after-blocks' maintained predecessor switches from succ to
        # block as the terminator moves.
        block.take_instructions_from(succ)
        for after in after_blocks:
            for phi in after.phis():
                phi.replace_incoming_block(succ, block)
        function.remove_block(succ)
        return True

    @staticmethod
    def _merge_chains(function):
        changed = False
        progress = True
        while progress:
            progress = False
            for block in list(function.blocks):
                if SimplifyCFG._merge_chain_at(block):
                    progress = True
                    changed = True
                    break
        return changed

    @staticmethod
    def _skip_forwarding_at(block):
        """Rewire predecessors around ``block`` when it is an empty
        block that just ``br``'s on."""
        function = block.parent
        if function is None:
            return False
        if block is function.entry:
            return False
        if len(block.instructions) != 1:
            return False
        term = block.terminator()
        if not isinstance(term, BranchInst):
            return False
        target = term.target
        if target is block:
            return False
        # Safe only if target's phis can absorb the rewire: for each
        # predecessor P of block, target must not already have P as a
        # predecessor (else phi would need two entries with possibly
        # different values), unless target has no phis.
        preds = block.predecessors()
        if not preds:
            return False
        target_preds = target.predecessors()
        if target.phis():
            if any(p in target_preds for p in preds):
                return False
        for pred in preds:
            pred.terminator().replace_successor(block, target)
        for phi in target.phis():
            # Splice the rewired entries where the forwarded entry sat,
            # so the resulting incoming order does not depend on when
            # this rule fires.
            pairs = []
            for value, incoming in zip(phi.operands,
                                       phi.incoming_blocks):
                if incoming is block:
                    pairs.extend((value, pred) for pred in preds)
                else:
                    pairs.append((value, incoming))
            phi.drop_all_references()
            phi.incoming_blocks = []
            for value, incoming in pairs:
                phi.add_incoming(value, incoming)
        block.remove_from_parent()
        return True

    @staticmethod
    def _skip_forwarding_blocks(function):
        changed = False
        for block in list(function.blocks):
            changed |= SimplifyCFG._skip_forwarding_at(block)
        return changed

    @staticmethod
    def _diamond_at(block):
        """If-convert a diamond/triangle branching at ``block`` whose
        arms are empty.

        ``if (c) x = a; else x = b;`` after mem2reg becomes a diamond
        whose arms hold no instructions and a phi at the join — convert
        the phi into a select and fold the branch.
        """
        function = block.parent
        if function is None:
            return False
        term = block.terminator()
        if not isinstance(term, CondBranchInst):
            return False
        true_block, false_block = term.true_target, term.false_target
        if true_block is false_block:
            return False

        def is_empty_forward(candidate, join):
            return (len(candidate.instructions) == 1
                    and isinstance(candidate.terminator(), BranchInst)
                    and candidate.terminator().target is join
                    and candidate.predecessors() == [block])

        join = None
        arm_true = arm_false = None
        # Diamond: block -> t -> join, block -> f -> join.
        if (isinstance(true_block.terminator(), BranchInst)
                and isinstance(false_block.terminator(), BranchInst)
                and true_block.terminator().target
                is false_block.terminator().target):
            join = true_block.terminator().target
            if not (is_empty_forward(true_block, join)
                    and is_empty_forward(false_block, join)):
                return False
            arm_true, arm_false = true_block, false_block
        # Triangle: block -> t -> join, block -> join.
        elif (isinstance(true_block.terminator(), BranchInst)
                and true_block.terminator().target is false_block):
            join = false_block
            if not is_empty_forward(true_block, join):
                return False
            arm_true, arm_false = true_block, block
        elif (isinstance(false_block.terminator(), BranchInst)
                and false_block.terminator().target is true_block):
            join = true_block
            if not is_empty_forward(false_block, join):
                return False
            arm_true, arm_false = block, false_block
        else:
            return False
        if join is block or not join.phis():
            return False
        join_preds = join.predecessors()
        if sorted(map(id, join_preds)) != sorted(
                map(id, {id(arm_true): arm_true,
                         id(arm_false): arm_false}.values())):
            return False
        condition = term.condition
        insert_at = block.instructions.index(term)
        for phi in list(join.phis()):
            tv = phi.incoming_value_for(arm_true)
            fv = phi.incoming_value_for(arm_false)
            if tv is fv:
                phi.replace_all_uses_with(tv)
                phi.erase_from_parent()
                continue
            select = SelectInst(condition, tv, fv,
                                function.next_name("sel"))
            block.insert(insert_at, select)
            insert_at += 1
            phi.replace_all_uses_with(select)
            phi.erase_from_parent()
        block.set_terminator(BranchInst(join))
        for arm in (arm_true, arm_false):
            if arm is not block:
                arm.remove_from_parent()
        return True

    @staticmethod
    def _diamond_to_select(function):
        changed = False
        for block in list(function.blocks):
            if block.parent is None:
                continue
            changed |= SimplifyCFG._diamond_at(block)
        return changed
