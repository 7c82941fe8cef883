"""licm: loop-invariant code motion.

Hoists pure loop-invariant instructions into the preheader.  Loads of
loop-invariant addresses are hoisted when no instruction in the loop may
write the loaded cell and the load executes on every iteration (its block
dominates every latch) — hoisting a conditional load could introduce a trap
or read an uninitialized cell, so those stay put.  Hoisting is
exit-shape-independent, so multi-exit loops get the full treatment.

Analyses come from the analysis manager: the loop nest is fetched once,
and the dominator tree is only rebuilt after a preheader insertion
changed the CFG (dominance between in-loop blocks is invariant under
that edge subdivision, so per-loop rebuilds are unnecessary).

The fixpoint body rescans the loop in program order while any
instruction is hoisted; a hoist can only enable its users, so each round
hoists what the previous one unblocked.
"""

from repro.ir import LoadInst
from repro.passes.analysis import PRESERVE_CFG, PRESERVE_NONE
from repro.passes.base import FunctionPass, register_pass
from repro.passes.loop_utils import (
    ensure_preheader,
    invariant_operands,
    is_loop_invariant,
)
from repro.passes.utils import instruction_may_write, is_pure


@register_pass("licm")
class LICM(FunctionPass):
    # Dynamic preservation: pure hoisting leaves the CFG untouched, so
    # dominator/loop analyses survive.  The moment a preheader is
    # created nothing is preserved — an inner loop's preheader becomes a
    # body block of every ENCLOSING loop, so even loop membership goes
    # stale.  (``loopivs`` is never preserved: hoisting can make a value
    # loop-invariant, turning a cached "no induction variable" verdict
    # stale-pessimistic.)
    preserved_analyses = PRESERVE_NONE

    def __init__(self):
        self._created_preheader = False

    def run_on_function(self, function, am):
        changed = False
        self._created_preheader = False
        info = am.loops(function)
        # Process inner loops first so invariants bubble outward.
        for loop in sorted(info.loops, key=lambda lp: -lp.depth):
            loop_changed, created = self._run_on_loop(function, loop, am)
            changed |= loop_changed or created
        return changed

    def preserved_for(self, function):
        if self._created_preheader:
            return PRESERVE_NONE
        # Hoisting out of a loop cannot break simplified/LCSSA form
        # (exit phis keep reading the now-invariant value), so the
        # canonical-form verdicts survive pure-hoist runs.
        return PRESERVE_CFG | frozenset({"loopcanon"})

    def _run_on_loop(self, function, loop, am):
        preheader, created = ensure_preheader(function, loop)
        if preheader is None:
            return False, False
        if created:
            self._created_preheader = True
            # Stale mid-run analyses would change hoisting decisions.
            am.invalidate(function, PRESERVE_NONE)
        dom = am.domtree(function)
        latches = loop.latches()
        changed = False
        progress = True
        while progress:
            progress = False
            for block in loop.ordered_blocks():
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue
                    if not invariant_operands(inst, loop):
                        continue
                    if is_pure(inst) and not isinstance(inst, LoadInst):
                        # Speculatively hoistable: pure and cannot trap.
                        self._hoist(inst, preheader)
                        progress = changed = True
                        continue
                    if isinstance(inst, LoadInst) and \
                            self._can_hoist_load(inst, loop, dom, latches):
                        self._hoist(inst, preheader)
                        progress = changed = True
        return changed, created

    @staticmethod
    def _hoist(inst, preheader):
        inst.parent.remove_instruction(inst)
        preheader.insert_before_terminator(inst)

    @staticmethod
    def _can_hoist_load(load, loop, dom, latches):
        if not is_loop_invariant(load.pointer, loop):
            return False
        # Must execute every iteration: its block dominates all latches.
        if not all(dom.dominates(load.parent, latch) for latch in latches):
            return False
        # In a multi-exit loop an early exit can fire before the load's
        # block on the very first iteration, so dominating the latches
        # is not "guaranteed to execute" there: the load must also
        # dominate every exiting block (any exit taken then proves the
        # load already ran).  Single-exiting loops keep the latch-only
        # criterion (the seed's behaviour for this CFG family).
        exiting = loop.exiting_blocks()
        if len(exiting) > 1 and not all(
                dom.dominates(load.parent, block) for block in exiting):
            return False
        for block in loop.ordered_blocks():
            for inst in block.instructions:
                if instruction_may_write(inst, load.pointer):
                    return False
        return True
