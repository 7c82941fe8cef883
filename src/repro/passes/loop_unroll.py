"""loop-unroll: full unrolling of small constant-trip-count loops.

Full unrolling replaces a counted loop with ``trip_count`` copies of its
body laid out sequentially.  Partial unrolling is intentionally handled by
``loop-vectorize`` (interleaved unroll); this phase performs the classic
"small loop disappears" transformation, which interacts strongly with
sccp/instcombine (everything becomes straight-line constant math).

Multi-exit loops unroll too, on canonical form (LoopSimplify + LCSSA):

- when *every* exit condition is an IV-vs-constant compare, the exact
  per-iteration branch decisions are simulated up front
  (``loop_canon.simulate_exits``) and every exit test straightens — the
  early-exit trip count can be far below the counted bound
  (``for (i = 0; i < 1000; i++) { if (i == 5) break; ... }`` unrolls to
  six iterations);
- otherwise the *counted* exit alone bounds the iteration space and the
  data-dependent early exits stay live in every copy, with the exit
  phis extended per copy.
"""

from repro.ir import (
    BranchInst,
    CondBranchInst,
    Instruction,
    PhiInst,
)
from repro.passes.analysis import PRESERVE_NONE
from repro.passes.base import FunctionPass, register_pass
from repro.passes.cloning import clone_region
from repro.passes.loop_canon import (
    ensure_canonical_loop,
    loop_is_lcssa,
    loop_is_simplified,
)
from repro.passes.loop_utils import ensure_preheader
from repro.passes.utils import remove_block_from_phis


@register_pass("loop-unroll")
class LoopUnroll(FunctionPass):
    preserved_analyses = PRESERVE_NONE
    MAX_TRIP_COUNT = 16
    MAX_BODY_INSTRUCTIONS = 40

    def run_on_function(self, function, am):
        changed = False
        # One unroll per run: loop structures go stale after a transform.
        # Innermost loops first; rerunning the phase peels outward.
        info = am.loops(function)
        for loop in info.innermost_loops():
            unrolled, created = self._unroll(function, loop, am)
            changed |= created
            if unrolled:
                changed = True
                break
        return changed

    def _unroll(self, function, loop, am):
        preheader, created = ensure_preheader(function, loop)
        if preheader is None:
            return False, False
        if len(loop.exiting_blocks()) != 1 or \
                len(loop.exit_blocks()) != 1:
            return self._unroll_multi_exit(function, loop, am, created)
        trip_count, iv = am.loopivs(function).trip_count(
            loop, preheader, self.MAX_TRIP_COUNT)
        if trip_count is None or trip_count == 0:
            return False, created
        body_size = sum(len(b.instructions) for b in loop.blocks)
        if body_size > self.MAX_BODY_INSTRUCTIONS:
            return False, created
        latches = loop.latches()
        if len(latches) != 1:
            return False, created
        latch = latches[0]
        exiting = loop.exiting_blocks()
        if len(exiting) != 1:
            return False, created
        if exiting[0] is not loop.header and exiting[0] is not latch:
            return False, created
        exit_blocks = loop.exit_blocks()
        if len(exit_blocks) != 1:
            return False, created
        exit_block = exit_blocks[0]
        header = loop.header
        header_phis = header.phis()
        # Genuine top-tested: the exit decision happens at a header whose
        # body (IV update) has not yet run in that iteration.  Rotated
        # single-block shapes with the update in the exiting header are
        # bottom-tested and resolve like latch-exits (this mirrors
        # constant_trip_count's classification).
        exit_from_header = (exiting[0] is header
                            and header is not latch
                            and iv.update.parent is not header)

        # For top-tested loops, a value defined in the header (other
        # than a phi) observed after the loop would need one extra partial
        # evaluation of the header; bail out in that rare case.
        if exit_from_header:
            for inst in header.instructions:
                if isinstance(inst, PhiInst) or inst.is_terminator():
                    continue
                for user in inst.users:
                    if user.parent not in loop.blocks:
                        return False, created

        blocks = [b for b in function.blocks if b in loop.blocks]
        copies = []
        for iteration in range(1, trip_count):
            copies.append(clone_region(blocks, function, f"it{iteration}"))

        def latch_value(phi, vmap):
            original = phi.incoming_value_for(latch)
            return vmap.get(id(original), original)

        # Wire iterations together: iteration k's header phis become the
        # (k-1)-th iteration's latch values; (k-1)-th latch jumps to k's
        # header copy.
        for iteration, (value_map, block_map) in enumerate(copies, start=1):
            cloned_header = block_map[id(header)]
            prev_map = {} if iteration == 1 else copies[iteration - 2][0]
            for phi in header_phis:
                cloned_phi = value_map[id(phi)]
                incoming = latch_value(phi, prev_map)
                cloned_phi.replace_all_uses_with(incoming)
                cloned_phi.erase_from_parent()
                value_map[id(phi)] = incoming
            prev_latch = latch if iteration == 1 else \
                copies[iteration - 2][1][id(latch)]
            # Exit-phi entries for the original latch are remapped (not
            # removed) after wiring, so they keep carrying the edge value.
            prev_latch.set_terminator(BranchInst(cloned_header))

        final_map = copies[-1][0] if trip_count > 1 else {}
        final_latch = latch if trip_count == 1 else copies[-1][1][id(latch)]

        def final_phi_value(phi):
            if trip_count == 1:
                return phi.incoming_value_for(preheader)
            return final_map[id(phi)]

        def resolve_exit_value(value):
            """Value observed on the (unique) exit edge after unrolling."""
            if isinstance(value, PhiInst) and value in header_phis:
                if exit_from_header:
                    return latch_value(value, final_map)
                return final_phi_value(value)
            if isinstance(value, Instruction) and \
                    value.parent in loop.blocks:
                return final_map.get(id(value), value)
            return value

        # Exit phis: entries from the loop now arrive via final_latch.
        for phi in exit_block.phis():
            for pred in list(phi.incoming_blocks):
                if pred in loop.blocks:
                    index = phi.incoming_blocks.index(pred)
                    value = phi.operands[index]
                    phi.set_operand(index, resolve_exit_value(value))
                    phi.replace_incoming_block(pred, final_latch)

        # Direct out-of-loop uses (exit dominated by the loop).
        for block in blocks:
            for inst in block.instructions:
                for user, index in list(inst.uses):
                    if user.parent is None:
                        continue
                    if user.parent not in loop.blocks and \
                            not self._is_clone_user(user, copies):
                        if isinstance(user, PhiInst) and \
                                user.parent is exit_block:
                            continue  # handled above
                        user.set_operand(index, resolve_exit_value(inst))

        # Original header phis collapse to their initial values for
        # iteration 0.
        for phi in header_phis:
            initial = phi.incoming_value_for(preheader)
            phi.replace_all_uses_with(initial)
            phi.erase_from_parent()

        # Final latch leaves the loop unconditionally.
        final_latch.set_terminator(BranchInst(exit_block))

        # Straighten every remaining per-iteration exit test (they are all
        # known taken: the trip count is exact).
        self._straighten_exits(loop, copies, exit_block, trip_count)
        return True, created

    def _unroll_multi_exit(self, function, loop, am, created):
        """Full unrolling of early-exit loops on canonical form.

        Returns ``(unrolled, changed)``; ``changed`` covers the
        canonicalization edits even when unrolling then bails.
        """
        changed = created
        changed |= ensure_canonical_loop(function, loop, am, lcssa=True)
        if not (loop_is_simplified(loop) and loop_is_lcssa(loop)):
            return False, changed
        preheader = loop.preheader()
        if preheader is None:
            return False, changed
        ivs = am.loopivs(function)
        dom = am.domtree(function)
        plan = ivs.exit_plan(loop, preheader, dom,
                             max_iterations=self.MAX_TRIP_COUNT)
        counted_block = None
        if plan is not None:
            n_copies = plan.n_entered
        else:
            # Data-dependent early exits: the counted exit alone bounds
            # the iteration space; the early exits stay live per copy.
            bound = ivs.counted_bound(loop, preheader, dom,
                                      max_iterations=self.MAX_TRIP_COUNT)
            if bound is None:
                return False, changed
            n_copies, _iv, counted_block = bound
        if n_copies > self.MAX_TRIP_COUNT:
            return False, changed
        body_size = sum(len(b.instructions) for b in loop.blocks)
        if body_size > self.MAX_BODY_INSTRUCTIONS:
            return False, changed

        header = loop.header
        latch = loop.latches()[0]
        header_phis = header.phis()
        exit_blocks = loop.exit_blocks()
        # Per-exit-block original in-loop phi entries, captured before
        # any rewiring (the rebuild below re-derives every entry from
        # these plus the per-copy value maps).
        original_entries = {}
        for exit_block in exit_blocks:
            original_entries[id(exit_block)] = [
                (phi, list(phi.incoming())) for phi in exit_block.phis()]

        blocks = loop.ordered_blocks()
        copies = []
        for iteration in range(1, n_copies):
            copies.append(clone_region(blocks, function, f"it{iteration}"))

        def latch_value(phi, vmap):
            original = phi.incoming_value_for(latch)
            return vmap.get(id(original), original)

        # Wire iterations together: iteration k's header phis become the
        # (k-1)-th iteration's latch values; the (k-1)-th latch's
        # *backedge* is redirected to k's header copy.  Unlike the
        # single-exit path the terminator is redirected, not replaced —
        # a conditionally-exiting latch keeps its live early exit.
        for iteration, (value_map, block_map) in enumerate(copies,
                                                           start=1):
            cloned_header = block_map[id(header)]
            prev_map = {} if iteration == 1 else copies[iteration - 2][0]
            for phi in header_phis:
                cloned_phi = value_map[id(phi)]
                incoming = latch_value(phi, prev_map)
                cloned_phi.replace_all_uses_with(incoming)
                cloned_phi.erase_from_parent()
                value_map[id(phi)] = incoming
            if iteration == 1:
                prev_latch, prev_header = latch, header
            else:
                prev_latch = copies[iteration - 2][1][id(latch)]
                prev_header = copies[iteration - 2][1][id(header)]
            prev_latch.terminator().replace_successor(prev_header,
                                                      cloned_header)

        def copy_block(block, iteration):
            if iteration == 0:
                return block
            return copies[iteration - 1][1][id(block)]

        def copy_value(value, iteration):
            if iteration == 0:
                return value  # header phis resolve via the final RAUW
            return copies[iteration - 1][0].get(id(value), value)

        # Straighten the decided exit tests.  In a copy, the in-loop
        # successor is a clone block, so membership is tested against
        # the (stable) exit-block set.
        exit_ids = {id(b) for b in exit_blocks}

        def straighten(block, fired):
            term = block.terminator()
            if not isinstance(term, CondBranchInst):
                return  # rewired to the next copy already
            targets = [s for s in term.successors()
                       if (id(s) in exit_ids) == fired]
            if len(targets) != 1:
                return
            block.set_terminator(BranchInst(targets[0]))

        if plan is not None:
            for iteration, record in enumerate(plan.iterations):
                for exiting, fired in record:
                    straighten(copy_block(exiting, iteration), fired)
        else:
            for iteration in range(n_copies):
                straighten(copy_block(counted_block, iteration),
                           iteration == n_copies - 1)

        # Rebuild every exit block's phis from the surviving edges:
        # for each original in-loop entry (value, pred), each copy of
        # ``pred`` that still targets the exit contributes the copy's
        # value.  LCSSA guarantees downstream uses read only these phis.
        for exit_block in exit_blocks:
            for phi, entries in original_entries[id(exit_block)]:
                phi.drop_all_references()
                phi.incoming_blocks = []
                for value, pred in entries:
                    if pred not in loop.blocks:
                        phi.add_incoming(value, pred)
                        continue
                    for iteration in range(n_copies):
                        source = copy_block(pred, iteration)
                        if exit_block in source.successors():
                            phi.add_incoming(
                                copy_value(value, iteration), source)

        # Original header phis collapse to their initial values for
        # iteration 0 (this also resolves the iteration-0 exit-phi
        # entries added above).
        for phi in header_phis:
            initial = phi.incoming_value_for(preheader)
            phi.replace_all_uses_with(initial)
            phi.erase_from_parent()
        return True, True

    @staticmethod
    def _is_clone_user(user, copies):
        for value_map, block_map in copies:
            if id(user.parent) in {id(b) for b in block_map.values()}:
                return True
        return False

    @staticmethod
    def _straighten_exits(loop, copies, exit_block, trip_count):
        exiting_origs = loop.exiting_blocks()
        for iteration in range(trip_count):
            block_map = None if iteration == 0 else copies[iteration - 1][1]
            for orig in exiting_origs:
                block = orig if block_map is None else block_map[id(orig)]
                term = block.terminator()
                if not isinstance(term, CondBranchInst):
                    continue
                internal = [s for s in term.successors()
                            if s is not exit_block]
                if len(internal) == 1:
                    block.set_terminator(BranchInst(internal[0]))
                    remove_block_from_phis(block, exit_block)
