"""loop-rotate: convert top-tested loops into bottom-tested (do-while) form.

The header's exit test is duplicated into the preheader as a guard; the
loop then tests at the latch.  This gives later passes (licm, indvars,
unroll) a loop whose body is straight-line from header to latch.

Implementation: for a while-shaped loop
  preheader -> header{cond; condbr body, exit} ; body ... latch -> header
the header test instructions are cloned into the preheader, the preheader
branches on the cloned condition (guard), and the latch jumps to a copy of
the test instead of the header.

Multi-exit loops (``break``/early-``return`` shapes) rotate too: the
loop is first put into canonical form (LoopSimplify + LCSSA, see
:mod:`repro.passes.loop_canon`), the header's exit edge gets a private
landing block, and after rotation every *other* exit block's phis are
remapped onto the current-iteration values materialized in the new loop
top — the per-exit fixup that the old single-exit-only implementation
could not express (it funneled every escaping value through the one
exit block, which miscompiled ``break`` shapes — the qurt/isqrt bug).
"""

from repro.ir import (
    BranchInst,
    CondBranchInst,
    PhiInst,
    split_edge,
)
from repro.passes.analysis import PRESERVE_NONE
from repro.passes.base import FunctionPass, register_pass
from repro.passes.cloning import clone_instruction
from repro.passes.loop_canon import (
    ensure_canonical_loop,
    loop_is_lcssa,
    loop_is_simplified,
)
from repro.passes.loop_utils import ensure_preheader
from repro.passes.utils import is_pure


@register_pass("loop-rotate")
class LoopRotate(FunctionPass):
    preserved_analyses = PRESERVE_NONE
    MAX_HEADER_SIZE = 8

    def __init__(self):
        self._structure_dirty = False

    def run_on_function(self, function, am):
        # Single-exit rotation only rewrites existing blocks, so one
        # sweep over a loop forest stays self-consistent.  The
        # multi-exit path *creates* blocks (split exits, merged
        # latches), which invalidates the sibling/enclosing Loop
        # objects' membership sets — the sweep restarts on fresh loop
        # info after any such structural change (rotated loops become
        # bottom-tested and are skipped, so this terminates).
        changed = False
        for _ in range(64):
            info = am.loops(function)
            self._structure_dirty = False
            restart = False
            for loop in sorted(info.loops, key=lambda lp: -lp.depth):
                changed |= self._rotate(function, loop, am)
                if self._structure_dirty:
                    restart = True
                    break
            if not restart:
                break
        return changed

    def _rotate(self, function, loop, am):
        header = loop.header
        term = header.terminator()
        if not isinstance(term, CondBranchInst):
            return False  # already rotated or headerless-test shape
        in_true = term.true_target in loop.blocks
        in_false = term.false_target in loop.blocks
        if in_true == in_false:
            return False  # both or neither: not a top-tested exit
        exit_block = term.false_target if in_true else term.true_target
        if set(map(id, loop.exit_blocks())) != {id(exit_block)}:
            return self._rotate_multi_exit(function, loop, am)
        # Validate everything BEFORE the first mutation (including the
        # preheader) so a bail-out below never leaves a half-rotated
        # loop behind while reporting "no change".
        latches = loop.latches()
        if len(latches) != 1:
            return False
        latch = latches[0]
        if latch is header:
            return False  # single-block loop is already bottom-tested
        # The latch must fall through to the header unconditionally; a
        # conditionally-exiting latch means the loop is already
        # bottom-tested.
        if not isinstance(latch.terminator(), BranchInst):
            return False
        body_entry = term.true_target if in_true else term.false_target
        if exit_block in loop.blocks or body_entry is header:
            return False
        # The header must contain only phis + a small pure test sequence.
        phis = header.phis()
        tail = header.instructions[len(phis):-1]
        if len(tail) > self.MAX_HEADER_SIZE:
            return False
        for inst in tail:
            if not is_pure(inst):
                return False
        # Exit-block and body-entry shape restrictions keep the phi
        # fixups local.
        if [p for p in exit_block.predecessors()] != [header]:
            return False
        if body_entry.phis() or len(body_entry.predecessors()) != 1:
            return False
        preheader, created = ensure_preheader(function, loop)
        if preheader is None:
            return False
        if created:
            # The fresh preheader joins every ENCLOSING loop's body but
            # not their (already-computed) block sets — the sweep must
            # re-derive the forest before touching another loop, or a
            # stale outer loop would misclassify the new block as an
            # extra exit and wrongly take the multi-exit path.
            self._structure_dirty = True
        self._do_rotate(function, loop, term, in_true, phis, tail,
                        body_entry, exit_block, latch, preheader,
                        multi_exit=False)
        # Mid-run consumers (the restart's loop nest, the multi-exit
        # path's dominator tree) must not read pre-rotation analyses.
        am.invalidate(function)
        return True

    def _rotate_multi_exit(self, function, loop, am):
        """Rotation of loops with early exits (break/early-return).

        Canonical form makes the per-exit fixups expressible: dedicated
        exits + a single backedge (LoopSimplify), every escaping value
        routed through exit phis (LCSSA), and a private landing block
        for the header's own exit edge.  After the shared rotation
        steps, the other exit blocks' phis are remapped onto the
        current-iteration values in the new loop top — they referenced
        header-defined values that no longer dominate those edges.

        Any mutation here (canonicalization included) marks the loop
        forest dirty so the caller re-derives it before touching
        another loop.
        """
        changed = ensure_canonical_loop(function, loop, am)
        if changed:
            self._structure_dirty = True
        if not loop_is_simplified(loop):
            return changed
        header = loop.header
        term = header.terminator()
        in_true = term.true_target in loop.blocks
        # Canonicalization may have redirected the exit edge onto a
        # split landing block; recompute the shape from the terminator.
        body_entry = term.true_target if in_true else term.false_target
        exit_block = term.false_target if in_true else term.true_target
        if exit_block in loop.blocks or body_entry is header:
            return changed
        latches = loop.latches()
        if len(latches) != 1:
            return changed
        latch = latches[0]
        if latch is header or not isinstance(latch.terminator(),
                                             BranchInst):
            return changed
        phis = header.phis()
        tail = header.instructions[len(phis):-1]
        if len(tail) > self.MAX_HEADER_SIZE:
            return changed
        for inst in tail:
            if not is_pure(inst):
                return changed
        if body_entry.phis() or len(body_entry.predecessors()) != 1:
            return changed
        # The header's exit edge needs a private landing block: the
        # guard and the rotated latch will both target it.
        if exit_block.predecessors() != [header]:
            exit_block = split_edge(header, exit_block,
                                    name=function.next_name("rotexit"))
            changed = True
            self._structure_dirty = True
            am.invalidate(function)
        changed |= ensure_canonical_loop(function, loop, am, lcssa=True)
        if changed:
            self._structure_dirty = True
        if not loop_is_lcssa(loop):
            return changed
        preheader = loop.preheader()
        if preheader is None:
            return changed
        self._do_rotate(function, loop, term, in_true, phis, tail,
                        body_entry, exit_block, latch, preheader,
                        multi_exit=True)
        self._structure_dirty = True
        am.invalidate(function)
        return True

    def _do_rotate(self, function, loop, term, in_true, phis, tail,
                   body_entry, exit_block, latch, preheader, multi_exit):
        header = loop.header
        # 1. Clone the test chain into the preheader as the entry guard
        #    (header phis resolve to their initial values).
        guard_map = {}
        for phi in phis:
            guard_map[id(phi)] = phi.incoming_value_for(preheader)
        for inst in tail:
            clone = clone_instruction(inst, guard_map, function, "rot")
            preheader.insert_before_terminator(clone)
            guard_map[id(inst)] = clone
        guard_cond = guard_map[id(term.condition)]
        preheader.set_terminator(
            CondBranchInst(guard_cond, body_entry, exit_block)
            if in_true else
            CondBranchInst(guard_cond, exit_block, body_entry))

        # 2. body_entry becomes the new loop top: merge phis join the
        #    guard path (initial values) with the back edge (header phi),
        #    and the whole tail chain is re-materialized there for the
        #    current iteration.
        merge_of = {}
        for phi in list(phis):
            init = phi.incoming_value_for(preheader)
            merge = PhiInst(phi.type, function.next_name("rphi"))
            body_entry.insert(0, merge)
            merge.add_incoming(init, preheader)
            merge.add_incoming(phi, header)
            merge_of[id(phi)] = merge
        body_map = dict(merge_of)
        insert_at = len(body_entry.phis())
        for inst in tail:
            clone = clone_instruction(inst, body_map, function, "rot")
            body_entry.insert(insert_at, clone)
            insert_at += 1
            body_map[id(inst)] = clone

        def current_iteration_value(value):
            """Value as seen during the current iteration inside the
            rotated body (phis via their merge, tail via its clone)."""
            return body_map.get(id(value), value)

        # Rewire in-loop uses (outside the old header) of phis and tail
        # values to the body_entry versions.
        for original in list(phis) + list(tail):
            replacement = body_map[id(original)]
            for user, index in list(original.uses):
                if user is replacement or user in body_map.values():
                    continue
                if id(user) in {id(c) for c in body_map.values()}:
                    continue
                if user.parent in loop.blocks and \
                        user.parent is not header and \
                        user.parent is not body_entry:
                    user.set_operand(index, replacement)
                elif user.parent is body_entry and \
                        not isinstance(user, PhiInst) and \
                        user not in body_map.values():
                    user.set_operand(index, replacement)

        # 3. Clone the test into the latch: it now decides back edge vs
        #    exit using the *updated* values (phi incoming on the back
        #    edge, remapped through the body versions).
        latch_map = {}
        for phi in phis:
            incoming = phi.incoming_value_for(latch)
            latch_map[id(phi)] = current_iteration_value(incoming)
        for inst in tail:
            clone = clone_instruction(inst, latch_map, function, "rot")
            latch.insert_before_terminator(clone)
            latch_map[id(inst)] = clone
        latch_cond = latch_map[id(term.condition)]
        latch.set_terminator(CondBranchInst(latch_cond, header, exit_block)
                             if in_true else
                             CondBranchInst(latch_cond, exit_block, header))

        # 4. The old header now unconditionally re-enters the body; its
        #    phi incoming values on the back edge are remapped to the
        #    body versions so they dominate the latch edge.
        header.set_terminator(BranchInst(body_entry))
        for phi in phis:
            for index, (value, pred) in enumerate(list(phi.incoming())):
                if pred is latch:
                    phi.set_operand(phi.incoming_blocks.index(pred),
                                    current_iteration_value(value))
            phi.remove_incoming(preheader)

        # 5. The exit block's predecessors changed from {header} to
        #    {preheader, latch}: rebuild its phis and give any other
        #    out-of-loop use of loop values a merge phi.
        for inst in list(exit_block.instructions):
            if isinstance(inst, PhiInst):
                entries = list(inst.incoming())
                inst.drop_all_references()
                inst.incoming_blocks = []
                for value, pred in entries:
                    if pred is header:
                        inst.add_incoming(guard_map.get(id(value), value),
                                          preheader)
                        inst.add_incoming(latch_map.get(id(value), value),
                                          latch)
                    else:
                        inst.add_incoming(value, pred)
        if multi_exit:
            # Per-exit LCSSA fixup: the other exit blocks' phis read
            # header-defined values (old phis / tail) whose defs no
            # longer dominate those exit edges — the guard path enters
            # the body without executing the old header.  The
            # body_entry versions carry the current iteration's values
            # and dominate every body block, so each in-loop entry is
            # remapped through ``body_map``.
            for other_exit in loop.exit_blocks():
                if other_exit is exit_block:
                    continue
                for phi in other_exit.phis():
                    for index, (value, pred) in \
                            enumerate(list(phi.incoming())):
                        if pred in loop.blocks and \
                                id(value) in body_map:
                            phi.set_operand(index, body_map[id(value)])
            return
        exit_fix = {}
        latch_side = dict(latch_map)
        for phi in phis:
            latch_side.setdefault(id(phi), latch_map[id(phi)])
        for inst in list(phis) + list(tail):
            for user, index in list(inst.uses):
                if user.parent is None:
                    continue
                if user.parent in loop.blocks or \
                        user.parent is preheader or \
                        user.parent is body_entry:
                    continue
                if isinstance(user, PhiInst) and \
                        user.parent is exit_block:
                    continue
                key = id(inst)
                if key not in exit_fix:
                    merge = PhiInst(inst.type, function.next_name("xphi"))
                    exit_block.insert(0, merge)
                    merge.add_incoming(guard_map.get(key, inst),
                                       preheader)
                    merge.add_incoming(latch_side.get(key, inst), latch)
                    exit_fix[key] = merge
                if user is not exit_fix[key]:
                    user.set_operand(index, exit_fix[key])
