"""Smaller loop phases: loop-deletion, indvars, loop-idiom, loop-sink,
loop-load-elim, loop-distribute, loop-unswitch.
"""

from repro.ir import (
    BinaryInst,
    BranchInst,
    CallInst,
    CondBranchInst,
    ConstantInt,
    GEPInst,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
)
from repro.ir.types import I64
from repro.passes.analysis import PRESERVE_CFG, PRESERVE_NONE
from repro.passes.base import FunctionPass, register_pass
from repro.passes.cloning import clone_instruction, clone_region
from repro.passes.loop_canon import (
    ensure_canonical_loop,
    fixup_exit_phis,
    loop_is_lcssa,
    loop_is_simplified,
)
from repro.passes.loop_utils import (
    ensure_preheader,
    exit_phis_reference_loop,
    is_loop_invariant,
    loop_body_is_pure,
    loop_values_escape,
)
from repro.passes.utils import (
    delete_dead_instructions,
    instruction_may_write,
    is_pure,
    must_alias,
    remove_block_from_phis,
    replace_and_erase,
)


def _drop_blocks(function, blocks):
    """Detach and remove ``blocks`` through
    :meth:`repro.ir.function.Function.remove_block` (loop teardown:
    operand references drop, maintained CFG edges disconnect, and any
    former successor's phi incoming lists are scrubbed in one step)."""
    for block in blocks:
        function.remove_block(block)


@register_pass("loop-deletion")
class LoopDeletion(FunctionPass):
    """Delete loops with no side effects whose results are unused.

    Requires a provably-finite loop (constant trip count) so that deleting
    it cannot turn a non-terminating program into a terminating one.
    """

    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        info = am.loops(function)
        mutated = False
        for loop in info.innermost_loops():
            deleted, created = self._delete(function, loop, am)
            mutated |= created
            if deleted:
                return True  # structures stale; one deletion per run
        return mutated

    def _delete(self, function, loop, am):
        preheader, created = ensure_preheader(function, loop)
        if preheader is None:
            return False, False
        if len(loop.exiting_blocks()) != 1 or \
                len(loop.exit_blocks()) != 1:
            return self._delete_multi_exit(function, loop, am, created)
        trip_count, _ = am.loopivs(function).trip_count(loop, preheader)
        if trip_count is None:
            return False, created
        if not loop_body_is_pure(loop):
            return False, created
        exit_blocks = loop.exit_blocks()
        if len(exit_blocks) != 1:
            return False, created
        exit_block = exit_blocks[0]
        # No value computed inside may be used outside, and exit phis
        # with entries from loop blocks would lose a predecessor.
        if loop_values_escape(loop) or \
                exit_phis_reference_loop([exit_block], loop):
            return False, created
        # Rewire the preheader straight to the exit, drop the loop blocks.
        preheader.set_terminator(BranchInst(exit_block))
        _drop_blocks(function, loop.ordered_blocks())
        return True, created

    def _delete_multi_exit(self, function, loop, am, created):
        """Delete a pure, provably-finite early-exit loop when all its
        (dedicated) exits trivially converge on one successor.

        Which exit fires at runtime is then irrelevant: every exit
        block is a phi-free lone branch to the same join, so the
        preheader can jump straight there.  Finiteness follows from the
        counted exit alone — early exits only leave *sooner*.
        """
        changed = created
        changed |= ensure_canonical_loop(function, loop, am)
        if not loop_is_simplified(loop):
            return False, changed
        preheader = loop.preheader()
        dom = am.domtree(function)
        if am.loopivs(function).counted_bound(loop, preheader,
                                              dom) is None:
            return False, changed
        if not loop_body_is_pure(loop):
            return False, changed
        if loop_values_escape(loop):
            return False, changed
        exit_blocks = loop.exit_blocks()
        doomed = []
        if len(exit_blocks) == 1:
            # Several exiting edges, one exit block (the common
            # post-simplifycfg ``break`` shape): whichever edge fires,
            # control lands there — jump straight to it.
            target = exit_blocks[0]
            for phi in target.phis():
                if any(b in loop.blocks for b in phi.incoming_blocks):
                    return False, changed
        else:
            # Distinct exit blocks must trivially converge: each is a
            # phi-free lone branch to one common join.
            target = None
            for exit_block in exit_blocks:
                if any(p not in loop.blocks
                       for p in exit_block.predecessors()):
                    return False, changed
                if len(exit_block.instructions) != 1 or \
                        not isinstance(exit_block.terminator(),
                                       BranchInst):
                    return False, changed
                succ = exit_block.terminator().target
                if target is None:
                    target = succ
                elif target is not succ:
                    return False, changed
            if target is None or target in loop.blocks or \
                    target is preheader or target in exit_blocks or \
                    target.phis():
                return False, changed
            doomed = exit_blocks
        preheader.set_terminator(BranchInst(target))
        _drop_blocks(function, loop.ordered_blocks() + doomed)
        am.invalidate(function)
        return True, True


@register_pass("indvars")
class IndVarSimplify(FunctionPass):
    """Induction-variable strength reduction.

    ``iv * C`` inside a canonical loop is rewritten into a second
    induction variable updated by ``+ step*C`` — replacing a multiply in
    the loop body with an add.
    """

    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        changed = False
        info = am.loops(function)
        for loop in sorted(info.loops, key=lambda lp: -lp.depth):
            changed |= self._strength_reduce(function, loop, am)
        return changed

    def _strength_reduce(self, function, loop, am):
        preheader, created = ensure_preheader(function, loop)
        if preheader is None:
            return False
        iv = am.loopivs(function).induction_variable(loop, preheader)
        if iv is None:
            return created
        latches = loop.latches()
        if len(latches) != 1:
            return created
        latch = latches[0]
        changed = created
        for user in list(iv.phi.users):
            if not isinstance(user, BinaryInst) or user.opcode != "mul":
                continue
            if user.parent not in loop.blocks:
                continue
            factor = None
            if user.lhs is iv.phi and isinstance(user.rhs, ConstantInt):
                factor = user.rhs.value
            elif user.rhs is iv.phi and isinstance(user.lhs, ConstantInt):
                factor = user.lhs.value
            if factor is None or factor == 0:
                continue
            # The scaled IV phi tracks iv*C in lockstep with the original
            # phi, so it can replace the multiply anywhere in the loop.
            new_phi = PhiInst(I64, function.next_name("iv"))
            loop.header.insert(0, new_phi)
            # start' = start * C (computed in the preheader).
            start = iv.phi.incoming_value_for(preheader)
            if isinstance(start, ConstantInt):
                start_scaled = ConstantInt(I64, start.value * factor)
            else:
                start_scaled = BinaryInst("mul", start,
                                          ConstantInt(I64, factor))
                start_scaled.name = function.next_name("ivs")
                preheader.insert_before_terminator(start_scaled)
            update = BinaryInst("add", new_phi,
                                ConstantInt(I64, iv.step * factor))
            update.name = function.next_name("ivu")
            latch.insert_before_terminator(update)
            new_phi.add_incoming(start_scaled, preheader)
            new_phi.add_incoming(update, latch)
            # Preserve phi ordering invariant: ensure incoming matches
            # preds; header preds are exactly {preheader, latch}.
            replace_and_erase(user, new_phi)
            changed = True
        return changed


@register_pass("loop-idiom")
class LoopIdiom(FunctionPass):
    """Recognize memset loops: ``for (i=a;i<b;i++) arr[i] = C`` becomes a
    ``memset`` intrinsic executed in the preheader (the backend lowers it
    to a fast block operation)."""

    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        info = am.loops(function)
        mutated = False
        for loop in info.innermost_loops():
            matched, created = self._match_memset(function, loop, am)
            mutated |= created
            if matched:
                return True
        return mutated

    def _match_memset(self, function, loop, am):
        if len(loop.exiting_blocks()) != 1 or \
                len(loop.exit_blocks()) != 1:
            return self._match_memset_multi_exit(function, loop, am)
        # cond/body/step frontend shape or rotated 1–2 block shapes.
        if len(loop.blocks) > 3:
            return False, False
        preheader, created = ensure_preheader(function, loop)
        if preheader is None:
            return False, False
        trip_count, iv = am.loopivs(function).trip_count(loop, preheader)
        if trip_count is None or trip_count <= 0 or iv is None:
            return False, created
        if iv.step != 1:
            return False, created
        # The body must be exactly: gep(base, iv) ; store C -> gep ; iv
        # update ; compare ; branch.  Everything else — calls, loads,
        # and anything that may trap (a division by a non-constant
        # elides its trap if the loop is deleted) — disqualifies.
        store = None
        for block in loop.ordered_blocks():
            for inst in block.instructions:
                if isinstance(inst, StoreInst):
                    if store is not None:
                        return False, created
                    store = inst
                elif not (isinstance(inst, PhiInst)
                          or inst.is_terminator()
                          or is_pure(inst)):
                    return False, created
        if store is None:
            return False, created
        pointer = store.pointer
        if not isinstance(pointer, GEPInst):
            return False, created
        if pointer.index is not iv.phi:
            return False, created
        if not is_loop_invariant(pointer.base, loop):
            return False, created
        value = store.value
        if not value.is_constant() and not is_loop_invariant(value, loop):
            return False, created
        if value.is_constant() is False and \
                isinstance(value, Instruction) and \
                value.parent in loop.blocks:
            return False, created
        # Loop results must not escape.
        exit_blocks = loop.exit_blocks()
        if len(exit_blocks) != 1:
            return False, created
        if loop_values_escape(loop) or \
                exit_phis_reference_loop(exit_blocks, loop):
            return False, created
        # Element size must be one cell (scalars only).
        if pointer.type.pointee.size_cells() != 1:
            return False, created
        if not isinstance(iv.start, ConstantInt):
            return False, created
        # Build: dest = gep(base, start); memset(dest, value, trip_count).
        dest = GEPInst(pointer.base, iv.start)
        dest.name = function.next_name("ms")
        preheader.insert_before_terminator(dest)
        memset = CallInst("memset", [dest, value,
                                     ConstantInt(I64, trip_count)])
        preheader.insert_before_terminator(memset)
        # Delete the loop (same mechanics as loop-deletion).
        exit_block = exit_blocks[0]
        preheader.set_terminator(BranchInst(exit_block))
        _drop_blocks(function, loop.ordered_blocks())
        return True, created

    def _match_memset_multi_exit(self, function, loop, am):
        """Memset recognition on early-exit counted loops.

        When every exit condition is an IV-vs-constant compare, the
        exact number of store executions follows from the per-exit
        simulation (``for (i = 0; i < 64; i++) { if (i == 10) break;
        a[i] = C; }`` memsets 10 cells).  The store must run on every
        completed iteration (its block dominates the latch); the final,
        partially-executed iteration contributes iff the store's block
        dominates the firing exit.
        """
        # cond/body/store/step plus the frontend's unreachable filler
        # blocks (simplifycfg may not have run yet).
        if len(loop.blocks) > 6:
            return False, False
        changed = ensure_canonical_loop(function, loop, am)
        if not loop_is_simplified(loop):
            return False, changed
        preheader = loop.preheader()
        dom = am.domtree(function)
        plan = am.loopivs(function).exit_plan(loop, preheader, dom)
        if plan is None:
            return False, changed
        store = None
        for block in loop.ordered_blocks():
            for inst in block.instructions:
                if isinstance(inst, StoreInst):
                    if store is not None:
                        return False, changed
                    store = inst
                elif not (isinstance(inst, PhiInst)
                          or inst.is_terminator()
                          or is_pure(inst)):
                    # Calls, loads, potential traps: deleting the loop
                    # would elide an observable effect.
                    return False, changed
        if store is None:
            return False, changed
        pointer = store.pointer
        if not isinstance(pointer, GEPInst) or \
                not is_loop_invariant(pointer.base, loop):
            return False, changed
        # The store may be indexed by any of the loop's simulated
        # counters (two-IV loops): pick the one the GEP reads.
        iv = next((v for v in plan.ivs if v.phi is pointer.index), None)
        if iv is None or iv.step != 1 or \
                not isinstance(iv.start, ConstantInt):
            return False, changed
        value = store.value
        if not value.is_constant() and \
                not is_loop_invariant(value, loop):
            return False, changed
        latch = loop.latches()[0]
        if not dom.dominates(store.parent, latch):
            return False, changed
        count = plan.executions_of(store.parent, dom)
        if count <= 0:
            return False, changed
        # Loop results must not escape (exit phis included).
        if loop_values_escape(loop) or \
                exit_phis_reference_loop(loop.exit_blocks(), loop):
            return False, changed
        if pointer.type.pointee.size_cells() != 1:
            return False, changed
        target = plan.taken_target
        if target.phis():
            return False, changed
        dest = GEPInst(pointer.base, iv.start)
        dest.name = function.next_name("ms")
        preheader.insert_before_terminator(dest)
        memset = CallInst("memset", [dest, value,
                                     ConstantInt(I64, count)])
        preheader.insert_before_terminator(memset)
        preheader.set_terminator(BranchInst(target))
        # Non-taken dedicated exits lose their last predecessor; the
        # backend emits every block in ``function.blocks``, so trivial
        # (lone-branch, value-free) ones are dropped with the loop
        # rather than left as dead code.  Non-trivial exits (early
        # ``return`` bodies) stay for simplifycfg: dropping them could
        # detach values their successors still reference.
        doomed = []
        for exit_block in loop.exit_blocks():
            if exit_block is target or \
                    len(exit_block.instructions) != 1 or \
                    not isinstance(exit_block.terminator(), BranchInst):
                continue
            remove_block_from_phis(exit_block,
                                   exit_block.terminator().target)
            doomed.append(exit_block)
        _drop_blocks(function, loop.ordered_blocks() + doomed)
        am.invalidate(function)
        return True, True


@register_pass("loop-sink")
class LoopSink(FunctionPass):
    """Sink pure loop computations used only outside the loop into the
    exit block(s) — they then execute once instead of per-iteration.

    Single-exit loops with a private exit take the direct move; loops
    with several exits (or a shared exit block) are put into LCSSA
    form first, after which every outside use reads an exit phi and
    the computation can be rematerialized per using exit.
    """

    # Moves pure instructions between existing blocks: the CFG, the IV
    # chains, the loop nest and the canonical loop forms all survive —
    # unless the multi-exit path had to canonicalize first (tracked
    # per-run, reported via ``preserved_for``).
    preserved_analyses = PRESERVE_CFG | frozenset({"loopivs",
                                                   "loopcanon"})

    def __init__(self):
        self._canonicalized = False   # sticky: drives preserved_for
        self._sweep_dirty = False     # per-loop: drives sweep restarts

    def preserved_for(self, function):
        from repro.passes.analysis import PRESERVE_NONE
        if self._canonicalized:
            return PRESERVE_NONE
        return self.preserved_analyses

    def run_on_function(self, function, am):
        # Canonicalization creates blocks, which stales the other Loop
        # objects' membership sets — restart the sweep on fresh loop
        # info after any structural change (idempotent, so this
        # terminates).
        changed = False
        self._canonicalized = False
        for _ in range(64):
            info = am.loops(function)
            restart = False
            for loop in info.loops:
                exit_blocks = loop.exit_blocks()
                if len(exit_blocks) == 1 and \
                        len(exit_blocks[0].predecessors()) == 1:
                    changed |= self._sink_single_exit(loop,
                                                      exit_blocks[0])
                    continue
                self._sweep_dirty = False
                changed |= self._sink_multi_exit(function, loop, am)
                if self._sweep_dirty:
                    restart = True
                    break
            if not restart:
                break
        return changed

    @staticmethod
    def _sinkable(inst, loop):
        if isinstance(inst, PhiInst) or inst.is_terminator():
            return False
        if not is_pure(inst):
            return False
        users = inst.users
        if not users:
            return False
        if any(u.parent in loop.blocks for u in users):
            return False
        # All operands must dominate the exit: loop-invariant
        # operands do; in-loop operands do not in general
        # (values from the last iteration are only available
        # if defined in a block dominating the exit edge) —
        # restrict to invariant operands.
        return all(is_loop_invariant(op, loop)
                   for op in inst.operands)

    def _sink_single_exit(self, loop, exit_block):
        changed = False
        for block in loop.ordered_blocks():
            for inst in list(block.instructions):
                if not self._sinkable(inst, loop):
                    continue
                block.remove_instruction(inst)
                index = exit_block.first_non_phi_index()
                exit_block.insert(index, inst)
                changed = True
        return changed

    def _sink_multi_exit(self, function, loop, am):
        changed = ensure_canonical_loop(function, loop, am, lcssa=True)
        if changed:
            self._canonicalized = True
            self._sweep_dirty = True
        if not (loop_is_simplified(loop) and loop_is_lcssa(loop)):
            return changed
        exit_ids = {id(b) for b in loop.exit_blocks()}
        for block in loop.ordered_blocks():
            for inst in list(block.instructions):
                if not self._sinkable(inst, loop):
                    continue
                # Under LCSSA every outside user is an exit phi; the
                # computation sinks only when each using phi merges
                # nothing but this instruction.
                users = inst.users
                if not all(isinstance(u, PhiInst)
                           and id(u.parent) in exit_ids
                           and all(v is inst for v in u.operands)
                           for u in users):
                    continue
                block.remove_instruction(inst)
                for position, phi in enumerate(users):
                    if position == 0:
                        replacement = inst
                    else:
                        replacement = clone_instruction(inst, {},
                                                        function)
                    target = phi.parent
                    target.insert(target.first_non_phi_index(),
                                  replacement)
                    replace_and_erase(phi, replacement)
                changed = True
        return changed


@register_pass("loop-load-elim")
class LoopLoadElim(FunctionPass):
    """Store-to-load forwarding within a loop iteration: a load from the
    same address as an earlier store in the same block takes the stored
    value directly."""

    # Value replacements only; loop structure and canonical forms
    # survive (a forwarded exit-phi operand stays loop-defined).
    preserved_analyses = PRESERVE_CFG | frozenset({"loopcanon"})

    def run_on_function(self, function, am):
        changed = False
        info = am.loops(function)
        for loop in info.loops:
            for block in loop.ordered_blocks():
                available = None  # (pointer, value)
                for inst in list(block.instructions):
                    if isinstance(inst, StoreInst):
                        available = (inst.pointer, inst.value)
                    elif isinstance(inst, LoadInst) and available:
                        if must_alias(available[0], inst.pointer):
                            replace_and_erase(inst, available[1])
                            changed = True
                    elif isinstance(inst, CallInst) and \
                            inst.callee_may_access_memory():
                        available = None
                    elif available and \
                            instruction_may_write(inst, available[0]):
                        available = None
        return changed


@register_pass("loop-distribute")
class LoopDistribute(FunctionPass):
    """Split a single-block counted loop whose body consists of two
    independent store chains into two loops.

    Very conservative: requires a canonical IV, a pure body except for
    stores to two different base arrays with no loads, and no values
    escaping the loop.
    """

    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        info = am.loops(function)
        mutated = False
        for loop in info.innermost_loops():
            if len(loop.blocks) != 1:
                continue
            distributed, created = self._distribute(function, loop, am)
            mutated |= created
            if distributed:
                return True
        return mutated

    def _distribute(self, function, loop, am):
        from repro.passes.utils import underlying_object

        preheader, created = ensure_preheader(function, loop)
        if preheader is None:
            return False, False
        iv = am.loopivs(function).induction_variable(loop, preheader)
        if iv is None:
            return False, created
        block = loop.header
        stores = [i for i in block.instructions if isinstance(i, StoreInst)]
        if len(stores) < 2:
            return False, created
        if any(isinstance(i, (LoadInst, CallInst))
               for i in block.instructions):
            return False, created
        bases = {id(underlying_object(s.pointer)) for s in stores}
        if len(bases) < 2:
            return False, created
        for inst in block.instructions:
            for user in inst.users:
                if user.parent is not block:
                    return False, created
        # Partition stores by base; keep the first base's stores in the
        # original loop and move the rest into a cloned loop that runs
        # afterwards.
        exit_blocks = loop.exit_blocks()
        if len(exit_blocks) != 1:
            return False, created
        exit_block = exit_blocks[0]
        if exit_block.phis():
            return False, created
        # Validate the exit terminator BEFORE cloning anything, so a
        # bail-out below cannot leave half-attached cloned blocks behind.
        original_exit_term = None
        for inst in block.instructions:
            if isinstance(inst, CondBranchInst):
                original_exit_term = inst
        if original_exit_term is None:
            return False, created
        first_base = underlying_object(stores[0].pointer)
        moved = [s for s in stores
                 if underlying_object(s.pointer) is not first_base]
        value_map, block_map = clone_region([block], function, "dist")
        cloned = block_map[id(block)]
        # Original loop: delete the moved stores.
        for store in moved:
            store.erase_from_parent()
        # Cloned loop: delete the kept stores.
        for store in stores:
            if store not in moved:
                value_map[id(store)].erase_from_parent()
        # Chain: original loop exits into the cloned loop's preheader.
        # Cloned header phis currently have incoming from preheader and
        # cloned latch; redirect entry edge.
        # The original loop's exit edge now targets the cloned block's
        # entry; the cloned loop's exit edge goes to the real exit.
        # Cloned phi entries from the preheader stay (the clone is entered
        # once, from the original's exit edge) — rewrite that incoming
        # block to the original block.
        original_exit_term.replace_successor(exit_block, cloned)
        for phi in cloned.phis():
            phi.replace_incoming_block(preheader, block)
        delete_dead_instructions(function)
        return True, created


@register_pass("loop-unswitch")
class LoopUnswitch(FunctionPass):
    """Hoist a loop-invariant branch out of the loop by versioning it:
    two copies of the loop, one per branch direction, selected once
    outside."""

    preserved_analyses = PRESERVE_NONE
    MAX_LOOP_SIZE = 60

    def run_on_function(self, function, am):
        info = am.loops(function)
        mutated = False
        for loop in info.innermost_loops():
            unswitched, created = self._unswitch(function, loop, am)
            mutated |= created
            if unswitched:
                return True
        return mutated

    def _unswitch(self, function, loop, am):
        if sum(len(b.instructions) for b in loop.blocks) > \
                self.MAX_LOOP_SIZE:
            return False, False
        preheader, created = ensure_preheader(function, loop)
        if preheader is None:
            return False, False
        # Find an invariant conditional branch that is not the exit test.
        candidate = None
        for block in loop.ordered_blocks():
            term = block.terminator()
            if not isinstance(term, CondBranchInst):
                continue
            if not is_loop_invariant(term.condition, loop):
                continue
            if term.true_target not in loop.blocks or \
                    term.false_target not in loop.blocks:
                continue  # the exit test; unswitching it is loop-rotate's job
            candidate = term
            break
        if candidate is None:
            return False, created
        exit_blocks = loop.exit_blocks()
        if len(exit_blocks) != 1:
            # Early-exit loops version on canonical form: with every
            # escaping value routed through exit phis (LCSSA), the
            # two-version merge is a per-exit phi extension.
            created |= ensure_canonical_loop(function, loop, am,
                                            lcssa=True)
            if not (loop_is_simplified(loop) and loop_is_lcssa(loop)):
                return False, created
            preheader = loop.preheader()
            exit_blocks = loop.exit_blocks()
        exit_block = exit_blocks[0]
        exit_ids = {id(b) for b in exit_blocks}
        orig_exit_preds = [p for p in exit_block.predecessors()
                           if p in loop.blocks]

        blocks = [b for b in function.blocks if b in loop.blocks]
        value_map, block_map = clone_region(blocks, function, "unsw")
        clone_block_ids = {id(b) for b in block_map.values()}

        # Existing exit phis gain entries for the cloned exiting edges.
        fixup_exit_phis(loop, value_map, block_map)
        # In-loop values used outside the loop merge through fresh exit
        # phis (both versions produce a candidate value).  Under LCSSA
        # (the multi-exit case) every outside user already reads an
        # exit phi, so this loop finds nothing there.
        for block in blocks:
            for inst in list(block.instructions):
                if inst.type.is_void():
                    continue
                outside_users = [
                    (user, index) for user, index in list(inst.uses)
                    if user.parent is not None
                    and user.parent not in loop.blocks
                    and id(user.parent) not in clone_block_ids
                    and not (isinstance(user, PhiInst)
                             and id(user.parent) in exit_ids)]
                if not outside_users:
                    continue
                merge = PhiInst(inst.type, function.next_name("unswx"))
                exit_block.insert(0, merge)
                for pred in orig_exit_preds:
                    merge.add_incoming(inst, pred)
                    merge.add_incoming(value_map.get(id(inst), inst),
                                       block_map[id(pred)])
                for user, index in outside_users:
                    user.set_operand(index, merge)
        # Preheader now branches on the invariant condition between the
        # two versions.
        condition = candidate.condition
        true_header = loop.header
        false_header = block_map[id(loop.header)]
        preheader.set_terminator(CondBranchInst(condition, true_header,
                                                false_header))
        # Cloned header phis: entries from the preheader survive; entries
        # from cloned latches already remapped by clone_region.
        # In the "true" version the branch always goes to true_target; in
        # the clone, always to false_target.
        candidate_clone = value_map[id(candidate)]
        for term_inst, taken in ((candidate, candidate.true_target),
                                 (candidate_clone,
                                  block_map[id(candidate.false_target)])):
            block = term_inst.parent
            dead = (term_inst.false_target
                    if taken is term_inst.true_target or
                    taken is block_map.get(id(candidate.true_target))
                    else term_inst.true_target)
            # Recompute for the clone: taken is the mapped false target.
            if term_inst is candidate_clone:
                dead = candidate_clone.true_target
                taken = candidate_clone.false_target
            else:
                dead = candidate.false_target
                taken = candidate.true_target
            block.set_terminator(BranchInst(taken))
            remove_block_from_phis(block, dead)
        delete_dead_instructions(function)
        return True, created
