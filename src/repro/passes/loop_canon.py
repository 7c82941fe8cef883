"""Loop canonicalization: LoopSimplify + LCSSA (LLVM-style).

The loop-pass family used to bail on every loop with more than one exit
block — the conservative fix for a real loop-rotate miscompile
(qurt/isqrt) silently forfeited optimization on every ``break``/
early-``return`` loop shape.  This module establishes the two canonical
forms those passes need to handle multi-exit loops safely:

**Simplified form** (per loop):

- a *dedicated preheader*: the unique out-of-loop predecessor of the
  header, ending in an unconditional branch to it;
- *dedicated exits*: every exit block's predecessors are all inside the
  loop (exit edges to shared join blocks are split), so exit-phi fixups
  never disturb unrelated control flow;
- a *single backedge*: multiple latches are funneled through one merge
  block, so "the latch" is well-defined for rotation and IV analysis.

**LCSSA form** (per loop): every value defined inside the loop and used
outside it flows through a phi in one of the loop's exit blocks.  A
transformation that clones or redirects exit edges then only has to
patch phis *in the exit blocks themselves* — all downstream uses read
the phis, not loop-internal defs.  Formation inserts per-exit phis and
reroutes outer uses through a small SSA reconstruction (join phis at
iterated dominance frontiers) when a use is reachable from several
exits.

Canonical-form verdicts are cached on the
:class:`repro.passes.analysis.AnalysisManager` under the ``loopcanon``
analysis: loop passes consult the cached verdict and skip the
(re-)establishment scan entirely when the function has not changed —
the inactive-trial regime the deployment loop spends most of its phase
budget on.  Passes that maintain the form declare it preserved.

The exit *simulation* queries at the bottom (``simulate_exits``,
``counted_exit_bound``) generalize ``constant_trip_count`` to
multi-exit loops: when every exit condition is an IV-vs-constant
compare, the exact per-iteration branch decisions (and therefore the
early-exit trip count) are computable, which lets full unrolling and
loop-idiom fire on early-exit counted loops.  All three queries parse
each exit with ``loop_utils.exit_test`` and count with
``loop_utils.fires_at``; the multi-exit ones take the exit that fires
first.
"""

from repro.ir import (
    BranchInst,
    ConstantInt,
    PhiInst,
    UndefValue,
    split_edge,
)
from repro.passes.loop_utils import (
    ensure_preheader,
    exit_test,
    find_induction_variables,
    fires_at,
)


# -- canonical-form verdicts (the ``loopcanon`` analysis) -----------------

class LoopCanonInfo:
    """Memoized canonical-form verdicts for one function's loops.

    Verdicts are computed lazily per loop and pinned by loop identity
    (strong references, so CPython id reuse cannot alias two loops).
    Cached on the AnalysisManager as ``loopcanon``; invalidated with
    the function unless a pass declares it preserved.
    """

    def __init__(self, function):
        self.function = function
        self._simplified = {}
        self._lcssa = {}
        self._lcssa_failed = {}

    def is_simplified(self, loop):
        key = id(loop)
        hit = self._simplified.get(key)
        if hit is None:
            hit = (loop, loop_is_simplified(loop))
            self._simplified[key] = hit
        return hit[1]

    def is_lcssa(self, loop):
        key = id(loop)
        hit = self._lcssa.get(key)
        if hit is None:
            hit = (loop, loop_is_lcssa(loop))
            self._lcssa[key] = hit
        return hit[1]

    def lcssa_formation_failed(self, loop):
        """True when a formation attempt already found nothing it
        could rewrite for this (unchanged) function — there is no
        point re-running the scan until the function mutates (and
        this memo is invalidated with it)."""
        hit = self._lcssa_failed.get(id(loop))
        return hit is not None and hit[1]

    def mark_lcssa_formation_failed(self, loop):
        self._lcssa_failed[id(loop)] = (loop, True)


def loop_is_simplified(loop):
    """Preheader + dedicated exits + single backedge (no mutation)."""
    return (loop.preheader() is not None
            and len(loop.latches()) == 1
            and loop.has_dedicated_exits())


def loop_is_lcssa(loop):
    """True when every loop-defined value's *reachable* outside uses
    are phis in the loop's exit blocks (no mutation).

    Unreachable users are ignored, mirroring :func:`form_lcssa` (which
    cannot and need not rewrite them) — otherwise a loop with dead
    outside uses would flunk the verdict forever while formation keeps
    reporting nothing to do.  Reachability is only computed when a
    violation candidate shows up (the common all-clear path stays one
    use-list sweep)."""
    exit_ids = {id(b) for b in loop.exit_blocks()}
    reachable = None
    for block in loop.ordered_blocks():
        for inst in block.instructions:
            for user, _ in inst.uses:
                parent = user.parent
                if parent is None or parent in loop.blocks:
                    continue
                if isinstance(user, PhiInst) and id(parent) in exit_ids:
                    continue
                if reachable is None:
                    from repro.ir.cfg import reachable_blocks
                    reachable = reachable_blocks(loop.header.parent)
                if parent in reachable:
                    return False
    return True


# -- LoopSimplify ---------------------------------------------------------

def simplify_loop(function, loop):
    """Establish simplified form for one loop.  Returns True when the
    CFG changed (the calling pass must report and invalidate).

    ``loop``'s block set is maintained in place (the merged latch joins
    the loop and all enclosing loops), so the caller may keep using the
    loop object; split exit blocks live outside every loop.
    """
    changed = False
    preheader, created = ensure_preheader(function, loop)
    if preheader is None:
        return changed
    changed |= created
    for exiting, exit_block in loop.exit_edges():
        if all(p in loop.blocks for p in exit_block.predecessors()):
            continue
        split_edge(exiting, exit_block,
                   name=function.next_name("loopexit"))
        changed = True
    latches = loop.latches()
    if len(latches) > 1:
        _merge_latches(function, loop, latches)
        changed = True
    return changed


def _merge_latches(function, loop, latches):
    """Funnel every backedge through one fresh latch block."""
    header = loop.header
    latch = function.append_block(function.next_name("latch"))
    # Place after the last latch: keeps the layout roughly topological.
    positions = function.block_positions()
    latch.insert_after(max(latches, key=lambda b: positions[id(b)]))
    for phi in header.phis():
        merged = PhiInst(phi.type, function.next_name("lt"))
        latch.insert(len(latch.phis()), merged)
        for source in latches:
            merged.add_incoming(phi.incoming_value_for(source), source)
        for source in latches:
            phi.remove_incoming(source)
        phi.add_incoming(merged, latch)
    for source in latches:
        source.terminator().replace_successor(header, latch)
    latch.append(BranchInst(header))
    enclosing = loop
    while enclosing is not None:
        enclosing.blocks.add(latch)
        enclosing = enclosing.parent


# -- LCSSA ----------------------------------------------------------------

def form_lcssa(function, loop, dom):
    """Insert exit phis so no loop-defined value is used outside the
    loop directly.  Requires dedicated exits (``simplify_loop`` first).
    Returns True when phis were inserted."""
    reachable = set(dom.rpo)
    exit_blocks = [b for b in loop.exit_blocks() if b in reachable]
    exit_ids = {id(b) for b in exit_blocks}
    reach_cache = {}
    # Coverage tests below issue repeated same-block dominance queries
    # against in-loop terminators; phi insertion happens in the exit
    # blocks, whose length change the memo detects.
    from repro.ir.cfg import InstructionPositions
    positions = InstructionPositions()
    changed = False
    for block in loop.ordered_blocks():
        if block not in reachable:
            continue
        for inst in list(block.instructions):
            if inst.type.is_void():
                continue
            outside = [
                (user, index) for user, index in list(inst.uses)
                if user.parent is not None
                and user.parent in reachable
                and user.parent not in loop.blocks
                and not (isinstance(user, PhiInst)
                         and id(user.parent) in exit_ids)]
            if not outside:
                continue
            changed |= _rewrite_through_exit_phis(
                function, loop, inst, outside, dom, exit_blocks,
                reach_cache, positions)
    return changed


def _rewrite_through_exit_phis(function, loop, inst, uses, dom,
                               exit_blocks, reach_cache, positions=None):
    """Route ``uses`` (outside the loop) of loop-defined ``inst``
    through fresh per-exit phis, adding join phis where a use is
    reachable from several exits.

    An exit is *covered* when ``inst`` dominates all its (in-loop)
    predecessors' terminators — the value flows out of that exit.  A
    use reachable from an **un**covered exit cannot be rewritten: on a
    loop re-entry path the dominator walk would resolve it to undef,
    so the whole value bails (False) and the calling pass falls back
    to its conservative behaviour."""
    covered = []
    uncovered = []
    for exit_block in exit_blocks:
        preds = exit_block.predecessors()
        if preds and all(p in loop.blocks
                         and dom.instruction_dominates(inst,
                                                       p.terminator(),
                                                       positions)
                         for p in preds):
            covered.append(exit_block)
        else:
            uncovered.append(exit_block)
    if not covered:
        return False
    if uncovered:
        unsafe = _blocks_reachable_from(uncovered, reach_cache)
        for user, op_index in uses:
            source = user.incoming_blocks[op_index] \
                if isinstance(user, PhiInst) else user.parent
            if id(source) in unsafe:
                return False
    defs = {}
    for exit_block in covered:
        phi = PhiInst(inst.type, function.next_name("lcssa"))
        exit_block.insert(0, phi)
        for pred in exit_block.predecessors():
            phi.add_incoming(inst, pred)
        defs[exit_block] = phi
    _ssa_rewrite(function, dom, defs, uses, inst.type)
    return True


def _blocks_reachable_from(roots, cache):
    """ids of blocks reachable from any root's successors (memoized
    per formation run)."""
    key = tuple(sorted(map(id, roots)))
    hit = cache.get(key)
    if hit is not None:
        return hit
    seen = set()
    worklist = list(roots)
    while worklist:
        block = worklist.pop()
        for succ in block.successors():
            if id(succ) not in seen:
                seen.add(id(succ))
                worklist.append(succ)
    cache[key] = seen
    return seen


def _ssa_rewrite(function, dom, defs, uses, type_):
    """Rewrite ``uses`` to the nearest definition in ``defs``
    ({block: value-at-top-of-block}), inserting join phis at iterated
    dominance frontiers.  Standard single-variable SSA reconstruction;
    paths reached by no definition read ``undef`` (they cannot execute
    a use that was valid SSA before the rewrite)."""
    index = {id(b): i for i, b in enumerate(function.blocks)}
    frontiers = dom.dominance_frontiers()
    ordered = sorted(defs, key=lambda b: index[id(b)])
    join_blocks = []
    seen = {id(b) for b in ordered}
    worklist = list(ordered)
    while worklist:
        block = worklist.pop(0)
        for frontier in sorted(frontiers.get(block, ()),
                               key=lambda b: index[id(b)]):
            if id(frontier) in seen:
                continue
            seen.add(id(frontier))
            join_blocks.append(frontier)
            worklist.append(frontier)
    joins = {}
    for block in join_blocks:
        phi = PhiInst(type_, function.next_name("lcssa.join"))
        block.insert(0, phi)
        joins[block] = phi
        defs[block] = phi

    def reaching(block):
        runner = block
        while runner is not None:
            if runner in defs:
                return defs[runner]
            runner = dom.idom.get(runner)
        return UndefValue(type_)

    for block, phi in joins.items():
        for pred in block.predecessors():
            phi.add_incoming(reaching(pred), pred)
    for user, op_index in uses:
        # Phi operands are defined along the incoming edge; other users
        # read the def live at their own block (new phis sit at block
        # top, so a same-block def dominates the user).
        source = user.incoming_blocks[op_index] \
            if isinstance(user, PhiInst) else user.parent
        user.set_operand(op_index, reaching(source))
    # Prune join phis nothing ended up reading (pruned SSA would not
    # have placed them); iterate because joins may only feed each other.
    progress = True
    while progress:
        progress = False
        for block in list(joins):
            phi = joins[block]
            if phi.parent is not None and all(
                    user is phi for user, _ in phi.uses):
                phi.erase_from_parent()
                del joins[block]
                progress = True


def fixup_exit_phis(loop, value_map, block_map):
    """After cloning loop blocks (unroll copies, unswitch versions):
    extend every exit-block phi with entries for the cloned exit edges.

    For each phi entry ``(value, pred)`` with ``pred`` inside the loop
    and cloned, an entry ``(mapped value, mapped pred)`` is appended —
    the cloned predecessor carries the cloned value on its (parallel)
    exit edge.  Requires LCSSA (downstream uses read the phis)."""
    for exit_block in loop.exit_blocks():
        for phi in exit_block.phis():
            for value, pred in list(phi.incoming()):
                if pred in loop.blocks and id(pred) in block_map:
                    phi.add_incoming(value_map.get(id(value), value),
                                     block_map[id(pred)])


# -- pass-facing canonicalization entry point -----------------------------

def ensure_canonical_loop(function, loop, am, lcssa=False):
    """Establish simplified (and optionally LCSSA) form for ``loop``.

    Returns True when the function was mutated; the caller must then
    report a change.  Cached ``loopcanon`` verdicts make the common
    already-canonical case a cheap memo lookup; on mutation every
    analysis of the function is invalidated (mid-run staleness would
    change downstream decisions, as in licm's preheader handling).
    """
    status = am.loopcanon(function)
    changed = False
    if not status.is_simplified(loop):
        changed |= simplify_loop(function, loop)
    if lcssa:
        # A simplify mutation can break a memoized LCSSA verdict (a
        # split exit edge moves the exit phis off the exit block), so
        # the cached verdict only answers for untouched functions.
        lcssa_holds = loop_is_lcssa(loop) if changed \
            else status.is_lcssa(loop)
        if not lcssa_holds and \
                (changed or not status.lcssa_formation_failed(loop)):
            if changed:
                am.invalidate(function)
            formed = form_lcssa(function, loop, am.domtree(function))
            if not formed and not changed:
                # Nothing rewritable (uncovered exits): remember the
                # failure so the next pass skips the scan until the
                # function changes.
                status.mark_lcssa_formation_failed(loop)
            changed |= formed
    if changed:
        # A mutation can flip OTHER loops' verdicts too (a split exit
        # edge un-dedicates an enclosing loop's exit), so the whole
        # memo is dropped rather than patched; the next query recomputes
        # lazily against the post-mutation IR.
        am.invalidate(function)
    return changed


# -- multi-exit trip-count simulation -------------------------------------

class ExitPlan:
    """Exact per-iteration exit decisions of an IV-governed loop.

    ``iterations[k]`` lists ``(exiting_block, fired)`` pairs in
    dominance order, truncated at the first fired exit; the final
    iteration ends with the taken exit.  ``taken_block``/
    ``taken_target`` name the exit edge the loop leaves through.
    ``ivs`` lists every counter governing an exit test (two-counter
    loops carry one entry per independent counter); ``iv`` is the
    first of them.
    """

    def __init__(self, iterations, taken_block, taken_target, ivs):
        self.iterations = iterations
        self.taken_block = taken_block
        self.taken_target = taken_target
        self.ivs = list(ivs)

    @property
    def iv(self):
        return self.ivs[0]

    @property
    def n_entered(self):
        return len(self.iterations)

    def executions_of(self, block, dom):
        """Number of iterations in which ``block`` executes.  Only
        meaningful for blocks dominating the latch (guaranteed to run
        in every completed iteration)."""
        count = 0
        for record in self.iterations:
            last_block, fired = record[-1]
            if fired:
                count += 1 if dom.dominates(block, last_block) else 0
            else:
                count += 1
        return count


def _constant_start_ivs(loop, preheader):
    return [iv for iv in find_induction_variables(loop, preheader)
            if isinstance(iv.start, ConstantInt)]


def _first_to_fire(tests, max_iterations):
    """``(iteration, index)`` of the earliest-firing exit test, the
    first in ``tests`` order winning ties, or None when none fires by
    iteration ``max_iterations + 1``.  Each later test only needs to be
    counted up to the iteration before the best so far."""
    best = None
    for index, test in enumerate(tests):
        limit = max_iterations if best is None else best[0] - 2
        fired = fires_at(test, limit)
        if fired is not None:
            best = (fired, index)
    return best


def simulate_exits(loop, preheader, dom, max_iterations=4096):
    """Exact multi-exit trip simulation, or None.

    Requires: canonical IVs with constant starts, every exiting block
    dominating the (single) latch — each completed iteration then runs
    every exit test, in dominance order — and every exit condition an
    IV-vs-constant compare, so each test's outcome is a pure function
    of the iteration number.  Loops governed by *several* independent
    IVs simulate too: all counters step in lockstep once per completed
    iteration, and each exit test reads its own counter.  The loop
    leaves through the test that fires in the earliest iteration (the
    first in dominance order among those firing together).
    """
    ivs = _constant_start_ivs(loop, preheader)
    if not ivs:
        return None
    latch = loop.latches()[0]
    exiting = loop.exiting_blocks()
    if not exiting:
        return None
    for block in exiting:
        if not dom.dominates(block, latch):
            return None
    # Blocks dominating a common node form a chain: dominance order is
    # total, and rpo position respects it.
    exiting.sort(key=lambda b: dom._index[b])
    tests = []
    used_ivs = []
    for block in exiting:
        test = exit_test(loop, ivs, block)
        if test is None:
            return None
        tests.append(test)
        if test[0] not in used_ivs:
            used_ivs.append(test[0])
    first = _first_to_fire(tests, max_iterations)
    if first is None:
        return None
    entered, winner = first
    iterations = [[(block, False) for block in exiting]
                  for _ in range(entered - 1)]
    iterations.append([(block, False) for block in exiting[:winner]]
                      + [(exiting[winner], True)])
    return ExitPlan(iterations, exiting[winner], tests[winner][5],
                    used_ivs)


def counted_exit_bound(loop, preheader, dom, max_iterations=4096):
    """Trip bound from the loop's *counted* exits alone, tolerating
    live (data-dependent) early exits.

    A counted exit is an exiting block that dominates the single latch
    (so every completed iteration runs its test) with an
    IV-vs-constant condition over *any* of the loop's canonical IVs;
    the iteration count at which it fires — computed by ignoring every
    other exit — bounds the loop, since the ignored exits only leave
    *sooner*.  The tightest bound over all counted exits wins (the
    first in ``exiting_blocks()`` order on a tie).
    Returns ``(n_entered, iv, exiting_block)`` or None, with ``iv``
    the counter governing the winning exit.
    """
    ivs = _constant_start_ivs(loop, preheader)
    if not ivs:
        return None
    latch = loop.latches()[0]
    counted = []
    for block in loop.exiting_blocks():
        if not dom.dominates(block, latch):
            continue
        test = exit_test(loop, ivs, block)
        if test is not None:
            counted.append((block, test))
    first = _first_to_fire([test for _, test in counted], max_iterations)
    if first is None:
        return None
    entered, winner = first
    block, test = counted[winner]
    return entered, test[0], block
