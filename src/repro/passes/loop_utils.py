"""Shared machinery for loop passes: loop-simplify (preheader insertion),
invariance tests, canonical induction-variable and trip-count analysis.

Every trip-count question ("after how many iterations does this
counted exit fire?") is answered by one parser and one counter:
:func:`exit_test` reads an exiting block's IV-vs-constant compare and
:func:`fires_at` steps the counter in exact i64 arithmetic.  Three
queries are built on them: :func:`constant_trip_count` here (single
exit), and ``simulate_exits`` and ``counted_exit_bound`` in
:mod:`repro.passes.loop_canon` (multi-exit).
"""

from repro.ir import (
    BinaryInst,
    BranchInst,
    CondBranchInst,
    ConstantInt,
    ICmpInst,
    Instruction,
    PhiInst,
)
from repro.ir.arith import icmp, wrap64
from repro.ir.instructions import ICMP_SWAP
from repro.passes.utils import is_pure


def ensure_preheader(function, loop):
    """Create (or return) a dedicated preheader block for ``loop``.

    All out-of-loop predecessors of the header are redirected through a
    fresh block ending in an unconditional branch to the header.
    Returns ``(preheader, created)``: ``preheader`` is None when the
    header has no out-of-loop predecessor, and ``created`` is True only
    when a new block was inserted (a CFG change the calling pass must
    report and invalidate for, even if it then transforms nothing else).
    """
    existing = loop.preheader()
    if existing is not None:
        return existing, False
    header = loop.header
    outside = [p for p in header.predecessors() if p not in loop.blocks]
    if not outside:
        return None, False
    preheader = function.append_block(function.next_name("preheader"))
    # Keep block order roughly topological: place before the header.
    preheader.insert_before(header)
    for pred in outside:
        pred.terminator().replace_successor(header, preheader)
    # Split phi incoming values: out-of-loop entries move to new phis in
    # the preheader (or single value when only one outside pred).
    for phi in header.phis():
        outside_pairs = [(v, b) for v, b in phi.incoming() if b in outside]
        if not outside_pairs:
            continue
        if len(outside_pairs) == 1:
            merged = outside_pairs[0][0]
        else:
            merged = PhiInst(phi.type, function.next_name("ph"))
            preheader.insert(0, merged)
            for value, block in outside_pairs:
                merged.add_incoming(value, block)
        inside_pairs = [(v, b) for v, b in phi.incoming()
                        if b not in outside]
        phi.drop_all_references()
        phi.incoming_blocks = []
        phi.add_incoming(merged, preheader)
        for value, block in inside_pairs:
            phi.add_incoming(value, block)
    preheader.append(BranchInst(header))
    return preheader, True


def is_loop_invariant(value, loop):
    """True when ``value`` does not change within the loop."""
    if not isinstance(value, Instruction):
        return True
    return value.parent not in loop.blocks


def invariant_operands(inst, loop):
    return all(is_loop_invariant(op, loop) for op in inst.operands)


class InductionVariable:
    """A canonical affine IV: ``phi = [start, preheader], [phi + step,
    latch]`` with a constant step."""

    def __init__(self, phi, start, step, update):
        self.phi = phi
        self.start = start      # Value (loop-invariant)
        self.step = step        # int (constant step)
        self.update = update    # the add instruction in the latch chain


def _look_through_copies(value, depth=4):
    """Follow single-incoming (pass-through) phis to the real value."""
    while depth > 0 and isinstance(value, PhiInst) \
            and len(value.operands) == 1:
        value = value.operands[0]
        depth -= 1
    return value


def find_induction_variables(loop, preheader):
    """Every canonical IV of the loop, in header-phi order.

    Two-counter loops (``for (i...; j...)`` shapes) carry one entry
    per independent counter; :func:`find_induction_variable` returns
    the first (the loop's primary IV)."""
    latches = loop.latches()
    if len(latches) != 1:
        return []
    latch = latches[0]
    result = []
    for phi in loop.header.phis():
        try:
            start = phi.incoming_value_for(preheader)
            update = _look_through_copies(
                phi.incoming_value_for(latch))
        except KeyError:
            continue
        if not isinstance(update, BinaryInst) or update.opcode != "add":
            continue
        if update.parent not in loop.blocks:
            continue
        step = None
        if update.lhs is phi and isinstance(update.rhs, ConstantInt):
            step = update.rhs.value
        elif update.rhs is phi and isinstance(update.lhs, ConstantInt):
            step = update.lhs.value
        if step is None or step == 0:
            continue
        if not is_loop_invariant(start, loop):
            continue
        result.append(InductionVariable(phi, start, step, update))
    return result


def find_induction_variable(loop, preheader):
    """Find the loop's primary canonical IV, or None."""
    ivs = find_induction_variables(loop, preheader)
    return ivs[0] if ivs else None


def exit_test(loop, ivs, exiting):
    """Parse ``exiting``'s exit test: ``(iv, offset, predicate, bound,
    exit_on_true, target)`` when its branch compares one of ``ivs``
    against a constant, else None.

    The candidate set spans every IV's phi (iteration-start value,
    ``offset`` 0) and update (post-increment, ``offset`` = step; SSA
    dominance guarantees the update ran), so two-counter loops
    (``for (i...; j...)`` shapes) may govern each exit with either
    counter.  A constant on the left is swapped to the right;
    ``exit_on_true`` says which compare outcome leaves the loop, and
    ``target`` is the exit block it leaves to.
    """
    term = exiting.terminator()
    if not isinstance(term, CondBranchInst):
        return None
    in_true = term.true_target in loop.blocks
    in_false = term.false_target in loop.blocks
    if in_true == in_false:
        return None
    target = term.false_target if in_true else term.true_target
    condition = term.condition
    if not isinstance(condition, ICmpInst):
        return None
    lhs, rhs = condition.operands
    candidates = {}
    for iv in ivs:
        candidates[id(iv.phi)] = (iv, 0)
        candidates[id(iv.update)] = (iv, iv.step)
    if id(lhs) in candidates and isinstance(rhs, ConstantInt):
        iv, offset = candidates[id(lhs)]
        predicate = condition.predicate
        bound = rhs.value
    elif id(rhs) in candidates and isinstance(lhs, ConstantInt):
        iv, offset = candidates[id(rhs)]
        predicate = ICMP_SWAP[condition.predicate]
        bound = lhs.value
    else:
        return None
    return iv, offset, predicate, bound, not in_true, target


def fires_at(test, max_iterations):
    """The 1-based iteration in which the parsed exit ``test`` (see
    :func:`exit_test`) fires, or None when it has not fired by
    iteration ``max_iterations + 1``.

    The counter starts at the IV's constant start and steps once per
    completed iteration, both in exact i64 arithmetic, so a counter
    that wraps past INT64_MAX is followed as the program runs it.
    """
    iv, offset, predicate, bound, exit_on_true, _target = test
    value = iv.start.value
    for iteration in range(1, max_iterations + 2):
        if icmp(predicate, wrap64(value + offset), bound) == exit_on_true:
            return iteration
        value = wrap64(value + iv.step)
    return None


def constant_trip_count(loop, preheader, max_count=4096):
    """Compute the exact trip count when the loop is a canonical counted
    loop ``for (i = C0; i < C1; i += C2)`` with a single exit through the
    header (rotated forms with the compare in the latch are also handled).

    The trip count is the number of completed bodies: the iteration in
    which the exit fires, less one when the test runs at the top of the
    iteration, before the IV update.  Returns (trip_count, iv) with
    ``trip_count <= max_count``, or (None, None).
    """
    iv = find_induction_variable(loop, preheader)
    if iv is None or not isinstance(iv.start, ConstantInt):
        return None, None
    exiting = loop.exiting_blocks()
    if len(exiting) != 1:
        return None, None
    exit_block = exiting[0]
    latches = loop.latches()
    # Bottom-tested iff the iteration's body (specifically the IV update)
    # has executed when the exit test runs: exit at the latch, or exit at
    # a header that itself contains the update (rotated single-block
    # shapes).  A genuine top-tested loop exits at the header before the
    # update runs.
    if len(latches) == 1 and exit_block is latches[0]:
        top_tested = False
    elif exit_block is loop.header:
        top_tested = iv.update.parent is not exit_block
    else:
        return None, None
    test = exit_test(loop, [iv], exit_block)
    if test is None:
        return None, None
    entered = fires_at(test, max_count)
    if entered is None or entered - top_tested > max_count:
        return None, None
    return entered - top_tested, iv


def loop_values_escape(loop):
    """True when any value computed inside ``loop`` is used outside it
    (the safety bail shared by loop-deletion and loop-idiom: a deleted
    loop must leave no dangling consumers)."""
    for block in loop.ordered_blocks():
        for inst in block.instructions:
            for user in inst.users:
                if user.parent not in loop.blocks:
                    return True
    return False


def exit_phis_reference_loop(exit_blocks, loop):
    """True when a phi in any of ``exit_blocks`` carries an entry from
    a loop block — deleting the loop would orphan that entry."""
    for exit_block in exit_blocks:
        for phi in exit_block.phis():
            if any(b in loop.blocks for b in phi.incoming_blocks):
                return True
    return False


def loop_body_is_pure(loop):
    """No stores/calls and no instructions that may trap."""
    for block in loop.ordered_blocks():
        for inst in block.instructions:
            if inst.is_terminator():
                continue
            if isinstance(inst, PhiInst):
                continue
            if not is_pure(inst):
                return False
    return True
