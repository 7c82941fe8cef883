"""Structural verifier for IR modules.

Passes are run under differential testing in the test suite; the verifier
catches structural corruption early so failures point at the offending pass
rather than at the interpreter or backend.

``verify_function`` optionally takes an
:class:`repro.passes.analysis.AnalysisManager`.  The dominance check
always recomputes its dominator tree — the verifier polices the
preservation contract, so it must not trust a preserved (possibly
stale) tree — and seeds the fresh tree into the manager so the next
pass reuses it.
"""

from repro.errors import VerificationError
from repro.ir.cfg import (
    DominatorTree,
    InstructionPositions,
    LoopInfo,
    predecessors_map,
    reachable_blocks,
)
from repro.ir.instructions import Instruction, PhiInst
from repro.ir.values import Argument, Constant, GlobalVariable
from repro.ir.function import Function


def verify_module(module, am=None, lcssa=False):
    for function in module.functions.values():
        if not function.is_declaration():
            verify_function(function, am, lcssa=lcssa)


def verify_function(function, am=None, lcssa=False):
    if not function.blocks:
        return
    _check_terminators(function)
    _check_parent_links(function)
    _check_cfg_links(function)
    preds = predecessors_map(function)
    _check_operand_scope(function)
    _check_phis(function, preds)
    _check_use_lists(function)
    dom = DominatorTree(function)
    if am is not None:
        am.put("domtree", function, dom)
    _check_dominance(function, dom)
    if lcssa:
        check_lcssa(function, dom)


def _fail(function, message):
    raise VerificationError(f"in @{function.name}: {message}")


def _check_terminators(function):
    for block in function.blocks:
        term = block.terminator()
        if term is None:
            _fail(function, f"block {block.name} has no terminator")
        for inst in block.instructions[:-1]:
            if inst.is_terminator():
                _fail(function,
                      f"terminator in the middle of block {block.name}")
        for succ in term.successors():
            if succ not in function.blocks:
                _fail(function,
                      f"block {block.name} branches to a detached block")


def _check_cfg_links(function):
    """Cross-check the IR-maintained CFG state against a from-scratch
    recompute: every block's maintained predecessor links (with edge
    counts) must equal the successor-derived edges, and a served
    block-position index must match the actual block order.  This turns
    the silent-stale-link bug class (the PR-2 exit-phi corruption, the
    PR-4 stale loop membership) into an immediate verification error
    naming the diverging block."""
    recomputed = {id(b): {} for b in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            entry = recomputed.get(id(succ))
            if entry is None:
                continue  # detached target: _check_terminators reports it
            entry[id(block)] = entry.get(id(block), 0) + 1
    for block in function.blocks:
        maintained = {}
        for pred, count in block._preds.items():
            if pred.parent is not function:
                _fail(function,
                      f"block {block.name} keeps a maintained "
                      f"predecessor link from detached block {pred.name}")
            if count <= 0:
                _fail(function,
                      f"non-positive maintained edge count "
                      f"{pred.name} -> {block.name}")
            maintained[id(pred)] = count
        expected = recomputed[id(block)]
        if maintained != expected:
            names = {id(b): b.name for b in function.blocks}
            def _render(counts, names=names):
                return sorted((names.get(key, "<detached>"), count)
                              for key, count in counts.items())
            _fail(function,
                  f"maintained predecessor links of {block.name} diverge "
                  f"from the CFG: maintained={_render(maintained)} "
                  f"recomputed={_render(expected)}")
    cached = function._positions
    if cached is not None and len(cached) == len(function.blocks):
        for index, block in enumerate(function.blocks):
            if cached.get(id(block)) != index:
                _fail(function,
                      f"stale block-position index at {block.name} "
                      f"(cached {cached.get(id(block))}, actual {index})")


def _check_parent_links(function):
    for block in function.blocks:
        if block.parent is not function:
            _fail(function, f"block {block.name} has a stale parent link")
        for inst in block.instructions:
            if inst.parent is not block:
                _fail(function, f"instruction in {block.name} has a stale "
                                f"parent link: {inst!r}")


def _check_operand_scope(function):
    for block in function.blocks:
        for inst in block.instructions:
            for op in inst.operands:
                if isinstance(op, Instruction):
                    if op.parent is None or op.parent.parent is not function:
                        _fail(function,
                              f"operand {op!r} of {inst!r} is detached")
                elif isinstance(op, Argument):
                    if op.function is not function:
                        _fail(function,
                              f"foreign argument used by {inst!r}")
                elif not isinstance(op, (Constant, GlobalVariable, Function)):
                    _fail(function, f"invalid operand kind: {op!r}")


def _check_phis(function, preds):
    reachable = reachable_blocks(function)
    for block in function.blocks:
        if block not in reachable:
            # Unreachable code may hold stale phi entries until a CFG
            # cleanup pass runs; it can never execute, so tolerate it.
            continue
        block_preds = preds.get(block, [])
        for phi in block.phis():
            if len(phi.incoming_blocks) != len(phi.operands):
                _fail(function, "phi incoming/operand length mismatch")
            incoming = set(id(b) for b in phi.incoming_blocks)
            if incoming != set(id(p) for p in block_preds):
                _fail(function,
                      f"phi in {block.name} does not match predecessors "
                      f"({[b.name for b in phi.incoming_blocks]} vs "
                      f"{[p.name for p in block_preds]})")
        seen_non_phi = False
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                if seen_non_phi:
                    _fail(function,
                          f"phi after non-phi in block {block.name}")
            else:
                seen_non_phi = True


def _check_use_lists(function):
    for block in function.blocks:
        for inst in block.instructions:
            for index, op in enumerate(inst.operands):
                if (inst, index) not in op.uses:
                    _fail(function,
                          f"use list of {op!r} missing ({inst!r}, {index})")


def check_lcssa(function, dom=None, loops=None):
    """LCSSA check mode: every value defined inside a loop and used
    outside it must flow through a phi in one of the loop's (dedicated)
    exit blocks.

    Run by the canonicalization tests (not by default verification —
    most pipeline states legitimately leave LCSSA form; the loop-pass
    family re-establishes it on demand).
    """
    if not function.blocks:
        return
    if dom is None:
        dom = DominatorTree(function)
    if loops is None:
        loops = LoopInfo(function, domtree=dom)
    reachable = reachable_blocks(function)
    for loop in loops.loops:
        exit_blocks = set(map(id, loop.exit_blocks()))
        for block in loop.ordered_blocks():
            if block not in reachable:
                continue
            for inst in block.instructions:
                for user, _ in inst.uses:
                    parent = user.parent
                    if parent is None or parent in loop.blocks:
                        continue
                    if isinstance(user, PhiInst) and \
                            id(parent) in exit_blocks:
                        continue
                    if parent not in reachable:
                        continue
                    _fail(function,
                          f"loop value {inst!r} (header "
                          f"{loop.header.name}) used outside the loop "
                          f"by {user!r} without an exit phi")


def _check_dominance(function, dom):
    reachable = reachable_blocks(function)
    # The operand sweep issues many same-block dominance queries per
    # block; memoized instruction positions make each O(1) (the blocks
    # do not mutate during verification).
    positions = InstructionPositions()
    for block in function.blocks:
        if block not in reachable:
            continue
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                for value, pred in inst.incoming():
                    if isinstance(value, Instruction):
                        if pred not in reachable:
                            continue
                        if value.parent not in reachable:
                            _fail(function,
                                  "phi incoming from unreachable def: "
                                  f"{inst!r}")
                        term = pred.terminator()
                        if not dom.instruction_dominates(
                                value, term, positions) and \
                                value is not inst:
                            _fail(function,
                                  f"phi incoming {value!r} does not "
                                  f"dominate edge {pred.name}->{block.name}")
                continue
            for op in inst.operands:
                if isinstance(op, Instruction):
                    if op.parent not in reachable:
                        continue
                    if not dom.instruction_dominates(op, inst, positions):
                        _fail(function,
                              f"{op!r} does not dominate its use {inst!r}")
