"""mem2reg: promote scalar allocas to SSA registers.

Classic SSA construction: phi placement on the iterated dominance frontier
followed by a dominator-tree renaming walk.  This is the phase that unlocks
most scalar optimizations, which is exactly why phase ordering matters in
the paper's setting.
"""

from repro.ir import (
    AllocaInst,
    LoadInst,
    PhiInst,
    StoreInst,
    UndefValue,
)
from repro.passes.analysis import PRESERVE_CFG
from repro.passes.base import FunctionPass, register_pass


def promotable_allocas(function):
    """Scalar allocas whose address is only used by loads and stores."""
    result = []
    for inst in function.entry.instructions:
        if not isinstance(inst, AllocaInst):
            continue
        if not inst.allocated_type.is_scalar():
            continue
        ok = True
        for user, index in inst.uses:
            if isinstance(user, LoadInst):
                continue
            if isinstance(user, StoreInst) and index == 1:
                continue  # used as the address, not the stored value
            ok = False
            break
        if ok:
            result.append(inst)
    return result


@register_pass("mem2reg")
class Mem2Reg(FunctionPass):
    # SSA construction never touches the CFG: phis are inserted and
    # loads/stores/allocas erased within existing blocks.
    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        allocas = promotable_allocas(function)
        if not allocas:
            return False
        dom = am.domtree(function)
        frontiers = dom.dominance_frontiers()
        reachable = set(dom.rpo)

        # 1. Place phis at the iterated dominance frontier of each alloca's
        #    defining (store) blocks.  Def blocks follow use-list order and
        #    frontier sets are walked position-sorted: phi creation order
        #    (and with it %m2r numbering) is a pure function of the input,
        #    not of object addresses.
        positions = function.block_positions()
        phi_owner = {}  # PhiInst -> AllocaInst
        for alloca in allocas:
            def_blocks, seen = [], set()
            for user, _ in alloca.uses:
                if isinstance(user, StoreInst) and \
                        user.parent is not None and \
                        id(user.parent) not in seen:
                    seen.add(id(user.parent))
                    def_blocks.append(user.parent)
            worklist = [b for b in def_blocks if b in reachable]
            placed = set()
            while worklist:
                block = worklist.pop()
                for frontier_block in sorted(
                        frontiers.get(block, ()),
                        key=lambda b: positions[id(b)]):
                    if frontier_block in placed:
                        continue
                    placed.add(frontier_block)
                    phi = PhiInst(alloca.allocated_type,
                                  function.next_name("m2r"))
                    frontier_block.insert(0, phi)
                    phi_owner[phi] = alloca
                    worklist.append(frontier_block)

        # 2. Rename via a DFS over the dominator tree.
        undef = {a: UndefValue(a.allocated_type) for a in allocas}
        alloca_set = set(map(id, allocas))

        def rename(block, incoming):
            values = dict(incoming)
            for inst in list(block.instructions):
                if isinstance(inst, PhiInst) and inst in phi_owner:
                    values[id(phi_owner[inst])] = inst
                elif isinstance(inst, LoadInst) and \
                        id(inst.pointer) in alloca_set:
                    alloca = inst.pointer
                    value = values.get(id(alloca), undef[alloca])
                    inst.replace_all_uses_with(value)
                    inst.erase_from_parent()
                elif isinstance(inst, StoreInst) and \
                        id(inst.pointer) in alloca_set:
                    values[id(inst.pointer)] = inst.value
                    inst.erase_from_parent()
            for succ in block.successors():
                for phi in succ.phis():
                    alloca = phi_owner.get(phi)
                    if alloca is not None:
                        value = values.get(id(alloca), undef[alloca])
                        phi.add_incoming(value, block)
            for child in dom.children.get(block, ()):
                rename(child, values)

        import sys
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10000))
        try:
            rename(function.entry, {})
        finally:
            sys.setrecursionlimit(old_limit)

        # 2b. Edges from unreachable predecessors (e.g. frontend 'dead'
        #     blocks after break/return) are never renamed; give their phi
        #     entries an undef value so the phi covers every CFG edge.
        #     (``predecessors()`` reads the maintained links: O(preds).)
        for phi, alloca in phi_owner.items():
            if phi.parent is None:
                continue
            covered = set(map(id, phi.incoming_blocks))
            for pred in phi.parent.predecessors():
                if id(pred) not in covered:
                    phi.add_incoming(undef[alloca], pred)

        # 3. Remove uses of the allocas in unreachable blocks, then the
        #    allocas themselves.
        for alloca in allocas:
            for user, _ in list(alloca.uses):
                if isinstance(user, LoadInst):
                    user.replace_all_uses_with(undef[alloca])
                user.erase_from_parent()
            alloca.erase_from_parent()

        # 4. Prune phis that only see undef (from uninitialized paths).
        self._cleanup_trivial_phis(function)
        return True

    @staticmethod
    def _cleanup_trivial_phis(function):
        progress = True
        while progress:
            progress = False
            for block in function.blocks:
                for phi in list(block.phis()):
                    distinct = {id(v) for v in phi.operands if v is not phi}
                    incoming = [v for v in phi.operands if v is not phi]
                    if len(distinct) == 1:
                        phi.replace_all_uses_with(incoming[0])
                        phi.erase_from_parent()
                        progress = True
