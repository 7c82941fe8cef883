"""Common-subexpression elimination family: early-cse, early-cse-memssa,
and gvn.

``early-cse`` walks the dominator tree with a scoped hash table of pure
expressions, plus same-block load reuse.  ``early-cse-memssa`` extends load
reuse across instructions that provably do not clobber the loaded cell.
``gvn`` is an RPO-iterated global value-numbering with leader sets, which
also catches partially redundant computations across join-free paths.
"""

from repro.ir import (
    CallInst,
    LoadInst,
    PhiInst,
    StoreInst,
)
from repro.passes.analysis import PRESERVE_CFG
from repro.passes.base import FunctionPass, register_pass
from repro.passes.utils import (
    delete_dead_instructions,
    instruction_may_write,
    is_pure,
    must_alias,
    replace_and_erase,
    value_number_key,
)


class _EarlyCSEBase(FunctionPass):
    use_memory_ssa = False
    # Value replacements only; blocks and edges are untouched.
    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        dom = am.domtree(function)
        self._changed = False

        def walk(block, expressions, loads):
            expressions = dict(expressions)
            loads = dict(loads)
            for inst in list(block.instructions):
                # Memory clobbers invalidate load availability.
                if isinstance(inst, StoreInst):
                    self._invalidate(loads, inst)
                    # The stored value becomes available for loads from the
                    # same address.
                    loads[("cell", id(inst.pointer))] = (inst.pointer,
                                                         inst.value)
                    continue
                if isinstance(inst, CallInst) and \
                        inst.callee_may_access_memory():
                    loads.clear()
                    continue
                if isinstance(inst, LoadInst):
                    hit = loads.get(("cell", id(inst.pointer)))
                    if hit is not None and must_alias(hit[0], inst.pointer):
                        replace_and_erase(inst, hit[1])
                        self._changed = True
                        continue
                    loads[("cell", id(inst.pointer))] = (inst.pointer, inst)
                    continue
                if not is_pure(inst):
                    continue
                key = value_number_key(inst)
                if key is None:
                    continue
                existing = expressions.get(key)
                if existing is not None:
                    replace_and_erase(inst, existing)
                    self._changed = True
                else:
                    expressions[key] = inst
            for child in dom.children.get(block, ()):
                # Memory state may only flow into a child along a unique
                # CFG edge from this block: other incoming paths (e.g. a
                # loop back edge into a header this block dominates) can
                # carry clobbers this walk never sees.
                child_loads = {}
                if self.use_memory_ssa and \
                        child.predecessors() == [block]:
                    child_loads = loads
                walk(child, expressions, child_loads)

        if function.entry is not None:
            import sys
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(limit, 10000))
            try:
                walk(function.entry, {}, {})
            finally:
                sys.setrecursionlimit(limit)
        self._changed |= delete_dead_instructions(function)
        return self._changed

    @staticmethod
    def _invalidate(loads, store):
        for key, (pointer, _) in list(loads.items()):
            if instruction_may_write(store, pointer):
                del loads[key]


@register_pass("early-cse")
class EarlyCSE(_EarlyCSEBase):
    # Value-numbering rewrites only; the CFG is untouched (R004: the
    # contract is declared per concrete pass, not inherited silently).
    preserved_analyses = PRESERVE_CFG
    use_memory_ssa = False


@register_pass("early-cse-memssa")
class EarlyCSEMemSSA(_EarlyCSEBase):
    preserved_analyses = PRESERVE_CFG
    use_memory_ssa = True


@register_pass("gvn")
class GVN(FunctionPass):
    """RPO-iterated global value numbering with dominance-checked leaders."""

    preserved_analyses = PRESERVE_CFG

    def run_on_function(self, function, am):
        from repro.ir.cfg import InstructionPositions, reverse_postorder

        dom = am.domtree(function)
        changed = False
        iterate = True
        rounds = 0
        while iterate and rounds < 4:
            iterate = False
            rounds += 1
            leaders = {}
            # Same-block leader checks share memoized instruction
            # positions; erasures change the block length, which the
            # memo detects and rebuilds on.
            positions = InstructionPositions()
            for block in reverse_postorder(function):
                for inst in list(block.instructions):
                    if isinstance(inst, PhiInst):
                        # Phi of identical values collapses.
                        values = [v for v in inst.operands if v is not inst]
                        if values and all(v is values[0] for v in values):
                            replace_and_erase(inst, values[0])
                            changed = iterate = True
                        continue
                    if not is_pure(inst):
                        continue
                    key = value_number_key(inst)
                    if key is None:
                        continue
                    leader = leaders.get(key)
                    if leader is not None and leader.parent is not None and \
                            dom.instruction_dominates(leader, inst,
                                                      positions):
                        replace_and_erase(inst, leader)
                        changed = iterate = True
                        continue
                    if leader is None or leader.parent is None:
                        leaders[key] = inst
        changed |= self._load_forwarding(function, dom)
        changed |= delete_dead_instructions(function)
        return changed

    @staticmethod
    def _load_forwarding(function, dom):
        """Forward a dominating load/store value to a later load of the
        same cell when no instruction on any path in between may clobber it.

        A conservative approximation: only within the same block, or when
        every block between definer and user (in the dominator chain) is
        clobber-free for that cell.
        """
        changed = False
        for block in function.blocks:
            available = {}
            for inst in list(block.instructions):
                if isinstance(inst, StoreInst):
                    for pointer in list(available):
                        if instruction_may_write(inst, available[pointer][0]):
                            del available[pointer]
                    available[id(inst.pointer)] = (inst.pointer, inst.value)
                elif isinstance(inst, CallInst) and \
                        inst.callee_may_access_memory():
                    available.clear()
                elif isinstance(inst, LoadInst):
                    hit = available.get(id(inst.pointer))
                    if hit is not None and must_alias(hit[0], inst.pointer):
                        replace_and_erase(inst, hit[1])
                        changed = True
                        continue
                    available[id(inst.pointer)] = (inst.pointer, inst)
        return changed
