"""Interprocedural phases: inline, argpromotion, deadargelim, globalopt,
globaldce, constmerge, called-value-propagation, prune-eh,
elim-avail-extern.
"""

from repro.ir import (
    AllocaInst,
    BranchInst,
    CallInst,
    ConstantInt,
    FunctionType,
    LoadInst,
    PhiInst,
    RetInst,
    StoreInst,
)
from repro.passes.analysis import PRESERVE_CFG, PRESERVE_NONE
from repro.passes.base import FunctionPass, Pass, register_pass
from repro.passes.cloning import clone_region


def _call_sites(module, function):
    sites = []
    for caller in module.defined_functions():
        for block in caller.blocks:
            for inst in block.instructions:
                if isinstance(inst, CallInst) and not inst.is_intrinsic() \
                        and inst.callee is function:
                    sites.append(inst)
    return sites


def _is_recursive(function):
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, CallInst) and not inst.is_intrinsic() \
                    and inst.callee is function:
                return True
    return False


@register_pass("inline")
class Inliner(Pass):
    """Bottom-up inlining with a size threshold."""

    # Splices callee blocks into callers: CFG analyses do not survive.
    preserved_analyses = PRESERVE_NONE
    THRESHOLD = 45

    def run_on_module(self, module, am):
        changed = False
        budget = 50  # bound total inlines per run
        progress = True
        while progress and budget > 0:
            progress = False
            for caller in module.defined_functions():
                for block in list(caller.blocks):
                    for inst in list(block.instructions):
                        if not isinstance(inst, CallInst) or \
                                inst.is_intrinsic():
                            continue
                        callee = inst.callee
                        if callee.is_declaration() or callee is caller:
                            continue
                        if _is_recursive(callee):
                            continue
                        if callee.instruction_count() > self.THRESHOLD:
                            continue
                        self._inline_site(caller, inst)
                        changed = progress = True
                        budget -= 1
                        break
                    if progress:
                        break
                if progress:
                    break
        return changed

    @staticmethod
    def _inline_site(caller, call):
        callee = call.callee
        block = call.parent
        # 1. Split the calling block at the call site.  The tail
        #    (terminator included) moves in one splice; the successors'
        #    maintained incoming edge switches from ``block`` to
        #    ``continuation`` with the terminator.
        index = block.instructions.index(call)
        continuation = caller.append_block(caller.next_name("inl.cont"))
        continuation.take_instructions_from(block, index + 1)
        # Phi users in successors must now name the continuation block.
        for succ in continuation.successors():
            for phi in succ.phis():
                phi.replace_incoming_block(block, continuation)
        # 2. Clone the callee body into the caller.
        value_map, block_map = clone_region(callee.blocks, caller,
                                            f"inl.{callee.name}")
        entry_clone = block_map[id(callee.entry)]
        # 3. Bind arguments.
        for arg, actual in zip(callee.args, call.args):
            for clone_block in block_map.values():
                for inst in clone_block.instructions:
                    for op_index, op in enumerate(inst.operands):
                        if op is arg:
                            inst.set_operand(op_index, actual)
        # 4. Rewire returns to the continuation with a phi for the value.
        return_sites = []
        for orig in callee.blocks:
            clone_block = block_map[id(orig)]
            term = clone_block.terminator()
            if isinstance(term, RetInst):
                return_sites.append((clone_block, term.value))
                clone_block.set_terminator(BranchInst(continuation))
        if not call.type.is_void():
            if len(return_sites) == 1:
                call.replace_all_uses_with(return_sites[0][1])
            else:
                phi = PhiInst(call.type, caller.next_name("retval"))
                continuation.insert(0, phi)
                # A direct self-use would be illegal; return values always
                # come from the cloned body.
                for site_block, value in return_sites:
                    phi.add_incoming(value, site_block)
                call.replace_all_uses_with(phi)
        # 5. Replace the call with a jump into the inlined entry.
        call.erase_from_parent()
        block.append(BranchInst(entry_clone))
        # 6. Inlined allocas are hoisted to the caller entry so mem2reg
        #    can see them.
        entry = caller.entry
        for clone_block in block_map.values():
            for inst in list(clone_block.instructions):
                if isinstance(inst, AllocaInst):
                    clone_block.remove_instruction(inst)
                    entry.insert(0, inst)


@register_pass("argpromotion")
class ArgPromotion(Pass):
    """Promote pointer arguments that are only loaded (never written,
    never escaped) into value arguments.

    The rewrite changes the function signature, so all call sites must be
    known and the function must not be recursive (kept simple).
    """

    # Signature/load rewrites only; every function's CFG is untouched.
    preserved_analyses = PRESERVE_CFG

    def run_on_module(self, module, am):
        changed = False
        for function in list(module.defined_functions()):
            if function.name == "main" or _is_recursive(function):
                continue
            promotable = self._promotable_args(function)
            if not promotable:
                continue
            # Only promote when every call site passes a pointer we can
            # load from at the call site.
            sites = _call_sites(module, function)
            if not sites:
                continue
            self._promote(module, function, promotable, sites)
            changed = True
        return changed

    @staticmethod
    def _promotable_args(function):
        result = []
        for arg in function.args:
            if not arg.type.is_pointer():
                continue
            if not arg.type.pointee.is_scalar():
                continue
            uses_ok = all(isinstance(user, LoadInst) for user in arg.users)
            if uses_ok and arg.users:
                result.append(arg.index)
        return result

    @staticmethod
    def _promote(module, function, promotable, sites):
        # New signature: promoted args become their pointee type.
        new_params = []
        for index, ptype in enumerate(function.ftype.params):
            if index in promotable:
                new_params.append(ptype.pointee)
            else:
                new_params.append(ptype)
        function.ftype = FunctionType(function.ftype.ret, new_params)
        function.type = function.ftype
        for index in promotable:
            arg = function.args[index]
            arg.type = arg.type.pointee
            # Replace loads of the argument with the argument itself.
            for user in list(arg.users):
                if isinstance(user, LoadInst):
                    user.replace_all_uses_with(arg)
                    user.erase_from_parent()
        # Rewrite call sites: load the pointer before the call.
        for call in sites:
            for index in promotable:
                pointer = call.args[index]
                load = LoadInst(pointer)
                load.name = call.parent.parent.next_name("apl")
                block = call.parent
                block.insert(block.instructions.index(call), load)
                call.set_operand(index, load)


@register_pass("deadargelim")
class DeadArgElim(Pass):
    """Remove arguments that no function body reads (all call sites known,
    non-recursive, not main)."""

    preserved_analyses = PRESERVE_CFG

    def run_on_module(self, module, am):
        changed = False
        for function in list(module.defined_functions()):
            if function.name == "main":
                continue
            dead = [a.index for a in function.args if not a.uses]
            if not dead:
                continue
            sites = _call_sites(module, function)
            keep = [i for i in range(len(function.args)) if i not in dead]
            new_params = [function.ftype.params[i] for i in keep]
            function.ftype = FunctionType(function.ftype.ret, new_params)
            function.type = function.ftype
            old_args = function.args
            function.args = [old_args[i] for i in keep]
            for new_index, arg in enumerate(function.args):
                arg.index = new_index
            for call in sites:
                # Rebuild the call with fewer args (CallInst operands are
                # positional); easiest correct path: construct new call.
                new_call = CallInst(function,
                                    [call.args[i] for i in keep])
                new_call.name = call.name
                block = call.parent
                block.insert(block.instructions.index(call), new_call)
                call.replace_all_uses_with(new_call)
                call.erase_from_parent()
            changed = True
        return changed


@register_pass("globalopt")
class GlobalOpt(Pass):
    """Fold globals that are never stored to their initializer value, and
    delete stores to globals that are never read."""

    preserved_analyses = PRESERVE_CFG

    def run_on_module(self, module, am):
        changed = False
        for gv in list(module.globals.values()):
            if gv.value_type.is_array():
                continue
            loads = [u for u in gv.users if isinstance(u, LoadInst)
                     and u.pointer is gv]
            stores = [u for u in gv.users if isinstance(u, StoreInst)
                      and u.pointer is gv]
            others = [u for u in gv.users
                      if u not in loads and u not in stores]
            if others:
                continue
            if not stores and gv.initializer is not None:
                from repro.ir import ConstantFloat
                if gv.value_type.is_float():
                    constant = ConstantFloat(gv.value_type, gv.initializer)
                else:
                    constant = ConstantInt(gv.value_type, gv.initializer)
                for load in loads:
                    load.replace_all_uses_with(constant)
                    load.erase_from_parent()
                changed = bool(loads) or changed
            elif not loads and stores:
                for store in stores:
                    store.erase_from_parent()
                changed = True
        return changed


@register_pass("globaldce")
class GlobalDCE(Pass):
    """Delete unreferenced functions and globals (main is the root)."""

    # Surviving functions are untouched (a deleted function had no live
    # call sites); their analyses all stay valid.  The removed functions'
    # cache entries are dropped by invalidate_module.
    preserved_analyses = PRESERVE_CFG | frozenset({"loopivs"})

    def run_on_module(self, module, am):
        changed = False
        # Functions reachable from main via calls.
        reachable = set()
        worklist = ["main"] if "main" in module.functions else []
        while worklist:
            name = worklist.pop()
            if name in reachable:
                continue
            reachable.add(name)
            function = module.functions[name]
            for block in function.blocks:
                for inst in block.instructions:
                    if isinstance(inst, CallInst) and \
                            not inst.is_intrinsic():
                        worklist.append(inst.callee.name)
        for name in list(module.functions):
            if name not in reachable:
                module.functions[name].clear_body()
                module.remove_function(name)
                changed = True
        for name, gv in list(module.globals.items()):
            if not gv.uses:
                module.remove_global(name)
                changed = True
        return changed


@register_pass("constmerge")
class ConstMerge(Pass):
    """Merge identical constant global arrays into one."""

    preserved_analyses = PRESERVE_CFG

    def run_on_module(self, module, am):
        changed = False
        by_content = {}
        for name, gv in list(module.globals.items()):
            if not gv.is_constant_global or gv.initializer is None:
                continue
            key = (str(gv.value_type), tuple(gv.initializer)
                   if isinstance(gv.initializer, (list, tuple))
                   else gv.initializer)
            leader = by_content.get(key)
            if leader is None:
                by_content[key] = gv
            else:
                gv.replace_all_uses_with(leader)
                module.remove_global(name)
                changed = True
        return changed


@register_pass("called-value-propagation")
class CalledValuePropagation(Pass):
    """Propagate constant return values: a function whose every return
    yields the same constant lets callers use the constant directly
    (the call is kept for its side effects; DCE removes it if pure)."""

    preserved_analyses = PRESERVE_CFG

    def run_on_module(self, module, am):
        changed = False
        constant_returns = {}
        for function in module.defined_functions():
            value = None
            consistent = True
            for block in function.blocks:
                term = block.terminator()
                if isinstance(term, RetInst) and term.value is not None:
                    if not term.value.is_constant():
                        consistent = False
                        break
                    if value is None:
                        value = term.value
                    elif not self._same_constant(value, term.value):
                        consistent = False
                        break
            if consistent and value is not None:
                constant_returns[function.name] = value
        for function in module.defined_functions():
            for block in function.blocks:
                for inst in list(block.instructions):
                    if isinstance(inst, CallInst) and \
                            not inst.is_intrinsic() and \
                            inst.callee.name in constant_returns and \
                            inst.is_used():
                        inst.replace_all_uses_with(
                            constant_returns[inst.callee.name])
                        changed = True
        return changed

    @staticmethod
    def _same_constant(a, b):
        from repro.ir import ConstantFloat
        if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
            return a.value == b.value
        if isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat):
            return a.value == b.value
        return False


@register_pass("prune-eh")
class PruneEH(FunctionPass):
    """Without exceptions in the IR this reduces to removing unreachable
    blocks and marking functions that cannot trap."""

    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        from repro.passes.simplifycfg import SimplifyCFG
        changed = SimplifyCFG._remove_unreachable(function)
        return changed


@register_pass("elim-avail-extern")
class ElimAvailExtern(Pass):
    """No linkage model exists in this IR, so the phase is a documented
    no-op (the PSS's inactive-subsequence logic exercises such phases)."""

    # A no-op trivially keeps the CFG analyses valid (never invoked
    # anyway: invalidation only runs when a pass reports a change).
    preserved_analyses = PRESERVE_CFG

    def run_on_module(self, module, am):
        return False
