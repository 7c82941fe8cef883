"""sccp / ipsccp: sparse conditional constant propagation.

Standard three-level lattice (top/constant/bottom) propagated over SSA
edges and CFG edges simultaneously; branches on constants mark only the
taken edge executable.  ``ipsccp`` extends the lattice across call edges:
argument lattices meet over all call sites and constant return values
propagate back to callers.
"""

import heapq
import struct

from repro.ir import (
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    ConstantFloat,
    ConstantInt,
    FCmpInst,
    ICmpInst,
    Instruction,
    PhiInst,
    RetInst,
    SelectInst,
    UndefValue,
)
from repro.ir.values import Constant
from repro.passes.analysis import PRESERVE_CFG, PRESERVE_NONE
from repro.passes.base import Pass, FunctionPass, register_pass
from repro.passes.utils import (
    constant_fold_terminator,
    delete_dead_instructions,
    fold_binary,
    fold_cast,
    fold_fcmp,
    fold_icmp,
    replace_and_erase,
)

_TOP = "top"        # undefined / not yet known
_BOTTOM = "bottom"  # overdefined


class _Lattice:
    """Per-value lattice map with meet over (top < constant < bottom)."""

    def __init__(self):
        self.values = {}

    def get(self, value):
        if isinstance(value, Constant):
            if isinstance(value, UndefValue):
                return _TOP
            return value
        return self.values.get(id(value), _TOP)

    def meet_into(self, value, state):
        """Merge ``state`` into value's cell; returns True on change."""
        old = self.values.get(id(value), _TOP)
        new = self._meet(old, state)
        if new != old or (new is not old and not self._same(new, old)):
            self.values[id(value)] = new
            return not self._same(new, old)
        return False

    @staticmethod
    def _same(a, b):
        if isinstance(a, str) or isinstance(b, str):
            return a == b
        return _const_equal(a, b)

    @staticmethod
    def _meet(a, b):
        if a == _BOTTOM or b == _BOTTOM:
            return _BOTTOM
        if a == _TOP:
            return b
        if b == _TOP:
            return a
        return a if _const_equal(a, b) else _BOTTOM


def _const_equal(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
        return a.value == b.value and a.type == b.type
    if isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat):
        # Bitwise: 0.0 and -0.0 are different constants (1.0 / x tells
        # them apart), and a NaN equals itself, so ipsccp's fixpoint
        # test sees a recomputed NaN cell as unmoved.
        return struct.pack("<d", a.value) == struct.pack("<d", b.value)
    return a is b


class _SCCPSolver:
    """Solves the SCCP data-flow problem for one function.

    ``arg_states`` optionally seeds argument lattice cells (used by ipsccp);
    unseeded arguments start at bottom.
    """

    def __init__(self, function, arg_states=None, call_oracle=None):
        self.function = function
        self.lattice = _Lattice()
        self.executable_edges = set()
        self.executable_blocks = set()
        self.ssa_worklist = []
        self.cfg_worklist = []
        self.call_oracle = call_oracle
        for arg in function.args:
            state = _BOTTOM
            if arg_states is not None:
                state = arg_states.get(arg.index, _BOTTOM)
            self.lattice.values[id(arg)] = state

    def solve(self):
        entry = self.function.entry
        self.cfg_worklist.append((None, entry))
        while self.cfg_worklist or self.ssa_worklist:
            while self.cfg_worklist:
                pred, block = self.cfg_worklist.pop()
                edge = (id(pred), id(block))
                first_visit = block not in self.executable_blocks
                if edge in self.executable_edges:
                    continue
                self.executable_edges.add(edge)
                self.executable_blocks.add(block)
                for phi in block.phis():
                    self._visit(phi)
                if first_visit:
                    for inst in block.instructions:
                        if not isinstance(inst, PhiInst):
                            self._visit(inst)
            while self.ssa_worklist:
                inst = self.ssa_worklist.pop()
                if inst.parent in self.executable_blocks:
                    self._visit(inst)
        return self.lattice

    def _mark_users(self, value):
        for user in value.users:
            if isinstance(user, Instruction):
                self.ssa_worklist.append(user)

    def _update(self, inst, state):
        if self.lattice.meet_into(inst, state):
            self._mark_users(inst)

    def _visit(self, inst):
        cls = inst.__class__
        if cls is PhiInst:
            state = _TOP
            for value, pred in inst.incoming():
                if (id(pred), id(inst.parent)) in self.executable_edges:
                    state = self.lattice._meet(state,
                                               self.lattice.get(value))
            self._update(inst, state)
            return
        if cls is CondBranchInst:
            cond = self.lattice.get(inst.condition)
            if cond == _BOTTOM:
                self.cfg_worklist.append((inst.parent, inst.true_target))
                self.cfg_worklist.append((inst.parent, inst.false_target))
            elif isinstance(cond, ConstantInt):
                target = inst.true_target if cond.value else inst.false_target
                self.cfg_worklist.append((inst.parent, target))
            return
        if cls is BranchInst:
            self.cfg_worklist.append((inst.parent, inst.target))
            return
        if cls is BinaryInst or cls is ICmpInst or cls is FCmpInst \
                or cls is CastInst or cls is SelectInst:
            self._update(inst, self._evaluate(inst))
            return
        if cls is CallInst:
            state = _BOTTOM
            if self.call_oracle is not None and not inst.is_intrinsic():
                state = self.call_oracle(inst, self.lattice)
            if not inst.type.is_void():
                self._update(inst, state)
            return
        # Any other value-producing instruction (loads, allocas, geps)
        # reads state SCCP does not model: it must be overdefined, NOT
        # top — a top cell would make derived values fold as if undef.
        if not inst.type.is_void():
            self._update(inst, _BOTTOM)

    def _evaluate(self, inst):
        get = self.lattice.get
        states = [get(op) for op in inst._operands]
        cls = inst.__class__
        if _BOTTOM in states:
            # Select with known condition can still be constant.
            if cls is SelectInst:
                cond = states[0]
                if isinstance(cond, ConstantInt):
                    return states[1] if cond.value else states[2]
            return _BOTTOM
        if _TOP in states:
            return _TOP
        if cls is BinaryInst:
            result = fold_binary(inst.opcode, states[0], states[1],
                                 inst.type)
            return result if result is not None else _BOTTOM
        if cls is ICmpInst:
            result = fold_icmp(inst.predicate, states[0], states[1])
            return result if result is not None else _BOTTOM
        if cls is FCmpInst:
            result = fold_fcmp(inst.predicate, states[0], states[1])
            return result if result is not None else _BOTTOM
        if cls is CastInst:
            result = fold_cast(inst.opcode, states[0], inst.value.type,
                               inst.type)
            return result if result is not None else _BOTTOM
        if cls is SelectInst:
            cond = states[0]
            if isinstance(cond, ConstantInt):
                return states[1] if cond.value else states[2]
            return _BOTTOM
        return _BOTTOM


def _apply_lattice(function, lattice, executable_blocks):
    """Rewrite the function according to solved lattice values.

    Returns ``(changed, cfg_changed)`` — ``cfg_changed`` is True when a
    branch folded (an edge disappeared), which is the only rewrite here
    that invalidates dominator/loop analyses.
    """
    changed = False
    cfg_changed = False
    for block in function.blocks:
        if block not in executable_blocks:
            continue
        for inst in list(block.instructions):
            if inst.type.is_void() or isinstance(inst, Constant):
                continue
            state = lattice.values.get(id(inst))
            if state is not None and not isinstance(state, str):
                if inst.has_side_effects():
                    # Keep the instruction (it may trap or print) but let
                    # its users see the constant.
                    if inst.is_used():
                        inst.replace_all_uses_with(state)
                        changed = True
                else:
                    replace_and_erase(inst, state)
                    changed = True
    # Fold branches whose condition became constant.
    for block in function.blocks:
        if constant_fold_terminator(block):
            changed = cfg_changed = True
    changed |= delete_dead_instructions(function)
    return changed, cfg_changed


@register_pass("sccp")
class SCCP(FunctionPass):
    # Constant propagation preserves the CFG unless a branch folds;
    # preserved_for reports which case this run was.
    preserved_analyses = PRESERVE_CFG

    def __init__(self):
        self._cfg_changed = False

    def run_on_function(self, function, am):
        solver = _SCCPSolver(function)
        lattice = solver.solve()
        changed, self._cfg_changed = _apply_lattice(
            function, lattice, solver.executable_blocks)
        return changed

    def preserved_for(self, function):
        return PRESERVE_NONE if self._cfg_changed else PRESERVE_CFG


@register_pass("ipsccp")
class IPSCCP(Pass):
    """Interprocedural SCCP.

    Solves function-local SCCP on a call-graph worklist (Wegman &
    Zadeck, TOPLAS 1991; LLVM's IPSCCP shape): argument cells meet over
    all call sites, return cells feed back to callers, and a function
    is re-solved only when one of its argument cells, or one of its
    callees' return cells, moved since its last solve.  Every cell only
    falls (top, then a constant, then bottom), so the worklist drains
    within the lattice height, and each function's last solve already
    saw the final cells: that lattice is the one applied.
    """

    # Edits are attributed per function: only the functions whose code
    # changed are reported, and they keep no analysis (a branch may
    # have folded).
    preserved_analyses = PRESERVE_NONE

    def run_with_changes(self, module, am):
        changed = self._solve_and_apply(module)
        for function in changed:
            am.invalidate(function, self.preserved_for(function))
        return set(changed)

    def _solve_and_apply(self, module):
        """Solve the module's lattices and rewrite each function; the
        list of functions whose code changed."""
        solvers, _, _ = solve_module(module)
        changed = []
        for function, solver in solvers.items():
            function_changed, _ = _apply_lattice(
                function, solver.lattice, solver.executable_blocks)
            if function_changed:
                changed.append(function)
        return changed


def solve_module(module):
    """Run the ipsccp worklist over ``module``'s defined functions.

    Returns ``(solvers, arg_states, return_states)``: each function's
    last :class:`_SCCPSolver` (in module order), its argument cells
    ``{name: {index: state}}`` and its return cells ``{name: state}``.
    Externally callable functions (``main``) start with bottom
    arguments, every other cell at top.
    """
    functions = module.defined_functions()
    by_name = {f.name: f for f in functions}
    callees = {}
    for function in functions:
        callees[function.name] = list(dict.fromkeys(
            inst.callee.name
            for block in function.blocks
            for inst in block.instructions
            if isinstance(inst, CallInst) and not inst.is_intrinsic()
            and inst.callee.name in by_name))
    callers = {name: [] for name in by_name}
    for name, targets in callees.items():
        for target in targets:
            callers[target].append(name)
    # Callers first: reverse postorder of the call graph, rooted at the
    # functions in module order.
    postorder, visited = [], set()
    for root in by_name:
        if root in visited:
            continue
        visited.add(root)
        stack = [(root, iter(callees[root]))]
        while stack:
            name, pending = stack[-1]
            for target in pending:
                if target not in visited:
                    visited.add(target)
                    stack.append((target, iter(callees[target])))
                    break
            else:
                postorder.append(name)
                stack.pop()
    order = postorder[::-1]
    rank = {name: i for i, name in enumerate(order)}

    arg_states = {
        f.name: {arg.index: _BOTTOM if f.name == "main" else _TOP
                 for arg in f.args}
        for f in functions}
    return_states = {}
    # A cell hands another function a constant as it is when the IR
    # holds it (it has uses) or an argument cell does; a value folded
    # during a solve crosses as a copy (one per folded value into
    # argument cells, one per move of a return cell), so a function's
    # rewrite shares a constant object with another function's exactly
    # when a solve of every function after the fixpoint would.
    held = set()
    arg_copies = {}

    def handed_on(state, memo=None):
        if not isinstance(state, Constant) or state.uses \
                or id(state) in held:
            return state
        if memo is None:
            return state.copy()
        if id(state) not in memo:
            memo[id(state)] = (state, state.copy())
        return memo[id(state)][1]

    queued = set(by_name)
    worklist = sorted(rank[name] for name in by_name)

    def enqueue(name):
        if name not in queued:
            queued.add(name)
            heapq.heappush(worklist, rank[name])

    def oracle(call, lattice):
        callee = call.callee.name
        cells = arg_states.get(callee)
        if cells is None:
            return _BOTTOM
        moved = False
        for index, arg in enumerate(call.args):
            old = cells.get(index, _TOP)
            new = _Lattice._meet(old, lattice.get(arg))
            if not _const_equal(new, old):
                new = handed_on(new, arg_copies)
                if isinstance(new, Constant):
                    held.add(id(new))
                cells[index] = new
                moved = True
        if moved:
            enqueue(callee)
        return return_states.get(callee, _TOP)

    solvers = {}
    while worklist:
        name = order[heapq.heappop(worklist)]
        queued.discard(name)
        function = by_name[name]
        solver = _SCCPSolver(function, arg_states[name], call_oracle=oracle)
        lattice = solver.solve()
        solvers[function] = solver
        ret_state = _TOP
        for block in function.blocks:
            if block not in solver.executable_blocks:
                continue
            term = block.terminator()
            if isinstance(term, RetInst) and term.value is not None:
                ret_state = _Lattice._meet(ret_state,
                                           lattice.get(term.value))
        if not _const_equal(ret_state, return_states.get(name, _TOP)):
            return_states[name] = handed_on(ret_state)
            for caller in callers[name]:
                enqueue(caller)
    return ({f: solvers[f] for f in functions}, arg_states, return_states)
