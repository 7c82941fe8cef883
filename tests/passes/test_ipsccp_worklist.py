"""ipsccp solves on a call-graph worklist.

A function is re-solved only when one of its argument cells, or one of
its callees' return cells, moved since its last solve, and each
function's last lattice is the one applied.  These tests pin:

- the solve count over the -O2 corpus (count only, no wall clock): the
  earlier round-robin solve made 328 function solves there, 28 for the
  single-function modules and 300 for the 49 functions of the 13
  multi-function modules; the worklist must make at most half;
- the fixpoint: each applied lattice equals a fresh solve seeded with
  the final argument and return cells;
- bit-identity with the round-robin solve, kept verbatim below as the
  oracle: the rewritten module's full state digest (which also covers
  which operands share one constant object) matches on the -O2 corpus
  and on programs whose folded constants cross calls.
"""

import pytest

from clone_golden import state_digest
from repro.baselines import STANDARD_LEVELS
from repro.ir import CallInst, RetInst, run_module
from repro.lang import compile_source
from repro.passes import AnalysisManager, PassManager
from repro.passes import sccp
from repro.passes.cloning import clone_module
from repro.passes.sccp import (
    _BOTTOM,
    _TOP,
    _Lattice,
    _SCCPSolver,
    _apply_lattice,
    _const_equal,
    solve_module,
)
from repro.workloads import load_suite
from repro.workloads.registry import suite_names

#: The round-robin solve's count over the -O2 corpus.
ROUND_ROBIN_SOLVES = 328

#: Programs where constants folded in one function reach another
#: through an argument or a return value.
CROSSING = {
    "return_into_argument": """
        int g(int c) { return c * 2; }
        int f(int x) { print_int(x); return x + 1; }
        int main() { return f(g(4)); }
    """,
    "forwarded_argument": """
        int h(int y) { print_int(y); return y; }
        int f(int x) { print_int(x); return h(x) + x; }
        int main() { int a = 3; int b = a * 5; return f(b); }
    """,
    "one_value_two_callees": """
        int h(int y) { print_int(y); return y; }
        int f(int x) { print_int(x); return x; }
        int main() { int b = 0; if (b == 0) b = 7; else b = 7;
                     return f(b + 1) + h(b + 1); }
    """,
    "argument_and_return": """
        int h(int y) { print_int(y); return 1; }
        int g(int c) { int v = c * 3; h(v); return v; }
        int main() { print_int(g(2)); print_int(g(2)); return 0; }
    """,
    "recursion": """
        int r(int n, int k) { if (n <= 0) return k * 2; return r(n - 1, k); }
        int main() { print_int(r(5, 3)); return 0; }
    """,
    "chain": """
        int sink(int x) { return x * 2; }
        int g1(int x) { return x + 1; }
        int g2(int x) { return g1(x) + 1; }
        int main() { int t = sink(g2(3)); t += sink(g2(3));
                     print_int(t); return 0; }
    """,
}


def _round_robin(module):
    """The earlier ipsccp, verbatim: every function re-solved each round
    until no cell moves, then a fresh solve and rewrite per function."""
    functions = module.defined_functions()
    defined = {id(f) for f in functions}
    has_interprocedural_calls = any(
        isinstance(inst, CallInst) and not inst.is_intrinsic()
        and id(inst.callee) in defined
        for function in functions
        for block in function.blocks
        for inst in block.instructions)
    if not has_interprocedural_calls:
        changed = []
        for function in functions:
            default = _BOTTOM if function.name == "main" else _TOP
            seeds = {arg.index: default for arg in function.args}
            solver = _SCCPSolver(
                function, seeds,
                call_oracle=lambda call, lattice: _BOTTOM)
            lattice = solver.solve()
            function_changed, _ = _apply_lattice(
                function, lattice, solver.executable_blocks)
            if function_changed:
                changed.append(function)
        return changed
    arg_states = {f.name: {} for f in functions}
    return_states = {}
    for function in functions:
        for arg in function.args:
            default = _BOTTOM if function.name == "main" else _TOP
            arg_states[function.name][arg.index] = default

    def oracle(call, lattice):
        callee = call.callee
        if callee.name not in arg_states:
            return _BOTTOM
        for index, arg in enumerate(call.args):
            state = lattice.get(arg)
            cell = arg_states[callee.name]
            old = cell.get(index, _TOP)
            cell[index] = _Lattice._meet(old, state)
        return return_states.get(callee.name, _TOP)

    moved = True
    while moved:
        arg_snapshot = {name: dict(cells)
                        for name, cells in arg_states.items()}
        return_states_new = {}
        for function in functions:
            solver = _SCCPSolver(function,
                                 arg_states[function.name],
                                 call_oracle=oracle)
            lattice = solver.solve()
            ret_state = _TOP
            for block in function.blocks:
                if block not in solver.executable_blocks:
                    continue
                term = block.terminator()
                if isinstance(term, RetInst) and term.value is not None:
                    ret_state = _Lattice._meet(
                        ret_state, lattice.get(term.value))
            return_states_new[function.name] = ret_state
        moved = any(
            not _const_equal(state, return_states.get(name, _TOP))
            for name, state in return_states_new.items()) or any(
            not _const_equal(state, arg_snapshot[name].get(index, _TOP))
            for name, cells in arg_states.items()
            for index, state in cells.items())
        return_states = return_states_new

    changed = []
    for function in functions:
        def final_oracle(call, lattice, _rs=return_states):
            return _rs.get(call.callee.name, _BOTTOM)

        solver = _SCCPSolver(function, arg_states[function.name],
                             call_oracle=final_oracle)
        lattice = solver.solve()
        function_changed, _ = _apply_lattice(
            function, lattice, solver.executable_blocks)
        if function_changed:
            changed.append(function)
    return changed


def _o2_states_at_ipsccp():
    """[(name, module)]: every corpus program just before -O2's ipsccp."""
    prefix = STANDARD_LEVELS["-O2"]
    prefix = prefix[:prefix.index("ipsccp")]
    states = []
    for suite in suite_names():
        for workload in load_suite(suite):
            module = workload.compile()
            PassManager().run(module, list(prefix), AnalysisManager())
            states.append((f"{suite}/{workload.name}", module))
    return states


@pytest.fixture(scope="module")
def o2_states():
    return _o2_states_at_ipsccp()


def test_ipsccp_makes_at_most_half_the_round_robin_solves(
        o2_states, monkeypatch):
    solves = []
    solve = _SCCPSolver.solve

    def counting(self):
        solves.append(self.function.name)
        return solve(self)

    monkeypatch.setattr(_SCCPSolver, "solve", counting)
    functions = 0
    for _name, module in o2_states:
        functions += len(module.defined_functions())
        PassManager().run(clone_module(module), ["ipsccp"])
    # Every function is solved at least once.
    assert functions <= len(solves) <= ROUND_ROBIN_SOLVES // 2


def _assert_fixpoint(module):
    solvers, arg_states, return_states = solve_module(module)

    def final_oracle(call, lattice):
        name = call.callee.name
        if name not in arg_states:
            return _BOTTOM
        return return_states.get(name, _TOP)

    for function, solver in solvers.items():
        fresh = _SCCPSolver(function, arg_states[function.name],
                            call_oracle=final_oracle)
        fresh.solve()
        assert fresh.executable_blocks == solver.executable_blocks
        assert fresh.executable_edges == solver.executable_edges
        values = solver.lattice.values
        assert values.keys() == fresh.lattice.values.keys()
        for key, state in fresh.lattice.values.items():
            assert _const_equal(state, values[key]), function.name


def test_each_applied_lattice_is_the_fresh_solve_of_the_final_cells(
        o2_states):
    for _name, module in o2_states:
        _assert_fixpoint(module)
    for source in CROSSING.values():
        module = compile_source(source)
        PassManager().run(module, ["mem2reg"])
        _assert_fixpoint(module)


def _assert_matches_round_robin(module):
    ours, theirs = clone_module(module), clone_module(module)
    changed = sccp.IPSCCP()._solve_and_apply(ours)
    expected = _round_robin(theirs)
    assert [f.name for f in changed] == [f.name for f in expected]
    assert state_digest(ours) == state_digest(theirs)


def test_rewrites_match_the_round_robin_solve_on_the_o2_corpus(o2_states):
    for _name, module in o2_states:
        _assert_matches_round_robin(module)


@pytest.mark.parametrize("name", sorted(CROSSING))
@pytest.mark.parametrize("prefix", [[], ["mem2reg"],
                                    ["mem2reg", "instcombine"]])
def test_rewrites_match_the_round_robin_solve_across_calls(name, prefix):
    """Folded constants that cross a call are copied exactly where the
    round-robin solve's fresh final solves left distinct objects."""
    source = CROSSING[name]
    module = compile_source(source)
    PassManager().run(module, prefix)
    _assert_matches_round_robin(module)
    reference = run_module(compile_source(source)).observable()
    PassManager(verify=True).run(module, ["ipsccp"])
    assert run_module(module).observable() == reference
