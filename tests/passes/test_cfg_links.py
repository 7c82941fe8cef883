"""IR-maintained CFG edges (ISSUE 5).

The IR layer now maintains its own reverse CFG (edge-count-aware
predecessor links on every block, a block-position index on every
function), updated through the mutation API (``set_terminator``,
terminator target setters / ``replace_successor``,
``BasicBlock.insert_after``/``insert_before``/``remove_from_parent``,
``Function.remove_block``).  These tests pin:

- the mutation API's bookkeeping, edge counts included (a ``condbr``
  with both arms on one target carries a count of 2);
- the central differential property: after **every registered pass**
  over the fuzz corpus, the maintained links are bit-identical to a
  from-scratch ``recompute_predecessors_map`` recompute, and
  ``Block.predecessors()`` to the historical whole-function scan;
- warm-vs-fresh bit-identity through the new mutation API;
- the verifier's cross-check mode turning a manually staled link into
  an immediate ``VerificationError``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import VerificationError
from repro.ir import (
    BasicBlock,
    BranchInst,
    CondBranchInst,
    ConstantInt,
    Function,
    Module,
    RetInst,
    run_module,
    verify_function,
    verify_module,
)
from repro.ir.cfg import (
    predecessors_map,
    recompute_predecessors_map,
)
from repro.ir.printer import module_fingerprint
from repro.ir.types import I1, I64, FunctionType
from repro.lang import compile_source
from repro.passes import PassManager, available_phases
from tests.conftest import LOOP_SOURCE, SMOKE_SOURCE
from tests.mlcomp.test_expression_fuzz import expressions
from tests.passes.test_differential import ARRAY_SRC, FLOAT_SRC

PHASES = available_phases()


def assert_cfg_state_consistent(module):
    """Maintained CFG state is bit-identical to a from-scratch
    recompute, for every function in ``module``."""
    for function in module.functions.values():
        if function.is_declaration():
            continue
        recomputed = recompute_predecessors_map(function)
        maintained = predecessors_map(function)
        assert list(maintained) == list(recomputed)
        for block in function.blocks:
            assert [id(b) for b in maintained[block]] == \
                [id(b) for b in recomputed[block]], block.name
            # The historical per-query scan, for predecessors():
            legacy = []
            for other in function.blocks:
                if block in other.successors():
                    legacy.append(other)
            assert [id(b) for b in block.predecessors()] == \
                [id(b) for b in legacy], block.name
        # Block-position index matches the actual order.
        positions = function.block_positions()
        assert positions == {id(b): i
                             for i, b in enumerate(function.blocks)}


# -- mutation-API bookkeeping ---------------------------------------------

def _empty_function():
    module = Module("m")
    fn = Function("f", FunctionType(I64, []))
    module.add_function(fn)
    return module, fn


def test_append_and_set_terminator_maintain_links():
    _, fn = _empty_function()
    entry = fn.append_block("entry")
    a = fn.append_block("a")
    b = fn.append_block("b")
    cond = ConstantInt(I1, 1)
    entry.append(CondBranchInst(cond, a, b))
    assert a.predecessors() == [entry]
    assert b.predecessors() == [entry]
    # Replacing the terminator swaps the edges atomically.
    entry.set_terminator(BranchInst(b))
    assert a.predecessors() == []
    assert b.predecessors() == [entry]
    assert b.pred_edge_count(entry) == 1


def test_condbr_double_edge_counts():
    _, fn = _empty_function()
    entry = fn.append_block("entry")
    a = fn.append_block("a")
    b = fn.append_block("b")
    cond = ConstantInt(I1, 0)
    term = entry.append(CondBranchInst(cond, a, a))
    assert a.pred_edge_count(entry) == 2
    assert a.predecessors() == [entry]  # reported once, like the scan
    # Retargeting one arm drops exactly one edge.
    term.false_target = b
    assert a.pred_edge_count(entry) == 1
    assert b.pred_edge_count(entry) == 1
    term.replace_successor(a, b)
    assert a.pred_edge_count(entry) == 0
    assert b.pred_edge_count(entry) == 2


def test_predecessors_in_function_block_order():
    _, fn = _empty_function()
    entry = fn.append_block("entry")
    join = fn.append_block("join")
    left = fn.append_block("left")
    right = fn.append_block("right")
    cond = ConstantInt(I1, 1)
    entry.append(CondBranchInst(cond, right, left))
    # Edges created right-then-left, but the report follows block order.
    right.append(BranchInst(join))
    left.append(BranchInst(join))
    join.append(RetInst(ConstantInt(I64, 0)))
    assert join.predecessors() == [left, right]
    # Moving a block reorders the report through the position index.
    right.insert_before(left)
    assert join.predecessors() == [right, left]


def test_remove_block_scrubs_phis_and_edges():
    from repro.ir import PhiInst
    _, fn = _empty_function()
    entry = fn.append_block("entry")
    a = fn.append_block("a")
    join = fn.append_block("join")
    cond = ConstantInt(I1, 1)
    entry.append(CondBranchInst(cond, a, join))
    a.append(BranchInst(join))
    phi = PhiInst(I64, "p")
    join.insert(0, phi)
    phi.add_incoming(ConstantInt(I64, 1), entry)
    phi.add_incoming(ConstantInt(I64, 2), a)
    join.append(RetInst(phi))
    # Retarget entry around `a`, then drop it: the phi entry for `a`
    # and the maintained edge disappear together.
    entry.terminator().replace_successor(a, join)
    fn.remove_block(a)
    assert a.parent is None and a not in fn.blocks
    # The phi keeps one entry for ``entry`` (a double-edged predecessor
    # is reported once); the entry for ``a`` is scrubbed with the block.
    assert [b for b in phi.incoming_blocks] == [entry]
    assert join.pred_edge_count(a) == 0
    assert join.pred_edge_count(entry) == 2
    verify_function(fn)


def test_verifier_cross_check_catches_stale_links():
    module = compile_source(LOOP_SOURCE)
    fn = module.get_function("main")
    block = fn.blocks[-1]
    pred = block.predecessors()
    # Tamper with the maintained state behind the API's back.
    if pred:
        block._preds.pop(pred[0])
    else:
        block._preds[fn.entry] = 1
    with pytest.raises(VerificationError, match="maintained predecessor"):
        verify_function(fn)


def test_verifier_cross_check_catches_stale_positions():
    module = compile_source(LOOP_SOURCE)
    fn = module.get_function("main")
    positions = fn.block_positions()
    first, second = fn.blocks[0], fn.blocks[1]
    positions[id(first)], positions[id(second)] = \
        positions[id(second)], positions[id(first)]
    with pytest.raises(VerificationError, match="block-position"):
        verify_function(fn)


def test_raw_terminator_splice_is_rejected():
    _, fn = _empty_function()
    entry = fn.append_block("entry")
    exit_block = fn.append_block("x")
    entry.append(BranchInst(exit_block))
    exit_block.append(RetInst(ConstantInt(I64, 0)))
    # The historical hazard: editing block.instructions around a
    # terminator by hand leaves the reverse edges stale...
    term = entry.instructions.pop()
    detour = BasicBlock("detour")
    detour.insert_after(entry)
    detour.parent = fn  # attached mid-rewrite, terminator spliced raw
    detour.instructions.append(term)
    term.parent = detour
    # ...and the verifier now rejects it instead of miscompiling later.
    entry.append(BranchInst(detour))
    with pytest.raises(VerificationError, match="maintained predecessor"):
        verify_function(fn)


# -- the differential property over the corpus ----------------------------

SOURCES = [SMOKE_SOURCE, LOOP_SOURCE, ARRAY_SRC, FLOAT_SRC]


@pytest.mark.parametrize("phase", PHASES)
def test_every_pass_maintains_links_on_fixture_corpus(phase):
    for source in SOURCES:
        module = compile_source(source)
        PassManager().run(module, ["mem2reg", phase, "simplifycfg",
                                   phase])
        assert_cfg_state_consistent(module)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expr=expressions(),
       sequence=st.lists(st.sampled_from(PHASES), min_size=1,
                         max_size=6))
def test_random_pipelines_maintain_links_on_fuzz_corpus(expr, sequence):
    if not expr.valid:
        return
    source = f"""
    int main() {{
      int result = {expr.text};
      print_int(result);
      return result % 251;
    }}
    """
    module = compile_source(source)
    reference = run_module(compile_source(source)).observable()
    PassManager(verify=True).run(module, sequence)
    assert_cfg_state_consistent(module)
    assert run_module(module).observable() == reference


def test_speculative_execution_hoists_through_the_mutation_api():
    """Regression pin (ISSUE 9 / replint R001): the hoist used to splice
    instructions through the raw lists (``target.instructions.remove`` +
    ``block.insert``), leaving block bookkeeping stale.  The API path
    must fire on this shape and keep every maintained structure exact."""
    source = """
    int main() {
      int a = 5;
      int b = 7;
      int r = 0;
      if (a < b) { r = a * 3 + 1; } else { r = b * 2 - 1; }
      print_int(r);
      return r % 251;
    }
    """
    module = compile_source(source)
    reference = run_module(compile_source(source)).observable()
    activity = PassManager(verify=True).run(
        module, ["mem2reg", "speculative-execution"])
    assert activity[1], "hoist path not exercised"
    assert_cfg_state_consistent(module)
    verify_module(module)
    assert run_module(module).observable() == reference


def test_inliner_hoists_allocas_through_the_mutation_api():
    """Regression pin (ISSUE 9 / replint R001): the inliner's alloca
    hoist used to detach clones with ``instructions.remove``.  The API
    path must fire, land every alloca in the caller entry, and keep the
    maintained structures exact."""
    from repro.ir import AllocaInst
    source = """
    int pick(int i) {
      int t[4];
      t[0] = 1; t[1] = 3; t[2] = 5; t[3] = 7;
      return t[i % 4];
    }
    int main() {
      int acc = 0;
      for (int i = 0; i < 8; i++) { acc += pick(i); }
      print_int(acc);
      return acc % 251;
    }
    """
    module = compile_source(source)
    reference = run_module(compile_source(source)).observable()
    activity = PassManager(verify=True).run(module, ["inline"])
    assert activity == [True], "inline path not exercised"
    main = module.get_function("main")
    allocas = [inst for block in main.blocks
               for inst in block.instructions
               if isinstance(inst, AllocaInst)]
    assert allocas, "inlined allocas disappeared"
    assert all(inst.parent is main.entry for inst in allocas)
    assert_cfg_state_consistent(module)
    verify_module(module)
    assert run_module(module).observable() == reference


def test_warm_vs_fresh_bit_identical_through_mutation_api():
    """One analysis manager reused across the whole pipeline (warm)
    must produce the same module as per-pass fresh managers — the
    maintained links are part of the state every analysis now reads."""
    sequence = ["mem2reg", "instcombine", "loop-rotate", "licm",
                "loop-unroll", "simplifycfg", "gvn", "dce",
                "simplifycfg"]
    warm = compile_source(SMOKE_SOURCE)
    manager = PassManager(verify=True)
    manager.run(warm, sequence)
    fresh = compile_source(SMOKE_SOURCE)
    for phase in sequence:
        PassManager(verify=True).run(fresh, [phase])
    assert module_fingerprint(warm) == module_fingerprint(fresh)
    assert_cfg_state_consistent(warm)
    assert_cfg_state_consistent(fresh)
    verify_module(warm)
    verify_module(fresh)
