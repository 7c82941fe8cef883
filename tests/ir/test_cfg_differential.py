"""Dominators, frontiers and loops built from the maintained links.

``DominatorTree``, ``dominance_frontiers`` and ``LoopInfo`` read each
block's IR-maintained predecessor links directly, in link order.  The
oracle below is the earlier build, kept verbatim: it reads the
position-sorted, per-edge :func:`predecessors_map`, intersects by block
with ``_intersect`` and runs the dominance walk on every CFG edge.  The
immediate-dominator tree is unique and frontiers and loop bodies are
sets, so both builds must agree on every field, in order where the
field is ordered: rpo, idom, children, frontier sets, loop headers,
loop bodies, nesting and ``loop_of``.

The states compared are every per-phase function state of the
-O0/-O2/-O3 pipelines over the bundled corpus, plus hypothesis-drawn
CFGs with unreachable blocks, self-loops and ``condbr`` instructions
whose two arms hit one block.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import STANDARD_LEVELS
from repro.ir import (
    BranchInst,
    CondBranchInst,
    ConstantInt,
    DominatorTree,
    Function,
    FunctionType,
    I1,
    I64,
    LoopInfo,
    Module,
    RetInst,
    reverse_postorder,
)
from repro.ir.cfg import predecessors_map, reachable_blocks
from repro.passes import AnalysisManager, PassManager
from repro.workloads import load_suite
from repro.workloads.registry import suite_names


# -- the oracle: the sorted-predecessors build, verbatim ------------------

def _oracle_idom(function):
    rpo = reverse_postorder(function)
    index = {b: i for i, b in enumerate(rpo)}
    if not rpo:
        return rpo, {}
    entry = rpo[0]
    preds = predecessors_map(function)

    def intersect(idom, a, b):
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    idom = {entry: entry}
    changed = True
    while changed:
        changed = False
        for block in rpo[1:]:
            candidates = [p for p in preds[block]
                          if p in idom and p in index]
            if not candidates:
                continue
            new_idom = candidates[0]
            for pred in candidates[1:]:
                new_idom = intersect(idom, pred, new_idom)
            if idom.get(block) is not new_idom:
                idom[block] = new_idom
                changed = True
    result = {b: (None if b is entry else idom.get(b)) for b in rpo}
    result[entry] = None
    return rpo, result


def _oracle_children(rpo, idom):
    children = {b: [] for b in rpo}
    for block, dom in idom.items():
        if dom is not None and dom is not block:
            children[dom].append(block)
    return children


def _oracle_dominates(idom, a, b):
    while b is not None:
        if a is b:
            return True
        b = idom.get(b)
    return False


def _oracle_frontiers(function, rpo, idom):
    index = set(rpo)
    preds = predecessors_map(function)
    frontiers = {b: set() for b in rpo}
    for block in rpo:
        block_preds = [p for p in preds[block] if p in index]
        if len(block_preds) < 2:
            continue
        for pred in block_preds:
            runner = pred
            while runner is not None and runner is not idom[block]:
                frontiers[runner].add(block)
                runner = idom.get(runner)
    return frontiers


def _oracle_loops(function, rpo, idom):
    """[(header, body set, parent header or None)] in ``LoopInfo.loops``
    order, and {block: innermost header}."""
    index = set(rpo)
    preds = predecessors_map(function)
    headers = {}
    for block in rpo:
        for succ in block.successors():
            if succ in index and _oracle_dominates(idom, succ, block):
                body = headers.setdefault(succ, {"header": succ,
                                                 "blocks": {succ},
                                                 "parent": None})
                worklist = [block]
                while worklist:
                    member = worklist.pop()
                    if member in body["blocks"]:
                        continue
                    body["blocks"].add(member)
                    worklist.extend(preds.get(member, []))
    loops = list(headers.values())
    loops.sort(key=lambda lp: len(lp["blocks"]))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1:]:
            if outer is not inner and inner["header"] in outer["blocks"]:
                inner["parent"] = outer
                break

    def depth(loop):
        return 1 if loop["parent"] is None else 1 + depth(loop["parent"])

    ordered = sorted(loops, key=depth)
    innermost = {}
    for loop in sorted(loops, key=lambda lp: -len(lp["blocks"])):
        for block in loop["blocks"]:
            innermost[block] = loop["header"]
    return [(lp["header"], lp["blocks"],
             None if lp["parent"] is None else lp["parent"]["header"])
            for lp in ordered], innermost


def _ids(blocks):
    return [id(b) for b in blocks]


def assert_cfg_analyses_match(function):
    rpo, idom = _oracle_idom(function)
    dom = DominatorTree(function)
    assert _ids(dom.rpo) == _ids(rpo)
    assert {id(b): id(d) for b, d in dom.idom.items()} == \
        {id(b): id(d) for b, d in idom.items()}
    children = _oracle_children(rpo, idom)
    assert _ids(dom.children) == _ids(children)
    for block in rpo:
        assert _ids(dom.children[block]) == _ids(children[block])
    frontiers = _oracle_frontiers(function, rpo, idom)
    got = dom.dominance_frontiers()
    assert _ids(got) == _ids(frontiers)
    for block in rpo:
        assert set(_ids(got[block])) == set(_ids(frontiers[block]))
    assert reachable_blocks(function) == set(rpo)

    loops, innermost = _oracle_loops(function, rpo, idom)
    info = LoopInfo(function, domtree=dom)
    assert len(info.loops) == len(loops)
    for loop, (header, blocks, parent) in zip(info.loops, loops):
        assert loop.header is header
        assert set(_ids(loop.blocks)) == set(_ids(blocks))
        assert (loop.parent.header if loop.parent else None) is parent
        assert _ids(lp.header for lp in loop.children) == _ids(
            h for h, _, p in sorted(
                loops, key=lambda entry: len(entry[1])) if p is header)
    assert _ids(lp.header for lp in info.top_level) == _ids(
        h for h, _, p in sorted(loops, key=lambda entry: len(entry[1]))
        if p is None)
    for block in function.blocks:
        loop = info.loop_of(block)
        expected = innermost.get(block)
        assert (None if loop is None else loop.header) is expected


# -- every per-phase state of the standard pipelines ----------------------

def test_analyses_match_the_sorted_build_on_every_pipeline_state():
    states = 0
    for suite in suite_names():
        for workload in load_suite(suite):
            for level in ("-O0", "-O2", "-O3"):
                module = workload.compile()
                am = AnalysisManager()
                phases = (None,) + STANDARD_LEVELS[level]
                for phase in phases:
                    if phase is not None:
                        PassManager().run(module, [phase], am)
                    for function in module.defined_functions():
                        assert_cfg_analyses_match(function)
                        states += 1
    assert states > 4000


# -- drawn CFGs -----------------------------------------------------------

@st.composite
def cfgs(draw):
    """A function of 1-10 blocks; each ends in ``ret``, ``br`` or
    ``condbr`` to arbitrary blocks (itself and one target on both arms
    included), so some blocks are unreachable.  Terminators are attached
    in a drawn order, so the maintained links are not in block order."""
    count = draw(st.integers(1, 10))
    targets = st.integers(0, count - 1)
    shapes = draw(st.lists(
        st.one_of(st.just(("ret",)),
                  st.tuples(st.just("br"), targets),
                  st.tuples(st.just("condbr"), targets, targets)),
        min_size=count, max_size=count))
    module = Module("m")
    function = Function("f", FunctionType(I64, []))
    module.add_function(function)
    blocks = [function.append_block(f"b{i}") for i in range(count)]
    for position in draw(st.permutations(range(count))):
        block, shape = blocks[position], shapes[position]
        if shape[0] == "ret":
            block.append(RetInst(ConstantInt(I64, 0)))
        elif shape[0] == "br":
            block.append(BranchInst(blocks[shape[1]]))
        else:
            block.append(CondBranchInst(ConstantInt(I1, 1),
                                        blocks[shape[1]], blocks[shape[2]]))
    return function


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfgs())
def test_analyses_match_the_sorted_build_on_drawn_cfgs(function):
    assert_cfg_analyses_match(function)


def test_condbr_with_both_arms_on_one_block_is_not_a_join():
    """Two edges from one predecessor: no frontier, and the lone
    predecessor is the immediate dominator."""
    module = Module("m")
    function = Function("f", FunctionType(I64, []))
    module.add_function(function)
    entry = function.append_block("entry")
    both = function.append_block("both")
    entry.append(CondBranchInst(ConstantInt(I1, 1), both, both))
    both.append(RetInst(ConstantInt(I64, 0)))
    dom = DominatorTree(function)
    assert dom.idom[both] is entry
    assert dom.dominance_frontiers() == {entry: set(), both: set()}
    assert_cfg_analyses_match(function)


def test_entry_looping_to_itself_through_both_arms_is_its_own_frontier():
    """The entry's two in-edges from one condbr make it a join, as in
    the per-edge build: the entry joins its own frontier."""
    module = Module("m")
    function = Function("f", FunctionType(I64, []))
    module.add_function(function)
    entry = function.append_block("entry")
    entry.append(CondBranchInst(ConstantInt(I1, 1), entry, entry))
    assert DominatorTree(function).dominance_frontiers() == {entry: {entry}}
    assert_cfg_analyses_match(function)
