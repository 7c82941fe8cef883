"""Static IR feature extraction.

63 Milepost-GCC-style code features (paper §III-A and §IV: "The 63 code
features that our static analysis obtains"): instruction mix, CFG shape,
loop structure, call-graph shape, and constant usage.
"""

import numpy as np

from repro.ir import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    ConstantFloat,
    ConstantInt,
    FCmpInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
)
from repro.passes.analysis import AnalysisManager

_OPCODES = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor",
            "shl", "ashr", "lshr", "fadd", "fsub", "fmul", "fdiv")

_MATH_INTRINSICS = frozenset({"sqrt", "exp", "log", "sin", "cos", "pow",
                              "fabs"})

STATIC_FEATURE_NAMES = tuple(
    [f"n_{op}" for op in _OPCODES] +
    ["n_icmp", "n_fcmp", "n_load", "n_store", "n_gep", "n_phi",
     "n_select", "n_call", "n_cast", "n_alloca",
     "n_blocks", "n_instructions", "n_functions", "n_cfg_edges",
     "avg_block_size", "max_block_size", "max_blocks_per_function",
     "n_loops", "max_loop_depth", "avg_loop_depth",
     "n_const_trip_loops", "n_innermost_loops", "n_back_edges",
     "n_cond_branches", "n_uncond_branches", "n_returns",
     "branch_density", "mem_density", "float_fraction", "int_fraction",
     "n_const_operands", "const_operand_fraction", "n_distinct_consts",
     "n_intrinsic_calls", "n_math_calls", "n_print_calls",
     "phi_density", "max_phis_per_block", "n_args_total",
     "n_globals", "global_array_cells", "n_recursive_functions",
     "n_callgraph_edges", "max_call_chain", "n_const_index_geps",
     "dom_tree_height", "max_rpo_length", "n_block_mem_intrinsics"])

assert len(STATIC_FEATURE_NAMES) == 63, len(STATIC_FEATURE_NAMES)


def extract_static_features(module, am=None):
    """Return the 63-dimensional static feature vector of a module.

    The vector is composed from per-function partial aggregates.  Each
    partial is the ``"static_partial"`` analysis of ``am`` (a fresh
    manager when None), which no pass preserves: repeated extraction
    over a module where only some functions changed (the PSS deployment
    loop, RL training steps, extraction points after their pass
    pipeline) only re-analyzes the changed functions, and reads the
    loop, dominator and IV analyses the pipeline left cached.
    """
    if am is None:
        am = AnalysisManager()
    partials = [am.get("static_partial", function)
                for function in module.defined_functions()]
    return _combine_partials(module, partials)


#: Feature names a function contributes to by summation.
_SUMMED = tuple(
    [f"n_{op}" for op in _OPCODES] +
    ["n_icmp", "n_fcmp", "n_load", "n_store", "n_gep", "n_phi",
     "n_select", "n_call", "n_cast", "n_alloca", "n_cond_branches",
     "n_uncond_branches", "n_returns", "n_intrinsic_calls",
     "n_math_calls", "n_print_calls", "n_block_mem_intrinsics",
     "n_const_index_geps", "n_args_total", "n_cfg_edges", "n_loops",
     "n_innermost_loops", "n_const_trip_loops", "n_back_edges"])

#: Feature names combined by maximum over functions.
_MAXED = ("max_blocks_per_function", "max_phis_per_block",
          "max_loop_depth", "avg_loop_depth", "dom_tree_height",
          "max_rpo_length")


def _function_partial(function, am):
    """One function's contribution to the static feature vector (the
    ``"static_partial"`` analysis of
    :class:`~repro.passes.analysis.AnalysisManager`).

    Loop and dominator analyses come from (and seed) ``am``, so a
    changed function is analyzed once for features and the next pass
    reuses the same structures.
    """
    sums = dict.fromkeys(_SUMMED, 0.0)
    maxes = dict.fromkeys(_MAXED, 0.0)
    opcode_counts = {op: 0 for op in _OPCODES}
    block_sizes = []
    distinct_constants = set()
    const_operands = 0
    total_operands = 0
    float_ops = 0
    int_ops = 0
    call_edges = set()
    recursive = False

    maxes["max_blocks_per_function"] = float(len(function.blocks))
    sums["n_args_total"] += len(function.args)
    # Exact-class dispatch over the raw operand storage: this walk runs
    # for every changed function on every deployment-loop step, and the
    # isinstance chain + operand-tuple materialization dominated it.
    for block in function.blocks:
        block_sizes.append(len(block.instructions))
        phis_here = 0
        for inst in block.instructions:
            for op in inst._operands:
                total_operands += 1
                opc = op.__class__
                if opc is ConstantInt:
                    const_operands += 1
                    distinct_constants.add(("i", op.value))
                elif opc is ConstantFloat:
                    const_operands += 1
                    distinct_constants.add(("f", op.value))
            cls = inst.__class__
            if cls is BinaryInst:
                opcode = inst.opcode
                opcode_counts[opcode] += 1
                if opcode[0] == "f":
                    float_ops += 1
                else:
                    int_ops += 1
            elif cls is ICmpInst:
                sums["n_icmp"] += 1
            elif cls is FCmpInst:
                sums["n_fcmp"] += 1
            elif cls is LoadInst:
                sums["n_load"] += 1
            elif cls is StoreInst:
                sums["n_store"] += 1
            elif cls is GEPInst:
                sums["n_gep"] += 1
                if inst._operands[1].__class__ is ConstantInt:
                    sums["n_const_index_geps"] += 1
            elif cls is PhiInst:
                sums["n_phi"] += 1
                phis_here += 1
            elif cls is SelectInst:
                sums["n_select"] += 1
            elif cls is CallInst:
                sums["n_call"] += 1
                if inst.is_intrinsic():
                    sums["n_intrinsic_calls"] += 1
                    if inst.callee in _MATH_INTRINSICS:
                        sums["n_math_calls"] += 1
                    elif inst.callee in ("print_int", "print_float"):
                        sums["n_print_calls"] += 1
                    elif inst.callee in ("memset", "memcpy"):
                        sums["n_block_mem_intrinsics"] += 1
                else:
                    call_edges.add((function.name, inst.callee.name))
                    if inst.callee is function:
                        recursive = True
            elif cls is CastInst:
                sums["n_cast"] += 1
            elif cls is AllocaInst:
                sums["n_alloca"] += 1
            elif cls is CondBranchInst:
                sums["n_cond_branches"] += 1
            elif cls is BranchInst:
                sums["n_uncond_branches"] += 1
            elif cls is RetInst:
                sums["n_returns"] += 1
        if phis_here > maxes["max_phis_per_block"]:
            maxes["max_phis_per_block"] = float(phis_here)
    sums["n_cfg_edges"] += sum(len(b.successors())
                               for b in function.blocks)
    # Loops.
    info = am.loops(function)
    sums["n_loops"] += len(info.loops)
    sums["n_innermost_loops"] += len(info.innermost_loops())
    maxes["max_loop_depth"] = float(info.max_depth())
    depths = [loop.depth for loop in info.loops]
    if depths:
        maxes["avg_loop_depth"] = float(np.mean(depths))
    ivs = am.loopivs(function)
    for loop in info.loops:
        sums["n_back_edges"] += len(loop.latches())
        preheader = loop.preheader()
        if preheader is not None:
            trip, _ = ivs.trip_count(loop, preheader)
            if trip is not None:
                sums["n_const_trip_loops"] += 1
    # Dominator tree height, RPO length (the dominator tree already
    # carries the reverse postorder).
    dom = am.domtree(function)
    maxes["dom_tree_height"] = float(_tree_height(dom))
    maxes["max_rpo_length"] = float(len(dom.rpo))

    for op in _OPCODES:
        sums[f"n_{op}"] = float(opcode_counts[op])
    return {
        "sums": sums,
        "maxes": maxes,
        "block_sizes": block_sizes,
        "distinct_constants": distinct_constants,
        "const_operands": const_operands,
        "total_operands": total_operands,
        "float_ops": float_ops,
        "int_ops": int_ops,
        "call_edges": call_edges,
        "recursive": recursive,
    }


def _combine_partials(module, partials):
    counts = {name: 0.0 for name in STATIC_FEATURE_NAMES}
    counts["n_functions"] = float(len(partials))
    counts["n_globals"] = float(len(module.globals))
    counts["global_array_cells"] = float(sum(
        gv.value_type.size_cells() for gv in module.globals.values()
        if gv.value_type.is_array()))

    block_sizes = []
    distinct_constants = set()
    call_edges = set()
    recursive = 0
    const_operands = 0
    total_operands = 0
    float_ops = 0
    int_ops = 0
    for partial in partials:
        for name, value in partial["sums"].items():
            counts[name] += value
        for name, value in partial["maxes"].items():
            counts[name] = max(counts[name], value)
        block_sizes.extend(partial["block_sizes"])
        distinct_constants |= partial["distinct_constants"]
        call_edges |= partial["call_edges"]
        recursive += int(partial["recursive"])
        const_operands += partial["const_operands"]
        total_operands += partial["total_operands"]
        float_ops += partial["float_ops"]
        int_ops += partial["int_ops"]

    total_instructions = sum(block_sizes)
    counts["n_blocks"] = float(len(block_sizes))
    counts["n_instructions"] = float(total_instructions)
    counts["avg_block_size"] = float(np.mean(block_sizes)) if block_sizes \
        else 0.0
    counts["max_block_size"] = float(max(block_sizes)) if block_sizes \
        else 0.0
    counts["branch_density"] = (counts["n_cond_branches"] /
                                max(total_instructions, 1))
    mem_ops = counts["n_load"] + counts["n_store"]
    counts["mem_density"] = mem_ops / max(total_instructions, 1)
    arith = float_ops + int_ops
    counts["float_fraction"] = float_ops / max(arith, 1)
    counts["int_fraction"] = int_ops / max(arith, 1)
    counts["n_const_operands"] = float(const_operands)
    counts["const_operand_fraction"] = const_operands / \
        max(total_operands, 1)
    counts["n_distinct_consts"] = float(len(distinct_constants))
    counts["n_recursive_functions"] = float(recursive)
    counts["n_callgraph_edges"] = float(len(call_edges))
    counts["max_call_chain"] = float(_longest_chain(call_edges))
    counts["phi_density"] = counts["n_phi"] / max(total_instructions, 1)

    return np.array([counts[name] for name in STATIC_FEATURE_NAMES],
                    dtype=float)


def _tree_height(dom):
    heights = {}

    def height(block):
        if block in heights:
            return heights[block]
        children = dom.children.get(block, [])
        result = 1 + max((height(c) for c in children), default=0)
        heights[block] = result
        return result

    if not dom.rpo:
        return 0
    return height(dom.rpo[0])


def _longest_chain(edges, cap=16):
    """Longest path in the call graph, ignoring cycles beyond ``cap``."""
    adjacency = {}
    for caller, callee in edges:
        adjacency.setdefault(caller, []).append(callee)

    best = 0
    for start in adjacency:
        stack = [(start, 1, frozenset([start]))]
        while stack:
            node, length, seen = stack.pop()
            best = max(best, length)
            if length >= cap:
                continue
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    stack.append((nxt, length + 1, seen | {nxt}))
    return best
