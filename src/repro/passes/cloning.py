"""Region/function/module cloning with value remapping.

Used by loop-unroll (body copies), loop-unswitch (loop versioning),
inline (callee body into caller), the workload registry
(template-clone compilation) and the static cost model (a normalized
copy of each measured module).

Every consumer shares one two-phase engine, :func:`clone_blocks_into`:
block list order is not def-before-use in general (cloned loop bodies
are appended at the end but referenced earlier, and unreachable regions
have no safe order at all), so phase one builds clones in list order —
forward references temporarily keep the origin operand — and phase two
rebuilds phi incoming lists and rewrites every operand through the
completed value map.  Callers customize via the ``on_clone`` hook
(post-processing each clone, e.g. to remap callees or preserve names)
instead of carrying their own copies of the loop.
"""

import copy

from repro.ir import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)


def clone_instruction(inst, value_map, block_map, function):
    """Clone one instruction, remapping operands (and, for phis and
    terminators, blocks).  Phi incoming values are remapped by the caller
    after all blocks exist (two-phase cloning)."""

    def remap(value):
        return value_map.get(id(value), value)

    def remap_block(block):
        return block_map.get(id(block), block)

    if isinstance(inst, BinaryInst):
        clone = BinaryInst(inst.opcode, remap(inst.lhs), remap(inst.rhs))
    elif isinstance(inst, ICmpInst):
        clone = ICmpInst(inst.predicate, remap(inst.operands[0]),
                         remap(inst.operands[1]))
    elif isinstance(inst, FCmpInst):
        clone = FCmpInst(inst.predicate, remap(inst.operands[0]),
                         remap(inst.operands[1]))
    elif isinstance(inst, CastInst):
        clone = CastInst(inst.opcode, remap(inst.value), inst.type)
    elif isinstance(inst, AllocaInst):
        clone = AllocaInst(inst.allocated_type)
    elif isinstance(inst, LoadInst):
        clone = LoadInst(remap(inst.pointer))
    elif isinstance(inst, StoreInst):
        clone = StoreInst(remap(inst.value), remap(inst.pointer))
    elif isinstance(inst, GEPInst):
        clone = GEPInst(remap(inst.base), remap(inst.index))
    elif isinstance(inst, SelectInst):
        clone = SelectInst(remap(inst.condition), remap(inst.true_value),
                           remap(inst.false_value))
    elif isinstance(inst, CallInst):
        clone = CallInst(inst.callee, [remap(a) for a in inst.args])
    elif isinstance(inst, PhiInst):
        clone = PhiInst(inst.type)
        # Incoming entries are filled by phase two once blocks exist.
    elif isinstance(inst, BranchInst):
        clone = BranchInst(remap_block(inst.target))
    elif isinstance(inst, CondBranchInst):
        clone = CondBranchInst(remap(inst.condition),
                               remap_block(inst.true_target),
                               remap_block(inst.false_target))
    elif isinstance(inst, RetInst):
        clone = RetInst(None if inst.value is None else remap(inst.value))
    elif isinstance(inst, UnreachableInst):
        clone = UnreachableInst()
    else:
        raise TypeError(f"cannot clone {inst!r}")
    if not clone.type.is_void():
        clone.name = function.next_name("c")
    return clone


def fix_forward_references(blocks, value_map):
    """Rewrite operands that still reference origin values (forward
    references cloned before their defs existed) through the completed
    value map."""
    for block in blocks:
        for inst in block.instructions:
            for index, op in enumerate(inst.operands):
                mapped = value_map.get(id(op))
                if mapped is not None and mapped is not op:
                    inst.set_operand(index, mapped)


def clone_blocks_into(blocks, function, value_map, block_map,
                      make_block, on_clone=None):
    """Two-phase clone of ``blocks`` into ``function``.

    ``make_block(block)`` creates (and registers) the clone of one
    block; ``on_clone(inst, clone)`` runs on each fresh clone before it
    is appended (e.g. remapping callees or preserving names).  Branches to blocks outside the
    region keep their original targets; phi entries from predecessors
    outside the region are preserved as-is.  Returns the new blocks.
    """
    new_blocks = []
    for block in blocks:
        clone_block = make_block(block)
        block_map[id(block)] = clone_block
        new_blocks.append(clone_block)
    for block in blocks:
        target = block_map[id(block)]
        for inst in block.instructions:
            clone = clone_instruction(inst, value_map, block_map,
                                      function)
            if on_clone is not None:
                on_clone(inst, clone)
            target.append(clone)
            value_map[id(inst)] = clone
    for block in blocks:
        target = block_map[id(block)]
        for inst, clone in zip(block.instructions, target.instructions):
            if isinstance(inst, PhiInst):
                for value, pred in inst.incoming():
                    clone.add_incoming(value_map.get(id(value), value),
                                       block_map.get(id(pred), pred))
    fix_forward_references(new_blocks, value_map)
    return new_blocks


def clone_region(blocks, function, suffix="clone"):
    """Clone a list of blocks into ``function``.

    Returns (value_map, block_map) where maps key by id() of originals.
    """
    value_map = {}
    block_map = {}
    clone_blocks_into(
        blocks, function, value_map, block_map,
        make_block=lambda b: function.append_block(f"{b.name}.{suffix}"))
    return value_map, block_map


def clone_module(module):
    """A faithful deep copy of a module.

    Unlike region cloning, names are preserved exactly (block names,
    local value names, per-function name counters), so the clone prints
    identically to — and fingerprints equal to — the original.  Used by
    the workload registry to hand out fresh modules from a compiled
    template without re-running the frontend, and by the cost model to
    normalize a copy of the module under measurement.

    The clone shares no value with the original: every constant operand
    maps 1:1 to a fresh copy with an empty use-list.  Sharing the
    original's constants would register each clone's instructions in
    their use-lists, so a template (or a measured module) would keep
    alive every module ever cloned from it.
    """
    from repro.ir.function import Function, Module
    from repro.ir.values import Constant, GlobalVariable

    clone = Module(module.name)
    value_map = {}
    for function in module.functions.values():
        for block in function.blocks:
            for inst in block.instructions:
                for op in inst.operands:
                    if isinstance(op, Constant) and \
                            id(op) not in value_map:
                        fresh = copy.copy(op)
                        fresh.uses = []
                        value_map[id(op)] = fresh
    for gv in module.globals.values():
        initializer = gv.initializer
        if isinstance(initializer, list):
            initializer = list(initializer)
        new_gv = GlobalVariable(gv.name, gv.value_type, initializer,
                                gv.is_constant_global)
        clone.add_global(new_gv)
        value_map[id(gv)] = new_gv
    # Function shells first: call operands remap across functions.
    for function in module.functions.values():
        shell = Function(function.name, function.ftype)
        shell.is_pure = function.is_pure
        shell.accesses_memory = function.accesses_memory
        shell.attributes = set(function.attributes)
        for old_arg, new_arg in zip(function.args, shell.args):
            new_arg.name = old_arg.name
        clone.add_function(shell)
        value_map[id(function)] = shell
        for old_arg, new_arg in zip(function.args, shell.args):
            value_map[id(old_arg)] = new_arg
    for function in module.functions.values():
        shell = clone.functions[function.name]
        if function.is_declaration():
            continue

        def on_clone(inst, new_inst):
            new_inst.name = inst.name
            if isinstance(new_inst, CallInst) and \
                    not new_inst.is_intrinsic():
                new_inst.callee = value_map.get(id(new_inst.callee),
                                                new_inst.callee)

        clone_blocks_into(function.blocks, shell, value_map, {},
                          make_block=lambda b: shell.append_block(b.name),
                          on_clone=on_clone)
        # clone_instruction burns name-counter values before on_clone
        # restores the original names; reset so later passes name new
        # values exactly as they would on a freshly compiled module.
        shell._name_counter = function._name_counter
    return clone
