"""Module, region and instruction cloning on one field-copy engine.

Every clone is made by :meth:`Instruction.copy`, which copies instance
fields without running a constructor.  :func:`clone_module` serves the
workload registry (template clones) and the static cost model (a
normalized copy of each measured module); :func:`clone_region` serves
loop-unroll, loop-unswitch, loop-distribute and inline; loop-sink and
loop-rotate copy single instructions (:func:`clone_instruction`).

Blocks are cloned in two phases (:func:`clone_blocks_into`).  Block
order is not def-before-use in general (cloned loop bodies are appended
at the end but referenced earlier; unreachable regions have no safe
order), so phase one copies in list order and an operand whose copy
does not exist yet — a forward reference — keeps its origin value and
registers no use.  Phase two fills the phis (copied empty), then binds
the forward references of the copies that hold one, and touches nothing
else.  Use-lists thus grow in a fixed order: phase-one uses, phi
incoming values, forward references.  Passes walk use-lists, so their
decisions, and every later name, depend on that order; the golden
digests in ``tests/passes/clone_golden.py`` pin it.
"""

from repro.ir.function import Function, Module
from repro.ir.values import Constant, GlobalVariable


def clone_instruction(inst, value_map, function, prefix="c"):
    """A detached copy of one instruction with operands remapped through
    ``value_map``, named ``function.next_name(prefix)``."""
    clone = inst.copy(value_map, {})
    clone.name = function.next_name(prefix)
    return clone


def clone_blocks_into(blocks, value_map, block_map, make_block,
                      function=None):
    """Two-phase clone of ``blocks``.

    ``make_block(block)`` creates (and registers) the clone of one
    block.  When ``function`` is given, every copy is renamed from its
    name counter (region clones); otherwise copies keep their names.
    Branches to blocks outside the region keep their original targets;
    phi entries from predecessors outside the region are preserved
    as-is.
    """
    new_blocks = []
    for block in blocks:
        clone_block = make_block(block)
        block_map[id(block)] = clone_block
        new_blocks.append(clone_block)
    pending = []
    for block, clone_block in zip(blocks, new_blocks):
        for inst in block.instructions:
            clone = inst.copy(value_map, block_map, pending)
            if function is not None:
                clone.name = "" if clone.type.is_void() else \
                    function.next_name("c")
            clone_block.append(clone)
            value_map[id(inst)] = clone
    for block in blocks:
        for phi in block.phis():  # phis lead their block (verifier)
            clone = value_map[id(phi)]
            for value, pred in phi.incoming():
                clone.add_incoming(value_map.get(id(value), value),
                                   block_map.get(id(pred), pred))
    for clone in pending:
        clone.bind_forward_references(value_map)


def clone_region(blocks, function, suffix="clone"):
    """Clone a list of blocks into ``function``.

    Returns (value_map, block_map) where maps key by id() of originals.
    """
    value_map = {}
    block_map = {}
    clone_blocks_into(
        blocks, value_map, block_map,
        make_block=lambda b: function.append_block(f"{b.name}.{suffix}"),
        function=function)
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
    clone = Module(module.name)
    value_map = {}
    for function in module.functions.values():
        for block in function.blocks:
            for inst in block.instructions:
                for op in inst.operands:
                    if isinstance(op, Constant) and \
                            id(op) not in value_map:
                        value_map[id(op)] = op.copy()
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
            value_map[id(old_arg)] = new_arg
        clone.add_function(shell)
        value_map[id(function)] = shell
    for function in module.functions.values():
        if function.is_declaration():
            continue
        shell = clone.functions[function.name]
        clone_blocks_into(function.blocks, value_map, {},
                          make_block=lambda b: shell.append_block(b.name))
        # After the blocks: an unnamed block takes a counter name.
        shell._name_counter = function._name_counter
    return clone
