"""Functions and modules."""

from repro.ir.basicblock import BasicBlock
from repro.ir.values import Argument, Value


class Function(Value):
    def __init__(self, name, ftype, module=None):
        super().__init__(ftype, name)
        self.ftype = ftype
        self.module = module
        self.blocks = []
        self.args = []
        for i, ptype in enumerate(ftype.params):
            self.args.append(Argument(ptype, f"arg{i}", self, i))
        self._name_counter = 0
        # Lazily rebuilt {id(block): index} for the current block
        # order; every structural mutation below invalidates it.
        self._positions = None
        # Attributes discovered by analyses/passes.
        self.is_pure = False          # no memory access, no IO
        self.accesses_memory = True   # may read or write memory
        self.attributes = set()

    # -- structure ---------------------------------------------------------
    @property
    def entry(self):
        return self.blocks[0] if self.blocks else None

    def is_declaration(self):
        return not self.blocks

    def append_block(self, name=""):
        block = BasicBlock(name or self.next_name("bb"), self)
        self.blocks.append(block)
        if self._positions is not None:
            self._positions[id(block)] = len(self.blocks) - 1
        return block

    def block_positions(self):
        """{id(block): index} for the current block order.

        Rebuilt lazily (O(V)) after a structural mutation and shared by
        every positional query until the next one, so query-heavy
        phases (``Loop.ordered_blocks``, ``Block.predecessors``) pay
        O(queried blocks) instead of O(V) per query."""
        positions = self._positions
        if positions is None or len(positions) != len(self.blocks):
            positions = {id(b): i for i, b in enumerate(self.blocks)}
            self._positions = positions
        return positions

    def _invalidate_positions(self):
        self._positions = None

    def remove_block(self, block):
        """Detach ``block`` from the function.

        The single exit point for block removal: drops the block's
        instruction operand references, disconnects its outgoing
        maintained CFG edges, scrubs its entries from former
        successors' phi incoming lists, and unregisters it from the
        block-position index — so reverse edges and phi incoming lists
        can never diverge."""
        if block.parent is not self:
            raise ValueError(f"{block!r} is not attached to @{self.name}")
        term = block.terminator()
        successors = []
        if term is not None:
            for succ in term.successors():
                if succ not in successors:
                    successors.append(succ)
        block.clear_instructions()
        for succ in successors:
            for phi in succ.phis():
                phi.remove_incoming(block)
        self.blocks.remove(block)
        block.parent = None
        self._invalidate_positions()

    def set_blocks(self, new_blocks):
        """Replace the whole body: every old block is detached with its
        operand references and maintained edges dropped, then
        ``new_blocks`` is installed."""
        for block in self.blocks:
            block.clear_instructions()
            block.parent = None
        self.blocks = list(new_blocks)
        for block in self.blocks:
            block.parent = self
        self._invalidate_positions()

    def clear_body(self):
        """Drop every block (function deletion / globaldce)."""
        self.set_blocks([])

    def next_name(self, prefix="v"):
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self):
        return sum(len(b.instructions) for b in self.blocks)

    def rename_locals(self):
        """Give every block and instruction a fresh sequential name."""
        self._name_counter = 0
        for i, block in enumerate(self.blocks):
            block.name = "entry" if i == 0 else f"bb{i}"
        counter = 0
        for inst in self.instructions():
            if not inst.type.is_void():
                inst.name = f"t{counter}"
                counter += 1

    def __repr__(self):
        return f"<Function @{self.name} ({len(self.blocks)} blocks)>"


class Module:
    def __init__(self, name="module"):
        self.name = name
        self.functions = {}
        self.globals = {}

    def add_function(self, function):
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        function.module = self
        self.functions[function.name] = function
        return function

    def add_global(self, global_var):
        if global_var.name in self.globals:
            raise ValueError(f"duplicate global {global_var.name!r}")
        global_var.module = self
        self.globals[global_var.name] = global_var
        return global_var

    def remove_function(self, name):
        fn = self.functions.pop(name)
        fn.module = None
        return fn

    def remove_global(self, name):
        gv = self.globals.pop(name)
        gv.module = None
        return gv

    def get_function(self, name):
        return self.functions[name]

    def defined_functions(self):
        return [f for f in self.functions.values() if not f.is_declaration()]

    def instruction_count(self):
        return sum(f.instruction_count() for f in self.functions.values())

    def __repr__(self):
        return (f"<Module {self.name}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals>")
