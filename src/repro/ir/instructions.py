"""Instruction set of the IR.

The opcode vocabulary mirrors LLVM's scalar subset: integer and float
arithmetic, comparisons, memory (alloca/load/store/gep), control flow
(br/condbr/ret/unreachable), phi, select, call, and casts.  There are no
vector forms: the IR, like the machine code, stays scalar.
"""

from repro.ir.types import I1, PointerType, VOID
from repro.ir.values import Value

# Integer binary opcodes.
INT_BINOPS = (
    "add", "sub", "mul", "sdiv", "srem",
    "and", "or", "xor", "shl", "ashr", "lshr",
)
# Float binary opcodes.
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv")
BINOPS = INT_BINOPS + FLOAT_BINOPS

COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})

ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")

# Predicate of the swapped-operand compare (``a < b`` is ``b > a``).
ICMP_SWAP = {"eq": "eq", "ne": "ne", "slt": "sgt", "sgt": "slt",
             "sle": "sge", "sge": "sle"}

CAST_OPS = ("sext", "zext", "trunc", "sitofp", "fptosi")

# Math intrinsics understood by the interpreter and both backends.
INTRINSICS = frozenset({
    "sqrt", "exp", "log", "sin", "cos", "pow", "fabs",
    "imin", "imax", "iabs",
    "print_int", "print_float",
    "memset", "memcpy",
})


class Instruction(Value):
    """An SSA instruction.  Operands are tracked with def-use bookkeeping."""

    opcode = "<abstract>"
    #: Class-level terminator flag (set by the four terminator classes);
    #: ``is_terminator`` is on several hot paths where an isinstance
    #: chain is measurable.
    _terminator = False

    def __init__(self, type_, operands, name=""):
        super().__init__(type_, name)
        self.parent = None  # BasicBlock
        self._operands = []
        for op in operands:
            self._append_operand(op)

    # -- operand plumbing -------------------------------------------------
    def _append_operand(self, value):
        index = len(self._operands)
        self._operands.append(value)
        value.add_use(self, index)

    @property
    def operands(self):
        return tuple(self._operands)

    def set_operand(self, index, new_value):
        old = self._operands[index]
        if old is new_value:
            return
        old.remove_use(self, index)
        self._operands[index] = new_value
        new_value.add_use(self, index)

    def drop_all_references(self):
        """Detach from operands (used when erasing the instruction)."""
        for index, op in enumerate(self._operands):
            op.remove_use(self, index)
        self._operands = []

    def erase_from_parent(self):
        """Remove this instruction from its block and drop its operands."""
        self.drop_all_references()
        if self.parent is not None:
            self.parent.remove_instruction(self)

    # -- cloning -----------------------------------------------------------
    def copy(self, value_map, block_map, pending=None):
        """A detached field copy: no constructor runs, fields are copied
        in constructor order, ``name`` is kept, and ``uses``/``parent``
        start empty.  Operands are remapped through ``value_map`` (keyed
        by ``id``), the copy joining each operand's use-list in operand
        order; branch targets are remapped through ``block_map``.  An
        operand missing from ``value_map`` but defined in a block of
        ``block_map`` is a forward reference: the slot keeps the
        original, no use is registered, and the copy goes on ``pending``
        for :meth:`bind_forward_references`."""
        clone = object.__new__(type(self))
        clone.type = self.type
        clone.name = self.name
        clone.uses = []
        clone.parent = None
        clone._operands = operands = []
        forward = False
        for index, op in enumerate(self._operands):
            mapped = value_map.get(id(op))
            if mapped is None:
                if block_map and isinstance(op, Instruction) and \
                        id(op.parent) in block_map:
                    operands.append(op)
                    forward = True
                    continue
                mapped = op
            operands.append(mapped)
            mapped.uses.append((clone, index))
        for field in self._fields:
            setattr(clone, field, getattr(self, field))
        if forward:
            pending.append(clone)
        return clone

    def bind_forward_references(self, value_map):
        """Second half of :meth:`copy`: point every slot that still
        holds an original at its copy, registering those uses in
        operand order."""
        operands = self._operands
        for index, op in enumerate(operands):
            mapped = value_map.get(id(op))
            if mapped is not None:
                operands[index] = mapped
                mapped.uses.append((self, index))

    # -- classification ----------------------------------------------------
    def is_terminator(self):
        return self._terminator

    def has_side_effects(self):
        """True if this instruction cannot be deleted even when unused."""
        if isinstance(self, (StoreInst, RetInst, BranchInst, CondBranchInst,
                             UnreachableInst)):
            return True
        if isinstance(self, CallInst):
            return not self.is_pure_call()
        # Division traps on divide-by-zero; treat as side-effecting unless
        # the divisor is a non-zero constant.
        if isinstance(self, BinaryInst) and self.opcode in ("sdiv", "srem"):
            divisor = self.operands[1]
            from repro.ir.values import ConstantInt
            return not (isinstance(divisor, ConstantInt) and divisor.value != 0)
        return False

    def function(self):
        return None if self.parent is None else self.parent.parent

    def __repr__(self):
        from repro.ir.printer import instruction_to_text
        try:
            return instruction_to_text(self)
        except Exception:  # printing must never mask a structural bug
            return f"<{self.opcode}>"


class BinaryInst(Instruction):
    _fields = ("opcode",)

    def __init__(self, opcode, lhs, rhs, name=""):
        if opcode not in BINOPS:
            raise ValueError(f"unknown binary opcode {opcode!r}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"binary operand type mismatch: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode

    @property
    def lhs(self):
        return self.operands[0]

    @property
    def rhs(self):
        return self.operands[1]

    def is_commutative(self):
        return self.opcode in COMMUTATIVE_OPS


class ICmpInst(Instruction):
    opcode = "icmp"
    _fields = ("predicate",)

    def __init__(self, predicate, lhs, rhs, name=""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError("icmp operand type mismatch")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate


class FCmpInst(Instruction):
    opcode = "fcmp"
    _fields = ("predicate",)

    def __init__(self, predicate, lhs, rhs, name=""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {predicate!r}")
        super().__init__(I1, [lhs, rhs], name)
        self.predicate = predicate


class AllocaInst(Instruction):
    opcode = "alloca"
    _fields = ("allocated_type",)

    def __init__(self, allocated_type, name=""):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type


class LoadInst(Instruction):
    opcode = "load"

    def __init__(self, pointer, name=""):
        if not pointer.type.is_pointer():
            raise TypeError("load requires a pointer operand")
        super().__init__(pointer.type.pointee, [pointer], name)

    @property
    def pointer(self):
        return self.operands[0]


class StoreInst(Instruction):
    opcode = "store"

    def __init__(self, value, pointer):
        if not pointer.type.is_pointer():
            raise TypeError("store requires a pointer operand")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {pointer.type}")
        super().__init__(VOID, [value, pointer])

    @property
    def value(self):
        return self.operands[0]

    @property
    def pointer(self):
        return self.operands[1]


class GEPInst(Instruction):
    """Pointer arithmetic: ``&base[index]``.

    ``base`` is a pointer to an array or to a scalar element type; the
    result points at the indexed element.  Only the single-index form is
    supported — the frontend flattens multi-dimensional accesses.
    """

    opcode = "gep"

    def __init__(self, base, index, name=""):
        if not base.type.is_pointer():
            raise TypeError("gep requires a pointer base")
        pointee = base.type.pointee
        element = pointee.element if pointee.is_array() else pointee
        super().__init__(PointerType(element), [base, index], name)

    @property
    def base(self):
        return self.operands[0]

    @property
    def index(self):
        return self.operands[1]


class PhiInst(Instruction):
    """SSA phi node.  Incoming blocks are parallel to the operand list."""

    opcode = "phi"

    def __init__(self, type_, name=""):
        super().__init__(type_, [], name)
        self.incoming_blocks = []

    def copy(self, value_map, block_map, pending=None):
        """A field copy with no incoming entries: a cloning driver adds
        them once every block and value has its copy."""
        clone = object.__new__(type(self))
        clone.type = self.type
        clone.name = self.name
        clone.uses = []
        clone.parent = None
        clone._operands = []
        clone.incoming_blocks = []
        return clone

    def add_incoming(self, value, block):
        self._append_operand(value)
        self.incoming_blocks.append(block)

    def incoming(self):
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_value_for(self, block):
        for value, blk in self.incoming():
            if blk is block:
                return value
        raise KeyError(f"no incoming value for block {block.name}")

    def remove_incoming(self, block):
        """Drop every incoming entry for ``block``."""
        while block in self.incoming_blocks:
            index = self.incoming_blocks.index(block)
            # Rebuild operand list without this entry.
            values = [v for i, v in enumerate(self._operands) if i != index]
            blocks = [b for i, b in enumerate(self.incoming_blocks)
                      if i != index]
            self.drop_all_references()
            self.incoming_blocks = []
            for value, blk in zip(values, blocks):
                self.add_incoming(value, blk)

    def replace_incoming_block(self, old, new):
        self.incoming_blocks = [new if b is old else b
                                for b in self.incoming_blocks]


def _retarget(inst, old, new):
    """Swap one terminator successor slot, maintaining the targets'
    predecessor links when the terminator sits in a block."""
    block = inst.parent
    if block is not None and old is not new:
        old._remove_pred(block)
        new._add_pred(block)


class BranchInst(Instruction):
    _terminator = True
    opcode = "br"

    def __init__(self, target):
        super().__init__(VOID, [])
        self._target = target

    @property
    def target(self):
        return self._target

    @target.setter
    def target(self, new):
        _retarget(self, self._target, new)
        self._target = new

    def copy(self, value_map, block_map, pending=None):
        clone = super().copy(value_map, block_map, pending)
        target = self._target
        clone._target = block_map.get(id(target), target)
        return clone

    def successors(self):
        return [self._target]

    def replace_successor(self, old, new):
        if self._target is old:
            self.target = new


class CondBranchInst(Instruction):
    _terminator = True
    opcode = "condbr"

    def __init__(self, condition, true_target, false_target):
        if condition.type != I1:
            raise TypeError("condbr condition must be i1")
        super().__init__(VOID, [condition])
        self._true_target = true_target
        self._false_target = false_target

    @property
    def condition(self):
        return self.operands[0]

    @property
    def true_target(self):
        return self._true_target

    @true_target.setter
    def true_target(self, new):
        _retarget(self, self._true_target, new)
        self._true_target = new

    @property
    def false_target(self):
        return self._false_target

    @false_target.setter
    def false_target(self, new):
        _retarget(self, self._false_target, new)
        self._false_target = new

    def copy(self, value_map, block_map, pending=None):
        clone = super().copy(value_map, block_map, pending)
        true_target = self._true_target
        false_target = self._false_target
        clone._true_target = block_map.get(id(true_target), true_target)
        clone._false_target = block_map.get(id(false_target), false_target)
        return clone

    def successors(self):
        return [self._true_target, self._false_target]

    def replace_successor(self, old, new):
        if self._true_target is old:
            self.true_target = new
        if self._false_target is old:
            self.false_target = new


class RetInst(Instruction):
    _terminator = True
    opcode = "ret"

    def __init__(self, value=None):
        super().__init__(VOID, [] if value is None else [value])

    @property
    def value(self):
        return self.operands[0] if self.operands else None

    def successors(self):
        return []


class UnreachableInst(Instruction):
    _terminator = True
    opcode = "unreachable"

    def __init__(self):
        super().__init__(VOID, [])

    def successors(self):
        return []


class CallInst(Instruction):
    """A direct call to a function or to a named intrinsic."""

    opcode = "call"

    def __init__(self, callee, args, name=""):
        # ``callee`` is a Function or an intrinsic name string.
        if isinstance(callee, str):
            if callee not in INTRINSICS:
                raise ValueError(f"unknown intrinsic {callee!r}")
            from repro.ir.intrinsics import intrinsic_return_type
            ret = intrinsic_return_type(callee, args)
        else:
            ret = callee.ftype.ret
        super().__init__(ret, list(args), name)
        self.callee = callee

    def copy(self, value_map, block_map, pending=None):
        """A field copy whose callee is remapped through ``value_map``
        too (a module clone calls its own functions; intrinsic names
        and functions outside the map stay)."""
        clone = super().copy(value_map, block_map, pending)
        callee = self.callee
        clone.callee = value_map.get(id(callee), callee)
        return clone

    @property
    def args(self):
        return self.operands

    def is_intrinsic(self):
        return isinstance(self.callee, str)

    def callee_name(self):
        return self.callee if self.is_intrinsic() else self.callee.name

    def is_pure_call(self):
        """True when the call may be removed if its result is unused."""
        if self.is_intrinsic():
            return self.callee not in ("print_int", "print_float",
                                       "memset", "memcpy")
        return getattr(self.callee, "is_pure", False)

    def callee_may_access_memory(self):
        if self.is_intrinsic():
            return self.callee in ("memset", "memcpy")
        return getattr(self.callee, "accesses_memory", True)


class SelectInst(Instruction):
    opcode = "select"

    def __init__(self, condition, true_value, false_value, name=""):
        if condition.type != I1:
            raise TypeError("select condition must be i1")
        if true_value.type != false_value.type:
            raise TypeError("select arm type mismatch")
        super().__init__(true_value.type, [condition, true_value,
                                           false_value], name)

    @property
    def condition(self):
        return self.operands[0]

    @property
    def true_value(self):
        return self.operands[1]

    @property
    def false_value(self):
        return self.operands[2]


class CastInst(Instruction):
    _fields = ("opcode",)

    def __init__(self, opcode, value, target_type, name=""):
        if opcode not in CAST_OPS:
            raise ValueError(f"unknown cast opcode {opcode!r}")
        super().__init__(target_type, [value], name)
        self.opcode = opcode

    @property
    def value(self):
        return self.operands[0]
