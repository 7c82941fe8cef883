"""Type system for the IR.

A deliberately small, LLVM-flavoured type lattice: integers of a fixed
bit-width, one float type, void, pointers, fixed-size arrays, and function
types.  Types are immutable and compared structurally.
"""


class Type:
    """Base class of all IR types."""

    def is_int(self):
        return isinstance(self, IntType)

    def is_float(self):
        return isinstance(self, FloatType)

    def is_void(self):
        return isinstance(self, VoidType)

    def is_pointer(self):
        return isinstance(self, PointerType)

    def is_array(self):
        return isinstance(self, ArrayType)

    def is_scalar(self):
        return self.is_int() or self.is_float()

    def size_cells(self):
        """Size of a value of this type in memory cells.

        The simulator's memory is cell-addressed: every scalar occupies one
        cell.  Arrays occupy ``count * element`` cells.
        """
        raise TypeError(f"type {self} has no in-memory size")

    def __ne__(self, other):
        return not self.__eq__(other)


class VoidType(Type):
    def __eq__(self, other):
        return isinstance(other, VoidType)

    def __hash__(self):
        return hash("void")

    def __repr__(self):
        return "void"


class IntType(Type):
    """A fixed-width two's-complement integer type."""

    def __init__(self, bits):
        if bits not in (1, 8, 32, 64):
            raise ValueError(f"unsupported integer width: {bits}")
        self.bits = bits

    def size_cells(self):
        return 1

    def min_value(self):
        return -(1 << (self.bits - 1)) if self.bits > 1 else 0

    def max_value(self):
        return (1 << (self.bits - 1)) - 1 if self.bits > 1 else 1

    def wrap(self, value):
        """Wrap a Python int to this width (two's complement)."""
        mask = (1 << self.bits) - 1
        value &= mask
        if self.bits > 1 and value >= (1 << (self.bits - 1)):
            value -= 1 << self.bits
        return value

    def __eq__(self, other):
        return isinstance(other, IntType) and other.bits == self.bits

    def __hash__(self):
        return hash(("int", self.bits))

    def __repr__(self):
        return f"i{self.bits}"


class FloatType(Type):
    """IEEE-754 double precision (the only float type in the IR)."""

    def size_cells(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, FloatType)

    def __hash__(self):
        return hash("f64")

    def __repr__(self):
        return "f64"


class PointerType(Type):
    def __init__(self, pointee):
        self.pointee = pointee

    def size_cells(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self):
        return hash(("ptr", self.pointee))

    def __repr__(self):
        return f"{self.pointee}*"


class ArrayType(Type):
    def __init__(self, element, count):
        if count < 0:
            raise ValueError("array count must be non-negative")
        self.element = element
        self.count = count

    def size_cells(self):
        return self.element.size_cells() * self.count

    def __eq__(self, other):
        return (
            isinstance(other, ArrayType)
            and other.element == self.element
            and other.count == self.count
        )

    def __hash__(self):
        return hash(("array", self.element, self.count))

    def __repr__(self):
        return f"[{self.count} x {self.element}]"


class FunctionType(Type):
    def __init__(self, ret, params):
        self.ret = ret
        self.params = tuple(params)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionType)
            and other.ret == self.ret
            and other.params == self.params
        )

    def __hash__(self):
        return hash(("fn", self.ret, self.params))

    def __repr__(self):
        params = ", ".join(str(p) for p in self.params)
        return f"{self.ret} ({params})"


VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I32 = IntType(32)
I64 = IntType(64)
F64 = FloatType()
