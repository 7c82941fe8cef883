"""Core value hierarchy of the IR.

Every SSA value derives from :class:`Value`.  Def-use chains are maintained
eagerly: instructions register themselves as users of their operands, which
makes ``replace_all_uses_with`` and dead-code queries cheap — the facility
almost every optimization pass in :mod:`repro.passes` is built on.
"""

from repro.ir.types import FloatType, IntType, PointerType


class Value:
    """Base class for everything that can be an operand."""

    #: Class-specific instance fields a field copy (``Constant.copy``,
    #: ``Instruction.copy``) carries over unchanged.
    _fields = ()

    def __init__(self, type_, name=""):
        self.type = type_
        self.name = name
        # List of (user_instruction, operand_index) pairs.  A user may
        # appear several times if it references this value more than once.
        self.uses = []

    # -- use management -------------------------------------------------
    def add_use(self, user, index):
        self.uses.append((user, index))

    def remove_use(self, user, index):
        self.uses.remove((user, index))

    @property
    def users(self):
        """Distinct instructions using this value, in first-use order
        (users are instructions, which hash by identity)."""
        return list(dict.fromkeys(user for user, _ in self.uses))

    def is_used(self):
        return bool(self.uses)

    def replace_all_uses_with(self, new_value):
        """Rewrite every use of ``self`` to use ``new_value`` instead."""
        if new_value is self:
            return
        for user, index in list(self.uses):
            user.set_operand(index, new_value)

    # -- convenience predicates ------------------------------------------
    def is_constant(self):
        return isinstance(self, Constant)

    def short_name(self):
        return f"%{self.name}" if self.name else "%<anon>"

    def __repr__(self):
        return f"<{type(self).__name__} {self.short_name()}: {self.type}>"


class Constant(Value):
    """Base class of constants.  Constants have no defining instruction."""

    def copy(self):
        """A field copy with an empty use-list (a module clone owns its
        constants, so the original's use-list never sees the clone)."""
        clone = object.__new__(type(self))
        clone.type = self.type
        clone.name = self.name
        clone.uses = []
        for field in self._fields:
            setattr(clone, field, getattr(self, field))
        return clone


class ConstantInt(Constant):
    _fields = ("value",)

    def __init__(self, type_, value):
        if not isinstance(type_, IntType):
            raise TypeError("ConstantInt requires an integer type")
        super().__init__(type_)
        self.value = type_.wrap(int(value))

    def short_name(self):
        return str(self.value)

    def __eq__(self, other):
        return (
            isinstance(other, ConstantInt)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("cint", self.type, self.value))


class ConstantFloat(Constant):
    _fields = ("value",)

    def __init__(self, type_, value):
        if not isinstance(type_, FloatType):
            raise TypeError("ConstantFloat requires a float type")
        super().__init__(type_)
        self.value = float(value)

    def short_name(self):
        return repr(self.value)

    def __eq__(self, other):
        return (
            isinstance(other, ConstantFloat)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self):
        return hash(("cfloat", self.value))


class UndefValue(Constant):
    """The undefined value of a given type (result of uninitialized reads)."""

    def short_name(self):
        return "undef"

    def __eq__(self, other):
        return isinstance(other, UndefValue) and other.type == self.type

    def __hash__(self):
        return hash(("undef", self.type))


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_, name, function=None, index=0):
        super().__init__(type_, name)
        self.function = function
        self.index = index


class GlobalVariable(Value):
    """A module-level variable.

    ``initializer`` is a Python scalar for scalar globals or a list of
    scalars for array globals.  The value itself has pointer type, as in
    LLVM: loads/stores go through it.
    """

    def __init__(self, name, value_type, initializer=None, constant=False):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant_global = constant
        self.module = None

    def short_name(self):
        return f"@{self.name}"
