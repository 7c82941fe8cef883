"""Textual IR printer (LLVM-flavoured).

The text form is used in error messages, golden tests, and as the input to
program hashing (the PSS uses the hash to detect inactive phases).
"""

from repro.ir.instructions import (
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
from repro.ir.values import (
    Argument,
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
)
from repro.ir.function import Function


def value_ref(value):
    """Render a value as an operand reference."""
    if isinstance(value, ConstantInt):
        return f"{value.type} {value.value}"
    if isinstance(value, ConstantFloat):
        return f"{value.type} {value.value!r}"
    if isinstance(value, UndefValue):
        return f"{value.type} undef"
    if isinstance(value, GlobalVariable):
        return f"{value.type} @{value.name}"
    if isinstance(value, Function):
        return f"@{value.name}"
    if isinstance(value, Argument):
        return f"{value.type} %{value.name}"
    return f"{value.type} %{value.name}"


def _short(value):
    text = value_ref(value)
    return text


def instruction_to_text(inst):
    name = f"%{inst.name} = " if not inst.type.is_void() else ""
    if isinstance(inst, BinaryInst):
        return (f"{name}{inst.opcode} {_short(inst.lhs)}, "
                f"{_short(inst.rhs)}")
    if isinstance(inst, ICmpInst):
        return (f"{name}icmp {inst.predicate} {_short(inst.operands[0])}, "
                f"{_short(inst.operands[1])}")
    if isinstance(inst, FCmpInst):
        return (f"{name}fcmp {inst.predicate} {_short(inst.operands[0])}, "
                f"{_short(inst.operands[1])}")
    if isinstance(inst, AllocaInst):
        return f"{name}alloca {inst.allocated_type}"
    if isinstance(inst, LoadInst):
        return f"{name}load {_short(inst.pointer)}"
    if isinstance(inst, StoreInst):
        return f"store {_short(inst.value)}, {_short(inst.pointer)}"
    if isinstance(inst, GEPInst):
        return f"{name}gep {_short(inst.base)}, {_short(inst.index)}"
    if isinstance(inst, PhiInst):
        pairs = ", ".join(f"[ {_short(v)}, %{b.name} ]"
                          for v, b in inst.incoming())
        return f"{name}phi {inst.type} {pairs}"
    if isinstance(inst, BranchInst):
        return f"br label %{inst.target.name}"
    if isinstance(inst, CondBranchInst):
        return (f"condbr {_short(inst.condition)}, "
                f"label %{inst.true_target.name}, "
                f"label %{inst.false_target.name}")
    if isinstance(inst, RetInst):
        return f"ret {_short(inst.value)}" if inst.value else "ret void"
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    if isinstance(inst, CallInst):
        args = ", ".join(_short(a) for a in inst.args)
        return f"{name}call @{inst.callee_name()}({args})"
    if isinstance(inst, SelectInst):
        return (f"{name}select {_short(inst.condition)}, "
                f"{_short(inst.true_value)}, {_short(inst.false_value)}")
    if isinstance(inst, CastInst):
        return f"{name}{inst.opcode} {_short(inst.value)} to {inst.type}"
    raise TypeError(f"cannot print instruction of type {type(inst)}")


def function_to_text(function):
    if function.is_declaration():
        return f"declare {function.ftype.ret} @{function.name}\n"
    args = ", ".join(f"{a.type} %{a.name}" for a in function.args)
    lines = [f"define {function.ftype.ret} @{function.name}({args}) {{"]
    for block in function.blocks:
        lines.append(f"{block.name}:")
        for inst in block.instructions:
            lines.append(f"  {instruction_to_text(inst)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def module_to_text(module):
    parts = []
    header = _globals_text(module)
    if header:
        parts.append(header)
        parts.append("")
    for function in module.functions.values():
        parts.append(function_to_text(function))
    return "\n".join(parts)


def _globals_text(module):
    parts = []
    for gv in module.globals.values():
        kind = "constant" if gv.is_constant_global else "global"
        parts.append(f"@{gv.name} = {kind} {gv.value_type} "
                     f"{gv.initializer!r}")
    return "\n".join(parts)


def function_fingerprint(function):
    """A stable hash of one function's structure.

    Local value names do not enter the digest, so transformation no-ops
    that merely rename values do not register as changes (the PSS relies
    on this to detect inactive phases, paper §III-D).  Function
    attributes (e.g. the SLP-enable marker) are part of the digest, so a
    phase that only sets one counts as active, even where, as for
    ``slp-enabled``, the attribute leaves the generated code unchanged.

    Computed structurally (:mod:`repro.ir.structhash`) — no text is
    materialized and the function is not mutated.  The print-then-hash
    form :func:`function_text_fingerprint` is the reference it is
    checked against collision-wise (tests/ir/test_structhash.py).
    """
    from repro.ir.structhash import structural_fingerprint
    return structural_fingerprint(function)


def function_text_fingerprint(function):
    """Reference fingerprint: canonical-rename, print, hash the text.

    The structural hash is property-tested against it
    (tests/ir/test_structhash.py) and the fingerprint-speed guard times
    against it.  Note the side effect: locals are renamed to their
    canonical names.
    """
    import hashlib

    if not function.is_declaration():
        function.rename_locals()
    text = function_to_text(function)
    if function.attributes:
        text += "attrs " + ",".join(sorted(function.attributes)) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def module_fingerprint(module, am=None):
    """A stable hash of the module's structure, composed from
    per-function fingerprints plus the globals header.

    The per-function digests are the ``"fingerprint"`` analysis of
    ``am`` (a fresh :class:`repro.passes.analysis.AnalysisManager` when
    None): re-fingerprinting a module after a phase only pays for the
    functions the phase actually changed, and the composed digest itself
    is memoized until the next invalidation, so activity probing after
    an inactive phase is a dict hit.
    """
    import hashlib

    if am is None:
        from repro.passes.analysis import AnalysisManager
        am = AnalysisManager()
    cached = am.cached_module_fingerprint(module)
    if cached is not None:
        return cached
    parts = [_globals_text(module)]
    for function in module.functions.values():
        parts.append(am.fingerprint(function))
    digest = hashlib.sha256(
        "\x1f".join(parts).encode("utf-8")).hexdigest()
    am.store_module_fingerprint(module, digest)
    return digest
