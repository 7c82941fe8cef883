"""Structural function fingerprinting.

The reference per-function fingerprint renames locals, prints the
function to LLVM-flavoured text, and hashes the text
(``ir/printer.function_text_fingerprint``).  That materializes a
multi-kilobyte string per function per phase, which would be the single
largest fixed cost of fingerprint-driven activity detection in the
compile→profile loop.

This module computes the same *distinctions* by hashing the structure
directly: one pre-pass assigns every instruction a dense index (its
definition order, which is exactly what canonical local renaming
encodes), then a single traversal appends fixed-width integer records —
opcode, predicate, type and operand codes — to a machine-level array
that is hashed in one BLAKE2b call, without ever building the text.
Strings (argument/global/callee names, type spellings) are interned
into a per-function table that is appended to the digest input, keeping
the encoding injective.  Local value names never enter the hash, so
renaming no-ops stay invisible — the property the PSS's inactive-phase
detection relies on (paper §III-D) — and, unlike the text path, the
function is never mutated (no ``rename_locals`` side effect).

Collision contract: two functions get equal structural fingerprints
iff their canonical printed texts are equal (enforced collision-wise
against the text fingerprint by ``tests/ir/test_structhash.py``).  Function attributes and purity
flags are part of the digest, as before.
"""

import hashlib
import struct
from array import array

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

# Stable small codes for opcode/predicate spellings.  New entries may be
# appended; existing codes must never be renumbered (fingerprints are
# content addresses in on-disk caches).
_OPCODES = (
    "add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl",
    "ashr", "lshr", "fadd", "fsub", "fmul", "fdiv",
    "icmp", "fcmp", "alloca", "load", "store", "gep", "phi", "br",
    "condbr", "ret", "unreachable", "call", "select",
    "sext", "zext", "trunc", "sitofp", "fptosi",
    "eq", "ne", "slt", "sle", "sgt", "sge",
    "oeq", "one", "olt", "ole", "ogt", "oge",
)
_CODE = {name: code for code, name in enumerate(_OPCODES)}

# Operand-kind tags (see _emit_function's ref()).
_K_INST, _K_CINT, _K_CFLOAT, _K_UNDEF, _K_ARG, _K_GLOBAL, _K_FUNC, \
    _K_OTHER = range(8)

_PACK_DOUBLE = struct.Struct("<d").pack


def _emit_function(function, out, names):
    """Append ``function``'s structural records to ``out`` (an
    ``array('q')``); interned strings collect into ``names``."""
    from repro.ir.function import Function

    append = out.append
    name_code = {}

    def intern(text):
        code = name_code.get(text)
        if code is None:
            code = len(names)
            name_code[text] = code
            names.append(text)
        return code

    types = {}

    def type_code(t):
        key = id(t)
        hit = types.get(key)
        if hit is None:
            hit = intern(str(t))
            types[key] = hit
        return hit

    append(intern(function.name))
    append(type_code(function.ftype.ret))
    if function.is_declaration():
        append(-1)
        return
    for arg in function.args:
        append(type_code(arg.type))
        append(intern(arg.name))

    # Pre-pass: dense definition indices (== canonical local names).
    inst_index = {}
    block_index = {}
    counter = 0
    for bi, block in enumerate(function.blocks):
        block_index[id(block)] = bi
        for inst in block.instructions:
            inst_index[id(inst)] = counter
            counter += 1

    refs = {}

    def ref(value):
        """One operand reference — the distinctions of the printed
        ``<type> %name`` form, with local names replaced by def indices.
        The leading kind tag determines each record's arity, keeping the
        concatenated stream uniquely parseable.  Instruction refs omit
        the type: every instruction's result type is derivable from its
        own emitted record (binary ops inherit their grounded operand
        types; phi/cast/alloca/load chains ground out at records that do
        carry types), so the type adds no distinction.  The slow path of
        the per-value memo; the emit loop inlines the hit path."""
        vid = inst_index.get(id(value))
        if vid is not None:
            hit = (_K_INST, vid)
        elif type(value) is ConstantInt:
            hit = (_K_CINT, type_code(value.type), value.value)
        elif type(value) is ConstantFloat:
            bits = int.from_bytes(_PACK_DOUBLE(value.value),
                                  "little", signed=True)
            hit = (_K_CFLOAT, type_code(value.type), bits)
        elif type(value) is UndefValue:
            hit = (_K_UNDEF, type_code(value.type), 0)
        elif isinstance(value, Argument):
            hit = (_K_ARG, type_code(value.type), intern(value.name))
        elif isinstance(value, GlobalVariable):
            hit = (_K_GLOBAL, type_code(value.type), intern(value.name))
        elif isinstance(value, Function):
            hit = (_K_FUNC, 0, intern(value.name))
        else:
            hit = (_K_OTHER, type_code(value.type), intern(value.name))
        refs[id(value)] = hit
        return hit

    rget = refs.get
    extend = out.extend

    code = _CODE
    for block in function.blocks:
        append(-2)
        append(block_index[id(block)])
        for inst in block.instructions:
            cls = type(inst)
            if cls is BinaryInst:
                append(code[inst.opcode])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                extend(rget(id(inst._operands[1])) or ref(inst._operands[1]))
            elif cls is ICmpInst:
                append(code["icmp"])
                append(code[inst.predicate])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                extend(rget(id(inst._operands[1])) or ref(inst._operands[1]))
            elif cls is LoadInst:
                append(code["load"])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
            elif cls is StoreInst:
                append(code["store"])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                extend(rget(id(inst._operands[1])) or ref(inst._operands[1]))
            elif cls is GEPInst:
                append(code["gep"])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                extend(rget(id(inst._operands[1])) or ref(inst._operands[1]))
            elif cls is PhiInst:
                append(code["phi"])
                append(type_code(inst.type))
                append(len(inst._operands))
                for value, pred in zip(inst._operands,
                                       inst.incoming_blocks):
                    extend(rget(id(value)) or ref(value))
                    pi = block_index.get(id(pred))
                    append(pi if pi is not None
                           else -3 - intern(pred.name))
            elif cls is BranchInst:
                append(code["br"])
                pi = block_index.get(id(inst.target))
                append(pi if pi is not None
                       else -3 - intern(inst.target.name))
            elif cls is CondBranchInst:
                append(code["condbr"])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                for target in (inst.true_target, inst.false_target):
                    pi = block_index.get(id(target))
                    append(pi if pi is not None
                           else -3 - intern(target.name))
            elif cls is RetInst:
                append(code["ret"])
                if inst._operands:
                    extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                else:
                    append(-1)
            elif cls is CallInst:
                append(code["call"])
                callee = inst.callee
                append(intern(callee if isinstance(callee, str)
                              else callee.name))
                append(len(inst._operands))
                for arg in inst._operands:
                    extend(rget(id(arg)) or ref(arg))
            elif cls is SelectInst:
                append(code["select"])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                extend(rget(id(inst._operands[1])) or ref(inst._operands[1]))
                extend(rget(id(inst._operands[2])) or ref(inst._operands[2]))
            elif cls is CastInst:
                append(code[inst.opcode])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                append(type_code(inst.type))
            elif cls is AllocaInst:
                append(code["alloca"])
                append(type_code(inst.allocated_type))
            elif cls is FCmpInst:
                append(code["fcmp"])
                append(code[inst.predicate])
                extend(rget(id(inst._operands[0])) or ref(inst._operands[0]))
                extend(rget(id(inst._operands[1])) or ref(inst._operands[1]))
            elif cls is UnreachableInst:
                append(code["unreachable"])
            else:
                raise TypeError(f"cannot hash {cls.__name__}")
    if function.attributes:
        append(-4)
        for attr in sorted(function.attributes):
            append(intern(attr))


def structural_fingerprint(function):
    """A stable hex digest of one function's structure.

    Deterministic across processes (the evaluation cache's disk tier and
    process-pool evaluation depend on that), independent of local value
    names, and computed without materializing the printed text.
    """
    out = array("q")
    names = []
    _emit_function(function, out, names)
    hasher = hashlib.blake2b(digest_size=32)
    hasher.update(out.tobytes())
    hasher.update("\x1f".join(names).encode("utf-8"))
    return hasher.hexdigest()
