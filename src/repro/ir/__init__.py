"""Typed, SSA-capable intermediate representation.

Public surface: the type constructors, value/instruction classes,
:class:`IRBuilder`, CFG analyses, the verifier, the textual printer, and
the reference interpreter.
"""

from repro.ir import arith
from repro.ir.types import (
    ArrayType,
    F64,
    FloatType,
    FunctionType,
    I1,
    I8,
    I32,
    I64,
    IntType,
    PointerType,
    Type,
    VOID,
    VoidType,
)
from repro.ir.values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
    Value,
)
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
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function, Module
from repro.ir.builder import IRBuilder
from repro.ir.cfg import (
    DominatorTree,
    Loop,
    LoopInfo,
    reverse_postorder,
    split_edge,
)
from repro.ir.verifier import (
    check_lcssa,
    verify_function,
    verify_module,
)
from repro.ir.printer import (
    function_to_text,
    module_fingerprint,
    module_to_text,
)
from repro.ir.interpreter import ExecutionResult, Interpreter, run_module

__all__ = [
    "arith",
    "Type", "VoidType", "IntType", "FloatType", "PointerType", "ArrayType",
    "FunctionType", "VOID", "I1", "I8", "I32", "I64", "F64",
    "Value", "Constant", "ConstantInt", "ConstantFloat", "UndefValue",
    "Argument", "GlobalVariable",
    "Instruction", "BinaryInst", "ICmpInst", "FCmpInst", "AllocaInst",
    "LoadInst", "StoreInst", "GEPInst", "PhiInst", "BranchInst",
    "CondBranchInst", "RetInst", "UnreachableInst", "CallInst",
    "SelectInst", "CastInst",
    "BasicBlock", "Function", "Module", "IRBuilder",
    "DominatorTree", "LoopInfo", "Loop", "reverse_postorder",
    "split_edge",
    "check_lcssa", "verify_function",
    "verify_module",
    "function_to_text", "module_to_text", "module_fingerprint",
    "Interpreter", "ExecutionResult", "run_module",
]
