"""A field copy owns its containers and carries every constructor field.

Cloning copies instance fields without running constructors, so two
mistakes could go unnoticed: a list, dict or set shared between the
original and its copy (a later mutation of one would show in the
other), and a field that a constructor sets but the copy lacks (or the
reverse).  For every instruction class and every constant class, both
the single-instruction primitive (``Instruction.copy``,
``Constant.copy``) and ``clone_module`` must produce objects that share
no container with their original and whose attribute names equal those
of a constructor-built instance.
"""

from repro.ir import (
    AllocaInst,
    ArrayType,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    Constant,
    ConstantFloat,
    ConstantInt,
    F64,
    FCmpInst,
    Function,
    FunctionType,
    GEPInst,
    GlobalVariable,
    I32,
    ICmpInst,
    Instruction,
    LoadInst,
    Module,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UndefValue,
    UnreachableInst,
    verify_module,
)
from repro.passes.cloning import clone_module

CONTAINERS = (list, dict, set)


def _concrete_subclasses(cls):
    found = set()
    for sub in cls.__subclasses__():
        found.add(sub)
        found |= _concrete_subclasses(sub)
    return found


def _sample_module():
    """One module holding every instruction class and constant class,
    each built by its constructor."""
    module = Module("sample")
    table = module.add_global(GlobalVariable(
        "table", ArrayType(I32, 4), [1, 2, 3, 4]))
    callee = module.add_function(Function("twice", FunctionType(I32, [I32])))
    body = callee.append_block("entry")
    body.append(RetInst(body.append(
        BinaryInst("add", callee.args[0], callee.args[0], "t"))))
    main = module.add_function(Function("main", FunctionType(I32, [])))
    entry = main.append_block("entry")
    loop = main.append_block("loop")
    done = main.append_block("done")
    dead = main.append_block("dead")
    slot = entry.append(AllocaInst(I32, "slot"))
    entry.append(StoreInst(ConstantInt(I32, 1), slot))
    start = entry.append(LoadInst(slot, "start"))
    element = entry.append(LoadInst(
        entry.append(GEPInst(table, ConstantInt(I32, 2), "at")), "elem"))
    entry.append(BranchInst(loop))
    phi = loop.append(PhiInst(I32, "acc"))
    total = loop.append(BinaryInst("add", phi, element, "sum"))
    as_float = loop.append(CastInst("sitofp", total, F64, "f"))
    small = loop.append(FCmpInst("olt", as_float, ConstantFloat(F64, 1e3),
                                 "small"))
    picked = loop.append(SelectInst(small, total, UndefValue(I32), "pick"))
    doubled = loop.append(CallInst(callee, [picked], "twice"))
    loop.append(CallInst("print_int", [doubled]))
    more = loop.append(ICmpInst("slt", total, ConstantInt(I32, 100),
                                "more"))
    loop.append(CondBranchInst(more, loop, done))
    phi.add_incoming(start, entry)
    phi.add_incoming(total, loop)
    done.append(RetInst(total))
    dead.append(UnreachableInst())
    verify_module(module)
    return module


def _instructions(module):
    return [inst for function in module.functions.values()
            for block in function.blocks for inst in block.instructions]


def _constants(module):
    found = {}
    for inst in _instructions(module):
        for op in inst.operands:
            if isinstance(op, Constant):
                found.setdefault(id(op), op)
    return list(found.values())


def _assert_owned(original, clone):
    """``clone`` shares no container with ``original`` and has exactly
    its attribute names."""
    assert set(vars(clone)) == set(vars(original)), type(original)
    shared = {id(value) for value in vars(original).values()
              if isinstance(value, CONTAINERS)}
    for name, value in vars(clone).items():
        if isinstance(value, CONTAINERS):
            assert id(value) not in shared, (type(original), name)


def test_sample_covers_every_instruction_and_constant_class():
    module = _sample_module()
    assert {type(inst) for inst in _instructions(module)} == \
        _concrete_subclasses(Instruction)
    assert {type(c) for c in _constants(module)} == \
        _concrete_subclasses(Constant)


def test_primitive_copies_own_their_containers():
    module = _sample_module()
    for inst in _instructions(module):
        _assert_owned(inst, inst.copy({}, {}))
    for constant in _constants(module):
        copy = constant.copy()
        _assert_owned(constant, copy)
        assert copy.uses == [] and copy == constant


def test_clone_module_objects_own_their_containers():
    module = _sample_module()
    clone = clone_module(module)
    verify_module(clone)
    pairs = list(zip(_instructions(module), _instructions(clone)))
    pairs += list(zip(_constants(module), _constants(clone)))
    pairs += list(zip(module.globals.values(), clone.globals.values()))
    for function, copy in zip(module.functions.values(),
                              clone.functions.values()):
        pairs.append((function, copy))
        pairs += list(zip(function.args, copy.args))
        pairs += list(zip(function.blocks, copy.blocks))
    # 19 instructions, 5 constants, 1 global, 2 functions, 1 argument
    # and 5 blocks.
    assert len(pairs) == 33
    for original, copy in pairs:
        assert copy is not original
        _assert_owned(original, copy)
