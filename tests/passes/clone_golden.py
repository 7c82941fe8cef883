"""Golden digests of IR module states and of their ``clone_module`` clones.

A state digest hashes everything a clone must reproduce and a pass may
observe: the module's globals, every function's name, name counter,
purity flags and attributes, every argument, block and instruction name,
each instruction's class, opcode, predicate, type, operands (by position)
and branch targets, every phi's incoming blocks, every block's maintained
predecessor counts (``_preds``, in insertion order), the use-list of every
value as ``(user position, operand index)`` pairs in list order, and the
attribute-name set of every object.  Constants are numbered by first use,
so which operands share one constant object is covered too.

``clone_golden.json`` holds three digests per state, for the workload
corpus (BEEBS, PARSEC, ``multi`` and ``earlyexit``) at -O0, -O2 and -O3:

* ``state``: the module after the level's passes.  Passes clone regions
  (loop-unroll, loop-unswitch, loop-distribute, inline) and single
  instructions (loop-rotate, loop-sink), so this covers those clones;
* ``trail``: one hash over the state digests after every phase of the
  level (phases run one at a time on one ``AnalysisManager``, exactly as
  one ``PassManager.run`` would).  A region clone's use-list order can
  differ for a few phases and then be erased by later ones, which only
  the intermediate states show;
* ``clone``: ``clone_module`` of that state (the state is digested after
  it is cloned, so a clone that disturbs its source fails ``state``).

A change to the cloning engine must leave every digest unchanged.
Regenerate the file only when a pass or the frontend changes, never in a
change to cloning itself::

    PYTHONPATH=src python tests/passes/clone_golden.py
"""

import hashlib
import json
import os

from repro.baselines import STANDARD_LEVELS
from repro.ir.values import Constant
from repro.passes import AnalysisManager, PassManager
from repro.passes.cloning import clone_module
from repro.workloads import load_suite

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "clone_golden.json")
SUITES = ("beebs", "parsec", "multi", "earlyexit")
LEVELS = ("-O0", "-O2", "-O3")


def _attributes(obj):
    return ",".join(sorted(vars(obj)))


def state_digest(module):
    """sha256 over every observable field of a module's IR state."""
    labels = {}
    for gv in module.globals.values():
        labels[id(gv)] = f"@{gv.name}"
    for f_index, function in enumerate(module.functions.values()):
        labels[id(function)] = f"F{f_index}"
        for a_index, arg in enumerate(function.args):
            labels[id(arg)] = f"F{f_index}.a{a_index}"
        for b_index, block in enumerate(function.blocks):
            labels[id(block)] = f"F{f_index}.b{b_index}"
            for i_index, inst in enumerate(block.instructions):
                labels[id(inst)] = f"F{f_index}.b{b_index}.i{i_index}"
    constants = {}

    def label(value):
        found = labels.get(id(value))
        if found is not None:
            return found
        if isinstance(value, Constant):
            if id(value) not in constants:
                constants[id(value)] = (f"k{len(constants)}", value)
            return constants[id(value)][0]
        return f"?{type(value).__name__}"

    def uses(value):
        return " ".join(f"{labels.get(id(user), '?')}#{index}"
                        for user, index in value.uses)

    lines = [f"M {module.name}"]
    for gv in module.globals.values():
        lines.append(f"G {gv.name} {gv.value_type} {gv.initializer!r} "
                     f"{gv.is_constant_global} [{_attributes(gv)}] "
                     f"uses[{uses(gv)}]")
    for function in module.functions.values():
        lines.append(f"F {function.name} {function.ftype} "
                     f"{function._name_counter} {function.is_pure} "
                     f"{function.accesses_memory} "
                     f"{sorted(function.attributes)} "
                     f"[{_attributes(function)}] uses[{uses(function)}]")
        for arg in function.args:
            lines.append(f"A {arg.name} {arg.type} {arg.index} "
                         f"{arg.function is function} "
                         f"[{_attributes(arg)}] uses[{uses(arg)}]")
        for block in function.blocks:
            preds = " ".join(f"{labels.get(id(pred), '?')}x{count}"
                             for pred, count in block._preds.items())
            lines.append(f"B {block.name} {block.parent is function} "
                         f"preds[{preds}] [{_attributes(block)}]")
            for inst in block.instructions:
                fields = [type(inst).__name__, inst.opcode, repr(inst.name),
                          str(inst.type), str(inst.parent is block)]
                for attr in ("predicate", "allocated_type"):
                    if attr in vars(inst):
                        fields.append(f"{attr}={getattr(inst, attr)}")
                if "callee" in vars(inst):
                    callee = inst.callee
                    if isinstance(callee, str):
                        fields.append(f"callee={callee}")
                    else:
                        own = module.functions.get(callee.name) is callee
                        fields.append(f"callee=@{callee.name}:{own}")
                if "incoming_blocks" in vars(inst):
                    fields.append("in[" + " ".join(
                        labels.get(id(b), "?")
                        for b in inst.incoming_blocks) + "]")
                if inst.is_terminator():
                    fields.append("succ[" + " ".join(
                        labels.get(id(b), "?")
                        for b in inst.successors()) + "]")
                fields.append("ops[" + " ".join(
                    label(op) for op in inst.operands) + "]")
                fields.append(f"[{_attributes(inst)}]")
                fields.append(f"uses[{uses(inst)}]")
                lines.append("I " + " ".join(fields))
    for name, constant in constants.values():
        lines.append(f"K {name} {type(constant).__name__} {constant.type} "
                     f"{getattr(constant, 'value', None)!r} "
                     f"[{_attributes(constant)}] uses[{uses(constant)}]")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def corpus():
    """[(key, workload)] for every program the digests cover."""
    return [(f"{suite}/{workload.name}", workload)
            for suite in SUITES for workload in load_suite(suite)]


def level_states(workload):
    """[(level, module, trail)]: the program's IR after each covered
    level, and one digest over the states after each of its phases."""
    states = []
    for level in LEVELS:
        module = workload.compile()
        am = AnalysisManager()
        trail = hashlib.sha256()
        for phase in STANDARD_LEVELS[level]:
            PassManager().run(module, [phase], am)
            trail.update(state_digest(module).encode())
        states.append((level, module, trail.hexdigest()))
    return states


def program_digests(workload):
    """{level: {"state", "clone", "trail"}} for one program."""
    digests = {}
    for level, module, trail in level_states(workload):
        clone = clone_module(module)
        digests[level] = {"state": state_digest(module),
                          "clone": state_digest(clone), "trail": trail}
    return digests


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def main():
    golden = {key: program_digests(workload)
              for key, workload in corpus()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} programs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
