"""A template clone owns every value it references.

``Workload.compile`` hands out clones of one parsed template per
program.  A clone that shared the template's constant objects would
register its instructions in their use-lists, so the template would
keep every module ever handed out alive for the life of the process.
"""

import gc
import weakref

from repro.ir.printer import module_fingerprint
from repro.ir.values import Constant
from repro.workloads import load_workload


def _template(workload):
    return workload.template()


def _constants(module):
    found = {}
    for function in module.defined_functions():
        for block in function.blocks:
            for inst in block.instructions:
                for op in inst.operands:
                    if isinstance(op, Constant):
                        found[id(op)] = op
    return list(found.values())


def _constant_uses(module):
    return sum(len(constant.uses) for constant in _constants(module))


def test_deleted_clone_is_collected():
    workload = load_workload("beebs", "fibcall")
    module = workload.compile()
    ref = weakref.ref(module)
    del module
    gc.collect()
    assert ref() is None


def test_template_constant_uses_do_not_grow_with_clones():
    workload = load_workload("beebs", "fibcall")
    workload.compile()
    template = _template(workload)
    before = _constant_uses(template)
    assert before > 0
    clones = [workload.compile() for _ in range(10)]
    assert _constant_uses(template) == before
    assert len(clones) == 10


def test_clone_owns_its_constants_and_fingerprints_equal():
    workload = load_workload("beebs", "fibcall")
    clone = workload.compile()
    template = _template(workload)
    template_ids = {id(constant) for constant in _constants(template)}
    clone_constants = _constants(clone)
    assert clone_constants
    assert not template_ids & {id(constant)
                               for constant in clone_constants}
    # 1:1: a constant the template shares between operands is shared
    # the same way in the clone, and every use is the clone's own.
    assert len(clone_constants) == len(template_ids)
    for constant in clone_constants:
        assert all(user.function().module is clone
                   for user, _ in constant.uses)
    assert module_fingerprint(clone) == module_fingerprint(template)
