"""loop-vectorize / slp-vectorizer.

The IR stays scalar and neither backend has vector instructions, so
neither phase packs anything.  ``slp-vectorizer`` only sets the
``slp-enabled`` attribute on functions with straight-line float math.
The attribute is part of the function fingerprint, so the phase counts
as active (for the PSS and the RL state) and changes cache keys, but the
generated machine code is the same with or without it.

``loop-vectorize`` performs an interleaving unroll of small counted loops
(the scalar part of vectorization), which does change the code, and sets
the same attribute.
"""

from repro.passes.analysis import PRESERVE_CFG, PRESERVE_NONE
from repro.passes.base import FunctionPass, register_pass
from repro.passes.loop_unroll import LoopUnroll

SLP_ATTRIBUTE = "slp-enabled"


@register_pass("slp-vectorizer")
class SLPVectorizer(FunctionPass):
    # Attribute-only change: the IR text and CFG are untouched (the
    # attribute IS part of the fingerprint, which is never preserved).
    preserved_analyses = PRESERVE_CFG | frozenset({"loopivs"})

    def run_on_function(self, function, am):
        if SLP_ATTRIBUTE in function.attributes:
            return False
        # Only meaningful when there is straight-line float math to pack.
        float_ops = sum(
            1 for inst in function.instructions()
            if getattr(inst, "opcode", "") in ("fadd", "fsub", "fmul",
                                               "fdiv"))
        if float_ops < 4:
            return False
        function.attributes.add(SLP_ATTRIBUTE)
        return True


@register_pass("loop-vectorize")
class LoopVectorize(FunctionPass):
    """Interleaving unroll + SLP enablement."""

    # Delegates to LoopUnroll, which restructures the CFG.
    preserved_analyses = PRESERVE_NONE

    def run_on_function(self, function, am):
        unroller = LoopUnroll()
        unroller.MAX_TRIP_COUNT = 32
        unroller.MAX_BODY_INSTRUCTIONS = 24
        changed = unroller.run_on_function(function, am)
        if changed and SLP_ATTRIBUTE not in function.attributes:
            function.attributes.add(SLP_ATTRIBUTE)
        return changed
