"""Static cost-model features.

Pure static analysis (no execution): estimate each block's execution
frequency from constant loop trip counts (SCEV-style) and call-graph
fan-out, then weight instructions by coarse cost classes.  These features
give the Performance Estimator a cross-program cost scale that raw
instruction-mix counts cannot provide — trip counts, not code size,
dominate dynamic cost.
"""

import numpy as np

from repro.ir import BinaryInst, CallInst, LoadInst, StoreInst
from repro.passes.analysis import AnalysisManager

COST_FEATURE_NAMES = (
    "est_total_work",
    "est_memory_work",
    "est_expensive_work",
    "est_float_work",
    "est_branch_work",
    "est_call_work",
)

_DEFAULT_TRIP = 8.0
_RECURSION_FACTOR = 25.0
_MAX_FREQ = 1e9

_EXPENSIVE_OPS = frozenset({"sdiv", "srem", "fdiv"})
_FLOAT_OPS = frozenset({"fadd", "fsub", "fmul", "fdiv"})
_EXPENSIVE_INTRINSICS = frozenset({"sqrt", "exp", "log", "sin", "cos",
                                   "pow"})


def block_frequencies(function, am):
    """Estimated executions of each block per function invocation.

    Loops and trip counts come from ``am``.
    """
    info = am.loops(function)
    ivs = am.loopivs(function)
    trip_of = {}
    for loop in info.loops:
        preheader = loop.preheader()
        trips = None
        if preheader is not None:
            trips, _ = ivs.trip_count(loop, preheader, max_count=100000)
        trip_of[id(loop)] = float(trips) if trips is not None \
            else _DEFAULT_TRIP
    frequencies = {}
    for block in function.blocks:
        frequency = 1.0
        loop = info.loop_of(block)
        while loop is not None:
            frequency *= trip_of[id(loop)]
            loop = loop.parent
        frequencies[id(block)] = min(frequency, _MAX_FREQ)
    return frequencies


def function_frequencies(module, block_freq):
    """Estimated invocations of each function (rooted at main).

    ``block_freq`` maps each defined function's name to its
    :func:`block_frequencies`.
    """
    # Per-call-site weight: caller frequency x call site's block
    # frequency; recursion multiplies by a fixed factor.
    invocations = {f.name: 0.0 for f in module.defined_functions()}
    if "main" in invocations:
        invocations["main"] = 1.0
    # Three propagation rounds over a topological-ish order approximate
    # the call-graph closure well enough for a feature.
    for _ in range(3):
        updated = {name: (1.0 if name == "main" else 0.0)
                   for name in invocations}
        for function in module.defined_functions():
            caller_freq = invocations[function.name]
            if caller_freq <= 0:
                continue
            freqs = block_freq[function.name]
            for block in function.blocks:
                for inst in block.instructions:
                    if isinstance(inst, CallInst) and \
                            not inst.is_intrinsic():
                        weight = caller_freq * freqs[id(block)]
                        if inst.callee is function:
                            weight *= _RECURSION_FACTOR
                        name = inst.callee.name
                        if name in updated:
                            updated[name] = min(
                                updated[name] + weight, _MAX_FREQ)
        updated["main"] = 1.0
        invocations = updated
    return invocations


def extract_cost_features(module, am=None, in_place=False):
    """The COST_FEATURE_NAMES vector (log1p-compressed magnitudes).

    The analysis runs on a normalized module (mem2reg + instcombine) so
    induction variables — and therefore constant trip counts — are
    visible regardless of which phases the measured module has seen.

    By default it normalizes a clone under a fresh manager (``am`` is
    then unused): the clone shares no value with the measured module,
    which is never mutated, not even its use-lists.  ``in_place=True``
    is only for a caller that owns ``module`` and never reads it again
    (the engine's fresh points): normalization then rewrites ``module``
    itself under ``am``, its own manager, reusing the dominator and
    loop analyses cached there.  Such a caller must read the module's
    static features first.  The features are the same either way.
    """
    from repro.passes import PassManager
    from repro.passes.cloning import clone_module

    if not in_place:
        module, am = clone_module(module), None
    if am is None:
        am = AnalysisManager()
    # mem2reg+instcombine only: enough to expose induction variables
    # without erasing the cost differences between measured variants
    # (stronger normalization, or none, was measurably worse).
    PassManager().run(module, ["mem2reg", "instcombine"], am)
    block_freq = {f.name: block_frequencies(f, am)
                  for f in module.defined_functions()}
    totals = dict.fromkeys(COST_FEATURE_NAMES, 0.0)
    invocations = function_frequencies(module, block_freq)
    for function in module.defined_functions():
        call_freq = invocations.get(function.name, 0.0)
        if call_freq <= 0:
            continue
        frequencies = block_freq[function.name]
        for block in function.blocks:
            weight = min(call_freq * frequencies[id(block)], _MAX_FREQ)
            for inst in block.instructions:
                totals["est_total_work"] += weight
                if isinstance(inst, (LoadInst, StoreInst)):
                    totals["est_memory_work"] += weight
                elif isinstance(inst, BinaryInst):
                    if inst.opcode in _EXPENSIVE_OPS:
                        totals["est_expensive_work"] += weight
                    if inst.opcode in _FLOAT_OPS:
                        totals["est_float_work"] += weight
                elif isinstance(inst, CallInst):
                    totals["est_call_work"] += weight
                    if inst.is_intrinsic() and \
                            inst.callee in _EXPENSIVE_INTRINSICS:
                        totals["est_expensive_work"] += weight * 10.0
                elif inst.is_terminator():
                    totals["est_branch_work"] += weight
    # Compress to log scale: downstream models work in relative terms.
    return np.array([np.log1p(totals[name])
                     for name in COST_FEATURE_NAMES])
