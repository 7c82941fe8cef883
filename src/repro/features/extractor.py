"""Combined feature extraction: static IR features + platform-specific
instruction-count features from generated code (paper §III-A: "Our tool
also extracts platform-specific instruction counts from generated code
for PE training").
"""

import numpy as np

from repro.features.static_features import (
    STATIC_FEATURE_NAMES,
    extract_static_features,
)

# Static machine-opcode classes counted per target.  No backend emits
# ``vop``, so ``m_vop`` is always 0; the column stays so that the PE's
# feature layout, and with it every fit, is unchanged.
MACHINE_OPCODES = (
    "li", "lfi", "mv", "lea", "add", "sub", "mul", "div", "rem",
    "and", "or", "xor", "shl", "sar", "shr",
    "fadd", "fsub", "fmul", "fdiv",
    "fsqrt", "fexp", "flog", "fsin", "fcos", "fabs", "fpow",
    "cvtsi2sd", "cvtsd2si", "setcc", "fsetcc", "bcc", "fbcc",
    "cmov", "ld", "st", "jmp", "call", "ret", "print",
    "memset", "memcpy", "vop", "frame_alloc",
)

PLATFORM_FEATURE_NAMES = tuple(
    [f"m_{op}" for op in MACHINE_OPCODES] +
    ["code_size_bytes", "frame_cells_total", "machine_instructions"])

from repro.features.costmodel import (  # noqa: E402 (feature group)
    COST_FEATURE_NAMES,
    extract_cost_features,
)

FEATURE_NAMES = (STATIC_FEATURE_NAMES + PLATFORM_FEATURE_NAMES
                 + COST_FEATURE_NAMES)


def extract_platform_features(program):
    """Static machine-code features of a compiled MachineProgram."""
    histogram = program.instruction_histogram()
    values = [float(histogram.get(op, 0)) for op in MACHINE_OPCODES]
    frame_cells = sum(f.frame_slots for f in program.functions.values())
    instructions = sum(f.instruction_count()
                      for f in program.functions.values())
    values.extend([float(program.code_size), float(frame_cells),
                   float(instructions)])
    return np.array(values, dtype=float)


def extract_features(module, program, am=None, in_place=False):
    """Full PE input vector: 63 static features, platform features of
    ``program`` — the module's compiled
    :class:`~repro.backend.mir.MachineProgram` for the target platform
    (the PE is trained per platform) — and static cost-model estimates.
    Never compiles: a caller holding a platform lowers the module itself
    (``platform.compile(module)``) and can reuse that one program for
    simulation.  :func:`extract_static_features` is the static-only
    entry.

    ``am`` makes the static third function-granular: each function's
    partial is read from (and cached on) the analysis manager (see
    :func:`repro.features.static_features.extract_static_features`).

    ``module`` is left as it is unless ``in_place=True``, which only a
    caller that owns the module and never reads it again may pass (the
    engine's fresh points): the cost model then normalizes ``module``
    itself under ``am`` instead of a clone (see
    :func:`~repro.features.costmodel.extract_cost_features`).  The
    static features are read before that rewrite.
    """
    static = extract_static_features(module, am=am)
    return np.concatenate([static, extract_platform_features(program),
                           extract_cost_features(module, am=am,
                                                 in_place=in_place)])
