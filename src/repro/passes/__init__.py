"""Optimization phases (paper Table VI) and the PassManager.

Importing this package registers every phase in ``PASS_REGISTRY``.
"""

from repro.passes.analysis import (
    ALL_ANALYSES,
    AnalysisManager,
    PRESERVE_CFG,
    PRESERVE_NONE,
)
from repro.passes.audit import AnalysisPreservationError
from repro.passes.base import (
    PASS_REGISTRY,
    Pass,
    FunctionPass,
    PassManager,
    available_phases,
    create_pass,
    register_pass,
)

# Import pass modules for their registration side effects.
from repro.passes import mem2reg as _mem2reg            # noqa: F401
from repro.passes import simplifycfg as _simplifycfg    # noqa: F401
from repro.passes import instcombine as _instcombine    # noqa: F401
from repro.passes import dce as _dce                    # noqa: F401
from repro.passes import cse as _cse                    # noqa: F401
from repro.passes import sccp as _sccp                  # noqa: F401
from repro.passes import licm as _licm                  # noqa: F401
from repro.passes import loop_rotate as _loop_rotate    # noqa: F401
from repro.passes import loop_unroll as _loop_unroll    # noqa: F401
from repro.passes import loop_misc as _loop_misc        # noqa: F401
from repro.passes import vectorize as _vectorize        # noqa: F401
from repro.passes import interprocedural as _ipo        # noqa: F401
from repro.passes import scalar_misc as _scalar_misc    # noqa: F401

# The phase vocabulary of the paper's Table VI that this compiler
# implements.  (All names are registered; a few are documented no-ops in
# this substrate — see DESIGN.md.)
TABLE_VI_PHASES = tuple(sorted(PASS_REGISTRY))

__all__ = [
    "ALL_ANALYSES",
    "AnalysisManager",
    "AnalysisPreservationError",
    "PASS_REGISTRY",
    "PRESERVE_CFG",
    "PRESERVE_NONE",
    "Pass",
    "FunctionPass",
    "PassManager",
    "available_phases",
    "create_pass",
    "register_pass",
    "TABLE_VI_PHASES",
]
