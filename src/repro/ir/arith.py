"""Exact 64-bit arithmetic — the IR's evaluation semantics, defined once.

Every engine that evaluates IR-level values (the reference interpreter,
the seed machine simulator, the tape interpreter, constant
folding in ``passes/utils.py``, and the frontend's constant-expression
evaluator) imports its integer and float semantics from this module,
LLVM-APInt-style.  There is deliberately no second definition anywhere:
a semantics bug fixed here is fixed in every engine at once, and the
differential tests compare engines that can no longer share a wrong
shortcut.

The semantics:

- Integers are fixed-width two's complement; every arithmetic result
  wraps (``add``/``sub``/``mul``/shifts).
- ``sdiv``/``srem`` are C-style: the quotient truncates toward zero and
  the remainder takes the dividend's sign, computed with *exact integer
  ops* (floor division plus a sign correction) — never through a Python
  float, which silently rounds any magnitude above 2**53.
  ``INT64_MIN sdiv -1`` wraps back to ``INT64_MIN`` (and the matching
  ``srem`` is 0), as LLVM's APInt does.
- Division/remainder by zero traps (:class:`SimulationError`).
- ``fdiv`` by zero follows IEEE-ish rules (0/0 and NaN/0 are NaN,
  otherwise a signed infinity); all ``fcmp`` predicates are *ordered*
  and return false when either operand is NaN.
"""

import math
import operator

from repro.errors import SimulationError
from repro.ir.types import I64

MASK64 = (1 << 64) - 1
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_TWO63 = 1 << 63
_TWO64 = 1 << 64


def wrap64(value):
    """Wrap an arbitrary Python int to two's-complement i64."""
    value &= MASK64
    return value - _TWO64 if value >= _TWO63 else value


# -- integer division (the fixed miscompile class) ---------------------------

def sdiv_trunc(a, b):
    """Exact C-style quotient: truncated toward zero, unwrapped.

    Floor division with a sign correction — ``a // b`` floors, so when
    the signs differ and the division is inexact the quotient is one
    below the truncated result.
    """
    if b == 0:
        raise SimulationError("integer division by zero")
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def srem_trunc(a, b):
    """Exact C-style remainder: sign follows the dividend, unwrapped."""
    if b == 0:
        raise SimulationError("integer remainder by zero")
    r = a % b
    if r != 0 and (a < 0) != (b < 0):
        r -= b
    return r


def sdiv64(a, b):
    """i64 sdiv: truncating, wrapping (``INT64_MIN sdiv -1 == INT64_MIN``)."""
    return wrap64(sdiv_trunc(a, b))


def srem64(a, b):
    """i64 srem: dividend-signed remainder (``INT64_MIN srem -1 == 0``)."""
    return wrap64(srem_trunc(a, b))


# -- floats ------------------------------------------------------------------

def fdiv(a, b):
    """f64 division with the IR's divide-by-zero rules."""
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return float("nan")
        return math.copysign(float("inf"), a) * math.copysign(1.0, b)
    return a / b


def fptosi(value, int_type=I64):
    """``fptosi``: truncate toward zero; NaN and infinities go to 0."""
    if math.isnan(value) or math.isinf(value):
        return 0
    return int_type.wrap(int(value))


def round_float_output(value):
    """The ``print_float`` observable: 6 significant digits, so
    value-preserving float reassociations don't flip differential tests."""
    return float(f"{value:.6g}")


# -- comparison predicates ---------------------------------------------------

ICMP_PREDICATES = {
    "eq": operator.eq, "ne": operator.ne,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
}

FCMP_PREDICATES = {
    "oeq": operator.eq, "one": operator.ne,
    "olt": operator.lt, "ole": operator.le,
    "ogt": operator.gt, "oge": operator.ge,
}


def icmp(predicate, a, b):
    return ICMP_PREDICATES[predicate](a, b)


def fcmp(predicate, a, b):
    """Ordered float comparison: false when either operand is NaN."""
    if math.isnan(a) or math.isnan(b):
        return False
    return FCMP_PREDICATES[predicate](a, b)


# -- full binary-op evaluation (interpreter / folding entry point) -----------

def eval_int_binop(opcode, a, b, int_type=I64):
    """Evaluate an integer binary opcode at ``int_type``'s width."""
    if opcode == "add":
        return int_type.wrap(a + b)
    if opcode == "sub":
        return int_type.wrap(a - b)
    if opcode == "mul":
        return int_type.wrap(a * b)
    if opcode == "sdiv":
        return int_type.wrap(sdiv_trunc(a, b))
    if opcode == "srem":
        return int_type.wrap(srem_trunc(a, b))
    if opcode == "and":
        return int_type.wrap(a & b)
    if opcode == "or":
        return int_type.wrap(a | b)
    if opcode == "xor":
        return int_type.wrap(a ^ b)
    if opcode == "shl":
        return int_type.wrap(a << (b & 63))
    if opcode == "ashr":
        return int_type.wrap(a >> (b & 63))
    if opcode == "lshr":
        mask = (1 << int_type.bits) - 1
        return int_type.wrap((a & mask) >> (b & 63))
    raise SimulationError(f"unknown integer binop {opcode}")


def eval_float_binop(opcode, a, b):
    if opcode == "fadd":
        return a + b
    if opcode == "fsub":
        return a - b
    if opcode == "fmul":
        return a * b
    if opcode == "fdiv":
        return fdiv(a, b)
    raise SimulationError(f"unknown float binop {opcode}")


def eval_binop(opcode, a, b, type_):
    """Evaluate any IR binary opcode (integer ops wrap at ``type_``)."""
    if type_.is_float():
        return eval_float_binop(opcode, a, b)
    return eval_int_binop(opcode, a, b, type_)
