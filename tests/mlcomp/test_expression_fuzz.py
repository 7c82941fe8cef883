"""Generator-based differential testing of the full stack.

Random integer expression programs are evaluated three ways — by Python
(ground truth on the same wrapped-64-bit semantics), by the IR
interpreter, and by the machine simulator after an -O2 pipeline — and
must agree bit-for-bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import compile_module, get_isa
from repro.baselines import STANDARD_LEVELS
from repro.ir import arith, run_module
from repro.ir.types import I64
from repro.lang import compile_source
from repro.passes import PassManager
from repro.sim import PipelineModel, Simulator, TapeSimulator

_BINOPS = ["+", "-", "*", "/", "%", "&", "|", "^"]

#: Exact-arithmetic boundary values: the int64 extremes (where a float
#: detour visibly corrupts quotients) and the 2**53 double-precision
#: cliff on either side.
_BOUNDARY = [
    arith.INT64_MAX, -arith.INT64_MAX, arith.INT64_MIN,
    1 << 62, -(1 << 62), (1 << 53) + 1, (1 << 53) - 1, -((1 << 53) + 1),
]


def _render_int(value):
    # INT64_MIN has no literal spelling (the unnegated magnitude
    # overflows); everything else parenthesizes negatives.
    if value == arith.INT64_MIN:
        return "(-9223372036854775807 - 1)"
    return f"({value})" if value < 0 else str(value)


class _Expr:
    """A random expression tree rendered both to mini-C and to a Python
    evaluation with identical wrap/trap semantics."""

    def __init__(self, text, value, valid):
        self.text = text
        self.value = value
        self.valid = valid  # False when a division by zero occurred


def _wrap(v):
    return I64.wrap(int(v))


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.one_of(st.integers(-1000, 1000),
                               st.sampled_from(_BOUNDARY)))
        return _Expr(_render_int(value), value, True)
    op = draw(st.sampled_from(_BINOPS))
    lhs = draw(expressions(depth=depth + 1))
    rhs = draw(expressions(depth=depth + 1))
    if not (lhs.valid and rhs.valid):
        return _Expr("0", 0, False)
    a, b = lhs.value, rhs.value
    if op == "+":
        value = _wrap(a + b)
    elif op == "-":
        value = _wrap(a - b)
    elif op == "*":
        value = _wrap(a * b)
    elif op == "/":
        if b == 0:
            return _Expr("0", 0, False)
        value = arith.sdiv64(a, b)
    elif op == "%":
        if b == 0:
            return _Expr("0", 0, False)
        value = arith.srem64(a, b)
    elif op == "&":
        value = _wrap(a & b)
    elif op == "|":
        value = _wrap(a | b)
    else:
        value = _wrap(a ^ b)
    return _Expr(f"({lhs.text} {op} {rhs.text})", value, True)


@st.composite
def early_exit_loop_sources(draw):
    """Random multi-exit loop programs: a counted loop with optional
    IV-based and accumulator-based ``break``s (the loop family the
    canonicalized loop passes must handle — see
    ``tests/passes/test_multi_exit_loops.py``).  Rendered to mini-C only; the
    un-optimized interpreter run is the reference."""
    bound = draw(st.integers(1, 40))
    step = draw(st.integers(1, 3))
    start = draw(st.integers(0, 3))
    scale = draw(st.integers(1, 9))
    offset = draw(st.integers(-5, 5))
    breaks = []
    if draw(st.booleans()):
        at = draw(st.integers(0, 45))
        breaks.append(f"if (i == {at}) break;")
    if draw(st.booleans()):
        threshold = draw(st.integers(0, 400))
        breaks.append(f"if (total > {threshold}) break;")
    if draw(st.booleans()):
        divisor = draw(st.integers(2, 7))
        breaks.append(f"if (i > 4 && i % {divisor} == 0) break;")
    head = breaks[: len(breaks) // 2 + len(breaks) % 2]
    tail = breaks[len(head):]
    body = "\n        ".join(
        head + [f"total += i * {scale} + {offset};"] + tail)
    return f"""
    int main() {{
      int total = 0;
      for (int i = {start}; i < {bound}; i += {step}) {{
        {body}
      }}
      print_int(total);
      return ((total % 251) + 251) % 251;
    }}
    """


@settings(max_examples=40, deadline=None)
@given(source=early_exit_loop_sources())
def test_early_exit_loop_three_way_agreement(source):
    """Early-exit fuzz programs agree between the interpreter, the -O2
    pipeline (multi-exit loop passes included), and the simulator."""
    reference = run_module(compile_source(source))
    module = compile_source(source)
    PassManager(verify=True).run(module, STANDARD_LEVELS["-O2"])
    optimized = run_module(module)
    assert optimized.observable() == reference.observable()

    isa = get_isa("riscv")
    program = compile_module(module, isa)
    simulated = Simulator(program, isa).run()
    assert simulated.output == reference.output
    assert simulated.return_value == reference.return_value


@settings(max_examples=60, deadline=None)
@given(expr=expressions())
def test_expression_three_way_agreement(expr):
    if not expr.valid:
        return
    source = f"""
    int main() {{
      int result = {expr.text};
      print_int(result);
      return result % 251;
    }}
    """
    expected = expr.value
    interpreted = run_module(compile_source(source))
    assert interpreted.output == (("i", expected),)

    module = compile_source(source)
    PassManager().run(module, STANDARD_LEVELS["-O2"])
    optimized = run_module(module)
    assert optimized.output == (("i", expected),)

    isa = get_isa("riscv")
    program = compile_module(module, isa)
    simulated = Simulator(program, isa).run()
    assert simulated.output == (("i", expected),)


@settings(max_examples=25, deadline=None)
@given(expr=expressions())
def test_engine_cached_vs_fresh_agree_with_interpreter(expr):
    """Differential fuzz through the evaluation engine: a random DSL
    program evaluated via the engine (fresh, then cached) must report
    exactly the interpreter's observable results, and the cached entry
    must be indistinguishable from the fresh evaluation."""
    if not expr.valid:
        return
    from repro.engine import EvaluationEngine
    from repro.sim import Platform
    from repro.workloads.registry import Workload

    source = f"""
    int main() {{
      int result = {expr.text};
      print_int(result);
      return result % 251;
    }}
    """
    expected = expr.value
    interpreted = run_module(compile_source(source))
    assert interpreted.output == (("i", expected),)

    workload = Workload("fuzz_expr", "adhoc", source)
    engine = EvaluationEngine(Platform("riscv"))
    fresh = engine.evaluate(workload, STANDARD_LEVELS["-O2"])
    cached = engine.evaluate(workload, STANDARD_LEVELS["-O2"])
    assert not fresh.cached and cached.cached
    assert fresh.output == (("i", expected),)
    assert cached.output == fresh.output
    assert cached.return_value == fresh.return_value \
        == interpreted.return_value
    assert cached.metrics() == fresh.metrics()
    assert cached.result_fingerprint == fresh.result_fingerprint


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.integers(-10**6, 10**6), min_size=2,
                       max_size=8),
       shift=st.integers(0, 63))
def test_shift_semantics_match(values, shift):
    total_src = " ^ ".join(f"({v} << {shift})" for v in values)
    source = f"int main() {{ return ({total_src}) % 97; }}"
    expected = 0
    for v in values:
        expected ^= _wrap(v << shift)
    expected = arith.srem64(expected, 97)
    result = run_module(compile_source(source))
    assert result.return_value == expected


@settings(max_examples=30, deadline=None)
@given(a=st.one_of(st.integers(-(2**63 - 1), 2**63 - 1),
                   st.sampled_from(_BOUNDARY)),
       b=st.one_of(st.integers(-(2**63 - 1), 2**63 - 1),
                   st.sampled_from(_BOUNDARY)))
def test_division_truncation_matches_c(a, b):
    """Exact C-style truncated division at full 64-bit range — the
    values above 2**53 are precisely the ones a float detour corrupts."""
    if b == 0:
        return
    source = f"int main() {{ print_int({_render_int(a)} / {_render_int(b)}); " \
             f"print_int({_render_int(a)} % {_render_int(b)}); return 0; }}"
    result = run_module(compile_source(source))
    quotient = arith.sdiv64(a, b)
    remainder = arith.srem64(a, b)
    assert result.output == (("i", quotient), ("i", remainder))


@settings(max_examples=25, deadline=None)
@given(expr=expressions(), data=st.data())
def test_three_engines_bit_identical(expr, data):
    """Interpreter, seed simulator, and tape simulator agree bit-for-bit
    on observables — and the two simulators on instruction counts,
    histograms, and cycle counts — across random pass pipelines."""
    if not expr.valid:
        return
    source = f"""
    int main() {{
      int result = {expr.text};
      print_int(result);
      return result % 251;
    }}
    """
    interpreted = run_module(compile_source(source))
    assert interpreted.output == (("i", expr.value),)

    module = compile_source(source)
    sequence = data.draw(st.lists(
        st.sampled_from(list(STANDARD_LEVELS["-O2"])), max_size=8))
    PassManager().run(module, sequence)
    isa = get_isa(data.draw(st.sampled_from(["x86", "riscv"])))
    program = compile_module(module, isa)

    seed_timing, tape_timing = PipelineModel(isa), PipelineModel(isa)
    seed_run = Simulator(program, isa, seed_timing).run()
    tape_run = TapeSimulator(program, isa, tape_timing).run()
    assert seed_run.output == tape_run.output == interpreted.output
    assert seed_run.return_value == tape_run.return_value
    assert seed_run.instructions_executed \
        == tape_run.instructions_executed
    assert seed_run.dynamic_histogram == tape_run.dynamic_histogram
    assert seed_timing.cycles() == tape_timing.cycles()
    assert seed_timing.mispredicts == tape_timing.mispredicts
