"""Differential tests for the pre-decoded tape interpreter.

The tape engine is only allowed to be *fast*: against the seed
:class:`~repro.sim.machine.Simulator` it must be bit-identical in
observables, instruction counts, histogram contents *and insertion
order*, cycle counts, cache state, and branch-predictor state — for
every workload, both ISAs, timed and untimed, before and after
optimization pipelines, and for every op code of its dispatch loop.
Failing runs must fail with the seed's error text.
"""

import pytest

import repro.sim.platform
from repro.backend import compile_module, get_isa
from repro.backend.isa import TARGETS, X86, RiscV
from repro.backend.mir import GlobalRef
from repro.baselines import STANDARD_LEVELS
from repro.engine import EvalFailure, EvaluationEngine
from repro.errors import SimulationError
from repro.ir.instructions import CallInst, GEPInst
from repro.ir.types import I64
from repro.ir.values import ConstantInt
from repro.lang import compile_source
from repro.passes import PassManager
from repro.profiling.permutations import (
    extraction_sequences,
    standard_sequences,
)
from repro.sim import (
    DEFAULT_FUEL,
    PipelineModel,
    Platform,
    Simulator,
    TapeSimulator,
)
from repro.sim.tape import DISPATCH
from repro.workloads.registry import Workload, load_suite


def _assert_equivalent(program, isa, timed, timings=None):
    """``timings``: a ``(seed, tape)`` pair of pipeline models to run
    on, which earlier runs may have advanced; fresh ones by default."""
    if timings is None:
        timings = (PipelineModel(isa), PipelineModel(isa)) if timed \
            else (None, None)
    seed_timing, tape_timing = timings
    seed = Simulator(program, isa, seed_timing).run()
    tape = TapeSimulator(program, isa, tape_timing).run()
    assert tape.return_value == seed.return_value
    assert tape.output == seed.output
    assert tape.instructions_executed == seed.instructions_executed
    assert tape.dynamic_histogram == seed.dynamic_histogram
    # The energy model sums the histogram in insertion order; order is
    # part of the contract, not just the multiset.
    assert list(tape.dynamic_histogram) == list(seed.dynamic_histogram)
    if timed:
        assert tape_timing.issue == seed_timing.issue
        assert tape_timing.mispredicts == seed_timing.mispredicts
        assert tape_timing.ready == seed_timing.ready
        for cache_name in ("icache", "dcache"):
            tape_cache = getattr(tape_timing, cache_name)
            seed_cache = getattr(seed_timing, cache_name)
            assert tape_cache.hits == seed_cache.hits
            assert tape_cache.misses == seed_cache.misses
            assert tape_cache.tick == seed_cache.tick
            assert tape_cache.data == seed_cache.data
        assert tape_timing.predictor.table == seed_timing.predictor.table
    return tape


@pytest.mark.parametrize("target", ["x86", "riscv"])
@pytest.mark.parametrize("suite", ["beebs", "parsec", "multi",
                                   "earlyexit"])
def test_tape_matches_seed_unoptimized(suite, target):
    isa = get_isa(target)
    for workload in load_suite(suite):
        program = compile_module(workload.compile(), isa)
        _assert_equivalent(program, isa, timed=True)


@pytest.mark.parametrize("target", ["x86", "riscv"])
def test_tape_matches_seed_untimed(target):
    isa = get_isa(target)
    for workload in load_suite("multi"):
        program = compile_module(workload.compile(), isa)
        _assert_equivalent(program, isa, timed=False)


@pytest.mark.parametrize("target", ["x86", "riscv"])
def test_tape_matches_seed_after_o2(target):
    isa = get_isa(target)
    for workload in load_suite("beebs")[:4]:
        module = workload.compile()
        PassManager().run(module, STANDARD_LEVELS["-O2"])
        program = compile_module(module, isa)
        _assert_equivalent(program, isa, timed=True)


_SEQUENCES = extraction_sequences(8, seed=16)[len(standard_sequences()):][:4]


@pytest.mark.parametrize("target", ["x86", "riscv"])
@pytest.mark.parametrize("name", ["fdct", "levenshtein", "select_kth"])
def test_tape_matches_seed_after_random_sequences(name, target):
    """A seeded matrix of random extraction sequences, as the data
    extraction step runs them, beyond the standard levels."""
    isa = get_isa(target)
    workload = {w.name: w for w in load_suite("beebs")}[name]
    assert len(_SEQUENCES) == 4
    for sequence in _SEQUENCES:
        module = workload.compile()
        PassManager().run(module, list(sequence))
        _assert_equivalent(compile_module(module, isa), isa, timed=True)


# Between them, these two programs (each unoptimized and optimized, on
# both targets) execute every op code of the interpreter's dispatch.
_INT_OPS_SOURCE = """
int g[16];
int h[16];
int step(int x, int y) { return x * 3 - y / 2 + x % 5; }
int main() {
  int local[8];
  int t = 0;
  for (int i = 0; i < 8; i++) {
    local[i] = step(i, t) ^ (i << 2);
    t += local[i] & 7 | 1;
  }
  for (int i = 0; i < 16; i++) { h[i] = i * 3 - 20; }
  for (int i = 0; i < 16; i++) { g[i] = 5; }
  int s = 0;
  for (int i = 0; i < 16; i++) { s += g[i] + (h[i] >> 1) + (t > i); }
  print_int(s >> 2);
  print_int(imin(s, t) + imax(s, -t) + iabs(-s));
  return s;
}
"""

_FLOAT_OPS_SOURCE = """
float lanes(float a, float b, float c, float d) {
  float w = a * a;
  float x = b * b;
  float y = c * c;
  float z = d * d;
  return w + x + y + z;
}
int main() {
  float f = 2.0;
  float acc = 0.0;
  for (int i = 1; i < 6; i++) {
    float x = i * 0.75;
    acc += sqrt(x) + exp(x / 4.0) + log(x) + sin(x) + cos(x);
    acc += fabs(0.5 - x) + pow(x, 1.5);
    if (acc > 3.5) { acc = acc - 1.25; }
    int flag = acc < f;
    acc += flag;
  }
  acc += lanes(acc, 1.5, 2.5, 3.5);
  print_float(acc);
  int k = acc;
  print_int(k);
  return k;
}
"""


def _add_memcpy_and_lshr(module):
    """Add two IR ops no front-end path emits: a ``memcpy`` of ``h``
    over the cells loop-idiom's ``memset`` fills, and an ``lshr`` (the
    first ``ashr``)."""
    main = module.get_function("main")
    for block in main.blocks:
        for inst in list(block.instructions):
            if isinstance(inst, CallInst) and inst.callee == "memset":
                source = GEPInst(module.globals["h"], ConstantInt(I64, 0))
                source.name = main.next_name("mc")
                block.insert_before_terminator(source)
                block.insert_before_terminator(CallInst(
                    "memcpy", [inst.args[0], source, ConstantInt(I64, 16)]))
            elif inst.opcode == "ashr":
                inst.opcode = "lshr"
                return


def _negate_lanes_result(program, isa):
    """The backend never selects ``fneg``: make the move of ``lanes``'
    result into the return register one."""
    for instr in program.functions["lanes"].instructions():
        if instr.opcode == "mv" and \
                instr.operands[0].name == isa.ret_float.name:
            instr.opcode = "fneg"
            return
    raise AssertionError("no float return move")


def _opcode_coverage_programs(isa):
    int_module = compile_source(_INT_OPS_SOURCE)
    int_opt = compile_source(_INT_OPS_SOURCE)
    PassManager().run(int_opt, ["mem2reg", "instcombine", "loop-idiom"])
    _add_memcpy_and_lshr(int_opt)
    float_module = compile_source(_FLOAT_OPS_SOURCE)
    float_opt = compile_source(_FLOAT_OPS_SOURCE)
    PassManager().run(float_opt, ["mem2reg", "instcombine",
                                  "slp-vectorizer"])
    programs = [compile_module(module, isa) for module in
                (int_module, int_opt, float_module, float_opt)]
    _negate_lanes_result(programs[-1], isa)
    return programs


def test_every_dispatch_opcode_matches_seed():
    """Every op code the interpreter dispatches runs bit-identically to
    the seed, timed and untimed; a new entry in the dispatch table
    fails here until a program executes it."""
    executed = set()
    for target in ("x86", "riscv"):
        isa = get_isa(target)
        for program in _opcode_coverage_programs(isa):
            for timed in (True, False):
                result = _assert_equivalent(program, isa, timed)
                executed.update(result.dynamic_histogram)
    assert executed == set(DISPATCH)


def _timing_inexactness(isa):
    """Why the tape's float timing would not be exact on ``isa``.

    Every charge must be a multiple of 1/4 cycle and every sum must
    stay below 2**53 quarter cycles: then float addition is exact, in
    any order, and the tape's times cannot drift from the seed's.  It
    also finds a D-cache line and set by shift and mask."""
    problems = []
    miss = isa.dcache["miss"]
    charges = {f"latency of {opcode}": latency
               for opcode, latency in isa.latency_table.items()}
    charges.update({
        "default latency": 1, "D-cache hit": isa.dcache["hit"],
        "D-cache miss": miss, "store miss (a quarter of a miss)":
        miss * 0.25, "I-cache miss": isa.icache["miss"],
        "mispredict": isa.branch_mispredict,
        "call overhead": isa.call_overhead,
        "issue slot": 1.0 / isa.issue_width,
        # The seed's ``PipelineModel.on_block_op`` rule.
        "block-op cell": 0.5 if isa.issue_width >= 4 else 2.0})
    problems += [f"{name} {value} is not a multiple of 1/4"
                 for name, value in charges.items()
                 if not float(4 * value).is_integer()]
    problems += [f"D-cache {name} {value} is not a power of two"
                 for name in ("line", "sets")
                 for value in [isa.dcache[name]]
                 if value < 1 or value & (value - 1)]
    # One instruction stalls for at most the longest latency, a load
    # miss included, and pays at most every penalty once.
    longest = max(*isa.latency_table.values(), 1,
                  miss + isa.latency_table.get("ld", 1) - 1)
    worst = longest + sum(
        charges[name] for name in ("I-cache miss", "mispredict",
                                   "call overhead", "issue slot",
                                   "store miss (a quarter of a miss)"))
    if DEFAULT_FUEL * worst * 4 >= 2 ** 53:
        problems.append(f"{DEFAULT_FUEL} instructions of {worst} cycles "
                        f"reach 2**53 quarter cycles")
    return problems


class _ThreeWideX86(X86):
    issue_width = 3


class _FortyEightSetRiscV(RiscV):
    dcache = {**RiscV.dcache, "sets": 48}


def test_timing_arithmetic_is_exact():
    """The shipped ISAs keep the tape's timing arithmetic exact; an
    issue slot of 1/3 cycle or a 48-set D-cache would not, and the tape
    refuses the D-cache outright."""
    for target in TARGETS:
        assert _timing_inexactness(get_isa(target)) == [], target
    assert _timing_inexactness(_ThreeWideX86()) == \
        ["issue slot 0.3333333333333333 is not a multiple of 1/4"]
    isa = _FortyEightSetRiscV()
    assert _timing_inexactness(isa) == \
        ["D-cache sets 48 is not a power of two"]
    program = compile_module(compile_source(_INT_OPS_SOURCE), isa)
    with pytest.raises(ValueError, match="powers of two"):
        TapeSimulator(program, isa, PipelineModel(isa)).run()


def _run_state(result, timing):
    return (result.return_value, result.output,
            result.instructions_executed,
            list(result.dynamic_histogram.items()),
            timing.issue, timing.ready,
            timing.mispredicts, timing.predictor.table,
            [(cache.tick, cache.hits, cache.misses, cache.data)
             for cache in (timing.icache, timing.dcache)])


@pytest.mark.parametrize("target", ["x86", "riscv"])
def test_back_to_back_runs_on_one_model_match_seed(target):
    """Two different programs on one ``PipelineModel``, then the second
    program's simulators run again: each run starts from the previous
    one's issue time, ready times, caches and predictor (and, on the
    rerun, instruction count) and still ends in the seed's state."""
    isa = get_isa(target)
    timings = (PipelineModel(isa), PipelineModel(isa))
    programs = _opcode_coverage_programs(isa)
    for program in (programs[0], programs[3]):
        _assert_equivalent(program, isa, timed=True, timings=timings)
    seed = Simulator(programs[3], isa, timings[0])
    tape = TapeSimulator(programs[3], isa, timings[1])
    for _ in range(2):
        assert _run_state(tape.run(), timings[1]) == \
            _run_state(seed.run(), timings[0])


class _PenaltyCountingModel(PipelineModel):
    """The seed's pipeline model, counting the penalties it charges
    besides I-cache misses, which its I-cache counts."""

    def __init__(self, isa):
        super().__init__(isa)
        self.penalties = dict.fromkeys(
            ("taken mispredict", "not-taken mispredict", "store miss",
             "call", "memset", "memcpy"), 0)

    def on_branch(self, instr, taken):
        mispredicts = self.mispredicts
        super().on_branch(instr, taken)
        direction = "taken" if taken else "not-taken"
        self.penalties[f"{direction} mispredict"] += \
            self.mispredicts - mispredicts

    def on_store(self, instr, address):
        misses = self.dcache.misses
        super().on_store(instr, address)
        self.penalties["store miss"] += self.dcache.misses - misses

    def on_call(self, instr):
        super().on_call(instr)
        self.penalties["call"] += 1

    def on_block_op(self, instr, count):
        super().on_block_op(instr, count)
        self.penalties[instr.opcode] += 1


# A branch taken every third iteration mispredicts in both directions.
_PENALTY_SOURCE = """
int g[64];
int h[64];
int step(int x) { return x * 3 + 1; }
int main() {
  int s = 0;
  for (int i = 0; i < 64; i++) { g[i] = 5; }
  for (int i = 0; i < 30; i++) {
    if (i % 3 == 0) { s += step(i); }
    h[i * 2] = s;
  }
  print_int(s + g[3] + h[4]);
  return s;
}
"""


@pytest.mark.parametrize("target", ["x86", "riscv"])
def test_stall_total_with_every_penalty_matches_seed(target):
    """One run charges every penalty the tape adds to the issue time
    outside its scoreboard: I-cache misses, store misses, mispredicts of
    taken and of not-taken branches, calls, ``memset`` and ``memcpy``
    cells."""
    isa = get_isa(target)
    module = compile_source(_PENALTY_SOURCE)
    PassManager().run(module, ["mem2reg", "instcombine", "loop-idiom"])
    _add_memcpy_and_lshr(module)
    program = compile_module(module, isa)
    seed_timing = _PenaltyCountingModel(isa)
    timings = (seed_timing, PipelineModel(isa))
    _assert_equivalent(program, isa, timed=True, timings=timings)
    assert seed_timing.icache.misses > 0
    assert all(seed_timing.penalties.values()), seed_timing.penalties
    assert timings[1].issue == seed_timing.issue > 0


class _TinyX86(X86):
    """x86 with a 2-line I-cache and a 2-set, 1-way D-cache."""
    icache = {**X86.icache, "lines": 2}
    dcache = {**X86.dcache, "sets": 2, "ways": 1}


class _TinyRiscV(RiscV):
    """riscv with a 4-line I-cache and a 1-set, 1-way D-cache."""
    icache = {**RiscV.icache, "lines": 4}
    dcache = {**RiscV.dcache, "sets": 1, "ways": 1}


_STRADDLE_SOURCE = """
int main() {
  int acc = 1;
  for (int i = 0; i < 40; i++) {
    acc = acc * 3 + i;
    acc = acc ^ (i << 2);
    acc = acc - (acc >> 3);
  }
  print_int(acc);
  return acc & 255;
}
"""


@pytest.mark.parametrize("isa_class", [_TinyX86, _TinyRiscV])
def test_tape_matches_seed_under_eviction_stress(isa_class):
    """Caches small enough to evict all the time: the fetch charged once
    per I-cache line run and the inlined D-cache must take the miss and
    eviction paths exactly as the seed's ``Cache.access`` does."""
    isa = isa_class()
    modules = [workload.compile() for workload in load_suite("beebs")[::3]]
    for module in modules[:3]:
        PassManager().run(module, STANDARD_LEVELS["-O2"])
    programs = [compile_module(module, isa) for module in modules]
    programs += _opcode_coverage_programs(isa)
    evicted = {"icache": 0, "dcache": 0}
    for program in programs:
        timing = _assert_equivalent(program, isa, timed=True).timing
        for name in evicted:
            cache = getattr(timing, name)
            # More misses than lines means some line was evicted.
            evicted[name] += cache.misses > cache.sets * cache.ways
    assert evicted["icache"] == len(programs)
    assert evicted["dcache"] >= len(programs) // 2


@pytest.mark.parametrize("target", ["x86", "riscv"])
def test_hot_loop_straddling_an_icache_line_matches_seed(target):
    """A loop body that crosses an I-cache line boundary is fetched as
    two line runs per iteration."""
    isa = get_isa(target)
    program = compile_module(compile_source(_STRADDLE_SOURCE), isa)
    [body] = [block for block in program.functions["main"].blocks
              if block.label.endswith("for.body")]
    assert len({instr.address // isa.icache["line_bytes"]
                for instr in body.instructions}) > 1
    result = _assert_equivalent(program, isa, timed=True)
    # Each of the 40 iterations jumps from the body and from the step.
    assert result.dynamic_histogram["jmp"] > 80


_MID_RUN_TRAP = ("int g[4]; "
                 "int main() { int k = -5000; int x = g[k]; return x + 1; }")


def _trapping_load(program):
    """``main``'s load of ``g[k]`` (the first ``ld`` after the address
    of ``g`` is taken) and its neighbours in the same block."""
    for block in program.functions["main"].blocks:
        instrs = block.instructions
        taken = False
        for index, instr in enumerate(instrs):
            taken = taken or any(isinstance(o, GlobalRef)
                                 for o in instr.operands)
            if taken and instr.opcode == "ld":
                return instrs[index - 1], instr, instrs[index + 1]
    raise AssertionError("no load of g")


@pytest.mark.parametrize("target", ["x86", "riscv"])
def test_load_trapping_inside_a_line_run(target):
    """A load that traps in the middle of an I-cache line run (its
    neighbours share its line and segment) fails with the seed's text,
    and the engine stores nothing for it."""
    isa = get_isa(target)
    program = compile_module(compile_source(_MID_RUN_TRAP), isa)
    before, load, after = _trapping_load(program)
    line = isa.icache["line_bytes"]
    assert before.address // line == load.address // line \
        == after.address // line
    # Nothing between ``before`` and ``after`` ends the segment.
    assert before.opcode not in ("bcc", "fbcc", "call", "jmp", "ret")
    with pytest.raises(SimulationError) as seed_error:
        Simulator(program, isa, PipelineModel(isa)).run()
    with pytest.raises(SimulationError) as tape_error:
        TapeSimulator(program, isa, PipelineModel(isa)).run()
    assert "load from invalid address" in str(seed_error.value)
    assert str(tape_error.value) == str(seed_error.value)
    engine = EvaluationEngine(Platform(target))
    [result] = engine.evaluate_batch(
        [(Workload("mid_run_trap", "tests", _MID_RUN_TRAP), ())],
        on_error="collect")
    assert isinstance(result, EvalFailure)
    assert str(seed_error.value) in result.error
    assert engine.cache.stats.stores == 0


def _back_platforms_with_seed(monkeypatch):
    """Make ``Platform.execute`` run the seed :class:`Simulator` in
    place of the tape; returns the list of seed simulators it builds."""
    built = []

    class RecordingSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(repro.sim.platform, "TapeSimulator",
                        RecordingSimulator)
    return built


def test_platform_routes_sim_engine(monkeypatch):
    """A Platform's tape-backed measurements are identical to the same
    platform's measurements with the seed simulator swapped in."""
    module_source = load_suite("beebs")[0].source
    tape_m = Platform("riscv").profile(compile_source(module_source))
    built = _back_platforms_with_seed(monkeypatch)
    seed_m = Platform("riscv").profile(compile_source(module_source))
    assert len(built) == 1
    assert tape_m.metrics() == seed_m.metrics()
    assert tape_m.output == seed_m.output
    assert tape_m.return_value == seed_m.return_value
    assert tape_m.cycles == seed_m.cycles


def _drop_fallthrough_jmp(program):
    """Delete the ``jmp`` after ``main``'s first ``bcc``, so the
    not-taken path runs off the end of its block."""
    for block in program.functions["main"].blocks:
        opcodes = [instr.opcode for instr in block.instructions]
        if opcodes[-2:] == ["bcc", "jmp"]:
            del block.instructions[-1]
            return program
    raise AssertionError("no bcc/jmp pair in main")


def _drop_ret(program):
    """Delete ``main``'s ``ret``, so its block runs off the end."""
    for block in program.functions["main"].blocks:
        if block.instructions and block.instructions[-1].opcode == "ret":
            del block.instructions[-1]
            return program
    raise AssertionError("no ret in main")


_FAILING = {
    "div-zero": ("int main() { int d = 0; print_int(7 / d); return 0; }",
                 20_000_000, None),
    "fuel": ("int main() { int i = 0; while (i < 100000) { i += 1; } "
             "return i; }", 50, None),
    "load-trap": ("int g[4]; int main() { int k = -5000; return g[k]; }",
                  20_000_000, None),
    "store-trap": ("int g[4]; int main() { int k = -5000; g[k] = 1; "
                   "return 0; }", 20_000_000, None),
    "fall-off-branch": ("int main() { int x = 2; if (x > 5) { x = 1; } "
                        "return x; }", 20_000_000, _drop_fallthrough_jmp),
    "fall-off-block": ("int main() { return 3; }", 20_000_000, _drop_ret),
}


def test_error_parity():
    """Failing runs raise the same SimulationError text as the seed."""
    for case, (source, fuel, damage) in sorted(_FAILING.items()):
        for target in ("x86", "riscv"):
            isa = get_isa(target)
            program = compile_module(compile_source(source), isa)
            if damage is not None:
                damage(program)
            with pytest.raises(SimulationError) as seed_error:
                Simulator(program, isa, fuel=fuel).run()
            with pytest.raises(SimulationError) as tape_error:
                TapeSimulator(program, isa, PipelineModel(isa),
                              fuel=fuel).run()
            assert str(tape_error.value) == str(seed_error.value), case


def _limit_fuel(monkeypatch, fuel):
    """Make ``Platform.execute`` build its current simulator class with
    a budget of ``fuel`` instructions."""
    simulator = repro.sim.platform.TapeSimulator

    class Budgeted(simulator):
        def __init__(self, program, isa, timing=None, **_):
            super().__init__(program, isa, timing, fuel=fuel)

    monkeypatch.setattr(repro.sim.platform, "TapeSimulator", Budgeted)


_ENGINE_FAILURES = {
    "fuel": ("int main() { int i = 0; while (i < 100000) { i += 1; } "
             "return i; }", 500, "simulator fuel exhausted"),
    "load-trap": ("int g[4]; int main() { int k = -5000; return g[k]; }",
                  None, "load from invalid address"),
    "store-trap": ("int g[4]; int main() { int k = -5000; g[k] = 1; "
                   "return 0; }", None, "store to invalid address"),
    "call-stack": ("int boom(int n) { return boom(n + 1); } "
                   "int main() { return boom(0); }", None,
                   "call stack overflow"),
}


@pytest.mark.parametrize("case", sorted(_ENGINE_FAILURES))
def test_engine_failures_match_seed(case, monkeypatch):
    """Through ``EvaluationEngine`` a failing run becomes the same
    ``EvalFailure`` on the tape as with the seed simulator swapped in,
    and stores nothing: no payload carries the counters of a run that
    failed.  The ``fuel`` case gives both simulators a 500-instruction
    budget."""
    source, fuel, message = _ENGINE_FAILURES[case]
    workload = Workload(f"failing_{case}", "tests", source)
    failures = []
    built = []
    for seed in (False, True):
        if seed:
            built = _back_platforms_with_seed(monkeypatch)
        if fuel is not None:
            _limit_fuel(monkeypatch, fuel)
        engine = EvaluationEngine(Platform("riscv"))
        [result] = engine.evaluate_batch([(workload, ("mem2reg",))],
                                         on_error="collect")
        assert isinstance(result, EvalFailure)
        assert message in result.error
        assert engine.cache.stats.stores == 0
        failures.append((result.kind, result.error, result.attempts))
    assert built
    assert failures[0] == failures[1]


def test_tape_recursion_depth_limit_matches_seed():
    source = """
    int boom(int n) { return boom(n + 1); }
    int main() { return boom(0); }
    """
    isa = get_isa("riscv")
    program = compile_module(compile_source(source), isa)
    with pytest.raises(SimulationError) as seed_error:
        Simulator(program, isa).run()
    with pytest.raises(SimulationError) as tape_error:
        TapeSimulator(program, isa).run()
    assert "call stack overflow" in str(seed_error.value)
    assert str(tape_error.value) == str(seed_error.value)


@pytest.mark.parametrize("depth", [399, 400])
def test_call_depth_limit_is_the_seeds(depth):
    """``down(399)`` nests 400 calls below ``main`` and completes;
    ``down(400)`` nests 401 and overflows, on both engines."""
    source = f"""
    int down(int n) {{ if (n == 0) {{ return 0; }} return down(n - 1) + 1; }}
    int main() {{ return down({depth}); }}
    """
    isa = get_isa("riscv")
    program = compile_module(compile_source(source), isa)
    if depth == 399:
        result = _assert_equivalent(program, isa, timed=True)
        assert result.return_value == 399
        return
    for engine in (Simulator, TapeSimulator):
        with pytest.raises(SimulationError, match="call stack overflow"):
            engine(program, isa).run()
