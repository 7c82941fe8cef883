"""Substrate micro-benchmarks: compiler throughput, simulator speed,
feature extraction latency — the costs that shape MLComp's adaptation
time (paper §V-C's training-time discussion)."""

import pytest

from repro.backend import compile_module
from repro.features import extract_features, extract_static_features
from repro.lang import compile_source
from repro.passes import PassManager
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def canneal_module():
    return load_workload("parsec", "canneal").compile()


def test_bench_frontend(benchmark):
    source = load_workload("parsec", "canneal").source
    module = benchmark(compile_source, source)
    assert "main" in module.functions


def test_bench_o2_pipeline(benchmark):
    from repro.baselines import STANDARD_LEVELS
    workload = load_workload("beebs", "matmult_int")

    def run_o2():
        module = workload.compile()
        PassManager().run(module, STANDARD_LEVELS["-O2"])
        return module

    module = benchmark(run_o2)
    assert module.instruction_count() > 0


def test_bench_backend_compile(benchmark, canneal_module):
    program = benchmark(compile_module, canneal_module, "x86")
    assert program.code_size > 0


def test_bench_static_features(benchmark, canneal_module):
    features = benchmark(extract_static_features, canneal_module)
    assert features.shape == (63,)


def test_bench_full_feature_vector(benchmark, canneal_module, riscv):
    features = benchmark(
        lambda: extract_features(canneal_module,
                                 riscv.compile(canneal_module)))
    assert len(features) > 63


def test_bench_riscv_simulation(benchmark, riscv):
    workload = load_workload("beebs", "fdct")

    def simulate():
        return riscv.profile(workload.compile())

    measurement = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert measurement.cycles > 0


def test_bench_x86_simulation(benchmark, x86):
    workload = load_workload("parsec", "blackscholes")

    def simulate():
        return x86.profile(workload.compile())

    measurement = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert measurement.cycles > 0


@pytest.fixture(scope="module")
def riscv():
    from repro.sim import Platform
    return Platform("riscv")


@pytest.fixture(scope="module")
def x86():
    from repro.sim import Platform
    return Platform("x86")
