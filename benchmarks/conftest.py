"""Shared experiment fixtures for the paper-reproduction benchmarks.

Each paper artifact (Figs. 4–7, §V-C headline numbers, Table V) is
regenerated from these session-scoped fixtures; the ``benchmark`` tests in
each file time the representative operations while the fixtures print the
paper-style tables once.

Scale note: the paper uses 200–600 data points per platform; these
fixtures generate ~200 (x86/PARSEC) and ~340 (RISC-V/BEEBS) points, inside
the paper's range.
"""

import os

import numpy as np
import pytest

from repro.engine import EvaluationEngine
from repro.pe import PerformanceEstimator
from repro.profiling import DataExtractor
from repro.rl import RewardConfig, TrainingConfig
from repro.sim import Platform
from repro.workloads import load_suite


def pytest_collection_modifyitems(config, items):
    """Benchmarks are simulation-heavy: mark everything under this
    directory ``slow`` (excluded from the tier-1 default selection)
    unless a test opts into the fast tier with ``@pytest.mark.fast``."""
    here = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if str(item.fspath).startswith(here) \
                and "fast" not in item.keywords:
            item.add_marker(pytest.mark.slow)


#: Engines created by the benchmark fixtures, so the session can report
#: their cache hit rates at the end.
_SESSION_ENGINES = []


def pytest_sessionfinish(session, exitstatus):
    """Report evaluation-cache hit rates of the benchmark engines."""
    if not _SESSION_ENGINES:
        return
    print("\n=== benchmark evaluation-cache hit rates ===")
    for label, engine in _SESSION_ENGINES:
        stats = engine.stats()
        tier = stats["evaluations"]
        if tier is None:
            continue
        lookups = tier["hits"] + tier["misses"]
        print(f"  {label:24s} {tier['hits']:5d}/{lookups:5d} hits "
              f"({tier['hit_rate']:.1%}), disk hits "
              f"{tier['disk_hits']}, disk stores {tier['disk_stores']}")

# Phases the PSS policies select from (a productive subset keeps policy
# training snappy; the full registry is exercised by the test suite).
PSS_PHASES = [
    "mem2reg", "sroa", "instcombine", "simplifycfg", "gvn", "early-cse",
    "licm", "loop-rotate", "loop-unroll", "loop-idiom", "sccp", "ipsccp",
    "inline", "dce", "adce", "dse", "reassociate", "jump-threading",
    "tailcallelim", "loop-deletion", "speculative-execution",
    "loop-vectorize", "globalopt", "globaldce",
]

PSS_CONFIG = TrainingConfig(num_episodes=48, batch_size=6,
                            learning_rate=0.1, hidden=16, n_layers=3,
                            max_sequence_length=10, seed=0)


@pytest.fixture(scope="session")
def shared_cache_dir(tmp_path_factory):
    """One on-disk evaluation-cache directory shared by EVERY benchmark
    fixture (ROADMAP follow-up: previously each fixture's engine kept a
    private in-memory cache, so identical points evaluated for
    different figures were recompiled and resimulated)."""
    return str(tmp_path_factory.mktemp("shared-eval-cache"))


def _extract(target, suite, n_sequences, seed, cache_dir):
    platform = Platform(target)
    workloads = load_suite(suite)
    engine = EvaluationEngine(platform, farm_dir=cache_dir)
    _SESSION_ENGINES.append((f"{suite}/{target}", engine))
    extractor = DataExtractor(platform, workloads, engine=engine)
    dataset = extractor.extract(n_sequences=n_sequences, seed=seed)
    return platform, workloads, dataset, extractor


@pytest.fixture(scope="session")
def parsec_x86_setup(shared_cache_dir):
    """(platform, workloads, dataset, extractor) for PARSEC on x86."""
    return _extract("x86", "parsec", n_sequences=16, seed=11,
                    cache_dir=shared_cache_dir)


@pytest.fixture(scope="session")
def beebs_riscv_setup(shared_cache_dir):
    """(platform, workloads, dataset, extractor) for BEEBS on RISC-V."""
    return _extract("riscv", "beebs", n_sequences=12, seed=13,
                    cache_dir=shared_cache_dir)


@pytest.fixture(scope="session")
def pe_x86(parsec_x86_setup):
    _, _, dataset, _ = parsec_x86_setup
    estimator = PerformanceEstimator().train(
        dataset, mode="heuristic", n_trials=14,
        model_names=("ridge", "kernel-ridge", "bayesian-ridge", "huber",
                     "random-forest", "mlp", "lasso"),
        preprocessor_names=("mean-std", "robust", "power"),
        accuracy_threshold=0.999, seed=0)
    return estimator


@pytest.fixture(scope="session")
def pe_riscv(beebs_riscv_setup):
    _, _, dataset, _ = beebs_riscv_setup
    estimator = PerformanceEstimator().train(
        dataset, mode="heuristic", n_trials=14,
        model_names=("ridge", "kernel-ridge", "bayesian-ridge", "huber",
                     "random-forest", "mlp", "lasso"),
        preprocessor_names=("mean-std", "robust", "power"),
        accuracy_threshold=0.999, seed=0)
    return estimator


def _train_pss(platform, workloads, estimator, seed=0):
    from repro.rl import ReinforceTrainer
    from repro.pss import PhaseSequenceSelector
    config = PSS_CONFIG
    trainer = ReinforceTrainer(workloads, platform, estimator,
                               PSS_PHASES, config=config,
                               reward_config=RewardConfig())
    policy = trainer.train()
    selector = PhaseSequenceSelector(policy, trainer.encoder, PSS_PHASES,
                                     max_sequence_length=24,
                                     max_inactive_length=8)
    return trainer, selector


@pytest.fixture(scope="session")
def pss_x86(parsec_x86_setup, pe_x86):
    platform, workloads, _, _ = parsec_x86_setup
    return _train_pss(platform, workloads, pe_x86)


@pytest.fixture(scope="session")
def pss_riscv(beebs_riscv_setup, pe_riscv):
    platform, workloads, _, _ = beebs_riscv_setup
    return _train_pss(platform, workloads, pe_riscv)


def evaluate_levels(platform, workloads, selector, levels):
    """Per-workload metrics for -O levels and MLComp, normalized to -O0
    (the presentation of paper Figs. 5 and 7)."""
    from repro.passes import PassManager
    from repro.baselines import STANDARD_LEVELS
    rows = {}
    for workload in workloads:
        base = platform.profile(workload.compile())
        entry = {}
        for level in levels:
            module = workload.compile()
            PassManager().run(module, STANDARD_LEVELS[level])
            measurement = platform.profile(module)
            entry[level] = _normalize(measurement, base)
        module = workload.compile()
        selector.optimize(module)
        measurement = platform.profile(module)
        entry["MLComp"] = _normalize(measurement, base)
        rows[workload.name] = entry
    return rows


def _normalize(measurement, base):
    return {
        "time": measurement.metrics()["exec_time_us"]
        / base.metrics()["exec_time_us"],
        "energy": measurement.metrics()["energy_uj"]
        / base.metrics()["energy_uj"],
        "size": measurement.code_size / base.code_size,
    }


def print_relative_table(title, rows, columns):
    print(f"\n=== {title} (relative to -O0, lower is better) ===")
    header = f"{'workload':16s}" + "".join(
        f" | {c:>22s}" for c in columns)
    print(header)
    print("-" * len(header))
    for name, entry in sorted(rows.items()):
        cells = []
        for column in columns:
            v = entry[column]
            cells.append(f" | t={v['time']:5.2f} e={v['energy']:5.2f} "
                         f"s={v['size']:4.2f}")
        print(f"{name:16s}" + "".join(cells))
    means = {}
    for column in columns:
        means[column] = {
            k: float(np.mean([rows[w][column][k] for w in rows]))
            for k in ("time", "energy", "size")}
    cells = []
    for column in columns:
        v = means[column]
        cells.append(f" | t={v['time']:5.2f} e={v['energy']:5.2f} "
                     f"s={v['size']:4.2f}")
    print(f"{'GEOMEAN-ish':16s}" + "".join(cells))
    return means
