"""Feature extraction + Data Extraction tests."""

import numpy as np
import pytest

from repro.features import (
    FEATURE_NAMES,
    STATIC_FEATURE_NAMES,
    extract_features,
    extract_static_features,
)
from repro.lang import compile_source
from repro.passes import PassManager
from repro.profiling import (
    Dataset,
    extraction_sequences,
    random_phase_sequences,
)
from repro.workloads import load_suite, load_workload, suite_names


def test_static_features_are_63(smoke_module):
    features = extract_static_features(smoke_module)
    assert features.shape == (63,)
    assert len(STATIC_FEATURE_NAMES) == 63
    assert np.all(np.isfinite(features))


def test_features_reflect_code_structure(smoke_module):
    features = dict(zip(STATIC_FEATURE_NAMES,
                        extract_static_features(smoke_module)))
    assert features["n_functions"] == 4
    assert features["n_loops"] >= 5
    assert features["n_recursive_functions"] == 2
    assert features["n_globals"] == 2
    assert features["n_math_calls"] == 1  # sqrt


def test_features_change_after_optimization(smoke_source):
    module = compile_source(smoke_source)
    before = extract_static_features(module)
    PassManager().run(module, ["mem2reg", "instcombine", "simplifycfg"])
    after = extract_static_features(module)
    assert not np.allclose(before, after)
    names = dict(zip(STATIC_FEATURE_NAMES, after))
    assert names["n_phi"] > 0  # mem2reg introduced phis


def test_platform_features_target_specific(smoke_module, x86, riscv):
    fx = extract_features(smoke_module, x86.compile(smoke_module))
    fr = extract_features(smoke_module, riscv.compile(smoke_module))
    assert fx.shape == (len(FEATURE_NAMES),)
    assert fr.shape == (len(FEATURE_NAMES),)
    assert np.allclose(fx[:63], fr[:63])       # static part identical
    assert not np.allclose(fx[63:], fr[63:])   # machine part differs


def test_workload_suites_complete():
    assert suite_names() == ["beebs", "earlyexit", "multi", "parsec"]
    assert len(load_suite("parsec")) == 10
    assert len(load_suite("beebs")) == 20
    assert len(load_suite("multi")) == 4
    assert len(load_suite("earlyexit")) == 7
    # The earlyexit suite exists so multi-exit loops are first-class:
    # every program must actually contain one.
    from repro.ir import LoopInfo
    for workload in load_suite("earlyexit"):
        module = workload.compile()
        assert any(
            len(loop.exit_blocks()) > 1
            for function in module.defined_functions()
            for loop in LoopInfo(function).loops), workload.name
    # The multi suite exists to give function granularity something to
    # bite on; every program must actually be call-graph-rich.
    for workload in load_suite("multi"):
        assert len(workload.compile().defined_functions()) >= 6
    with pytest.raises(KeyError):
        load_suite("spec2006")


def test_workload_compile_returns_fresh_modules():
    workload = load_workload("beebs", "crc32")
    m1 = workload.compile()
    m2 = workload.compile()
    assert m1 is not m2


def test_random_sequences_deterministic():
    a = random_phase_sequences(10, seed=4)
    b = random_phase_sequences(10, seed=4)
    c = random_phase_sequences(10, seed=5)
    assert a == b
    assert a != c


def test_extraction_sequences_include_standard_levels():
    sequences = extraction_sequences(5, seed=0)
    from repro.baselines import STANDARD_LEVELS
    for level in STANDARD_LEVELS.values():
        assert tuple(level) in sequences
    assert () in sequences
    assert len(set(sequences)) == len(sequences)


def test_dataset_shape_and_targets(small_dataset):
    assert len(small_dataset) >= 25
    X = small_dataset.X
    assert X.shape[1] == len(FEATURE_NAMES)
    for metric in Dataset.METRICS:
        y = small_dataset.y(metric)
        assert y.shape == (len(small_dataset),)
        assert np.all(y > 0)


def test_dataset_split_disjoint(small_dataset):
    train, test = small_dataset.split(0.25, seed=1)
    assert len(set(train) & set(test)) == 0
    assert len(train) + len(test) == len(small_dataset)


def test_dataset_npz_round_trip(small_dataset, tmp_path):
    path = tmp_path / "ds.npz"
    small_dataset.save_npz(path)
    loaded = Dataset.load_npz(path)
    assert len(loaded) == len(small_dataset)
    assert np.allclose(loaded.X, small_dataset.X)
    for metric in Dataset.METRICS:
        assert np.allclose(loaded.y(metric), small_dataset.y(metric))
    assert loaded.rows[0]["workload"] == small_dataset.rows[0]["workload"]


def test_dataset_csv_export(small_dataset, tmp_path):
    path = tmp_path / "ds.csv"
    small_dataset.save_csv(path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("workload,sequence")
    assert "exec_time_us" in header


def test_feature_vector_length_mismatch_rejected():
    dataset = Dataset()
    with pytest.raises(ValueError):
        dataset.add(np.zeros(5), {m: 1.0 for m in Dataset.METRICS},
                    "w", ())
