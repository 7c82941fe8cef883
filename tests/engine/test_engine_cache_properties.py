"""Property tests for the evaluation cache (ISSUE 1 satellites).

Covered properties:
- same key -> identical metrics, features and result fingerprint,
  whether served fresh, from memory, or from the disk store;
- distinct measurement seeds / platforms / sequences never collide;
- eviction and hit/miss/store counters stay mutually consistent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EvaluationCache,
    EvaluationEngine,
    cache_key,
)
from repro.engine import cache as cache_module
from repro.sim import Platform
from repro.workloads import load_suite

SEQ = ("mem2reg", "simplifycfg", "instcombine")


@pytest.fixture(scope="module")
def workload():
    return load_suite("beebs")[0]


# -- key construction -----------------------------------------------------

_key_parts = st.tuples(
    st.text(min_size=1, max_size=16),
    st.lists(st.sampled_from(["mem2reg", "dce", "gvn", "licm", "a|b",
                              "x\x1ey"]), max_size=5).map(tuple),
    st.sampled_from(["x86", "riscv"]),
    st.integers(0, 2**31),
)


@settings(max_examples=200, deadline=None)
@given(a=_key_parts, b=_key_parts)
def test_distinct_points_never_collide(a, b):
    """cache_key is injective over (fingerprint, sequence, target,
    seed) — in particular distinct seeds and platforms get distinct
    keys."""
    key_a = cache_key(*a)
    key_b = cache_key(*b)
    assert (key_a == key_b) == (a == b)


def test_key_separates_sequence_boundaries():
    assert cache_key("f", ("ab", "c"), "riscv", 0) != \
        cache_key("f", ("a", "bc"), "riscv", 0)
    assert cache_key("f", ("a", "b"), "riscv", 0) != \
        cache_key("f", ("a b",), "riscv", 0)


# -- same key -> same payload --------------------------------------------

def test_same_key_identical_metrics_and_fingerprint(workload):
    engine = EvaluationEngine(Platform("riscv", measurement_seed=3))
    first = engine.evaluate(workload, SEQ)
    second = engine.evaluate(workload, SEQ)
    assert not first.cached and second.cached
    assert first.key == second.key
    assert first.metrics() == second.metrics()
    assert first.result_fingerprint == second.result_fingerprint
    assert list(first.features) == list(second.features)
    assert first.output == second.output


def test_cached_equals_uncached_evaluation(workload):
    """The cache is transparent: a cacheless engine computes exactly
    what a caching engine returns (fresh or hit)."""
    cached_engine = EvaluationEngine(Platform("x86", measurement_seed=5))
    bare_engine = EvaluationEngine(Platform("x86", measurement_seed=5),
                                   cache=False)
    hit = cached_engine.evaluate(workload, SEQ)
    hit = cached_engine.evaluate(workload, SEQ)
    fresh = bare_engine.evaluate(workload, SEQ)
    assert hit.cached and not fresh.cached
    assert hit.metrics() == fresh.metrics()
    assert hit.result_fingerprint == fresh.result_fingerprint


def test_distinct_seeds_measure_independently(workload):
    """Two engines with different measurement seeds must not share
    entries — and on the noisy x86 platform their energies differ."""
    a = EvaluationEngine(Platform("x86", measurement_seed=1))
    b = EvaluationEngine(Platform("x86", measurement_seed=2))
    result_a = a.evaluate(workload, SEQ)
    result_b = b.evaluate(workload, SEQ)
    assert result_a.key != result_b.key
    assert result_a.metrics()["energy_uj"] != \
        result_b.metrics()["energy_uj"]
    # The program itself is identical; only the measurement noise moved.
    assert result_a.result_fingerprint == result_b.result_fingerprint


def test_distinct_platforms_measure_independently(workload):
    x86 = EvaluationEngine(Platform("x86", measurement_seed=1))
    riscv = EvaluationEngine(Platform("riscv", measurement_seed=1))
    assert x86.key_for(workload, SEQ) != riscv.key_for(workload, SEQ)
    assert x86.evaluate(workload, SEQ).metrics() != \
        riscv.evaluate(workload, SEQ).metrics()


# -- stats / eviction consistency ----------------------------------------

def test_stats_counters_consistent():
    cache = EvaluationCache(max_entries=3)
    for i in range(7):
        cache.put(f"k{i}", {"value": i})
    assert len(cache) == 3
    assert cache.stats.stores == 7
    assert cache.stats.evictions == 7 - 3
    assert cache.get("k6") == {"value": 6}
    assert cache.get("k0") is None  # evicted (LRU)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.lookups == cache.stats.hits + cache.stats.misses
    assert cache.stats.hit_rate == 0.5


def test_lru_recency_protects_entries():
    cache = EvaluationCache(max_entries=2)
    cache.put("a", {"v": 1})
    cache.put("b", {"v": 2})
    assert cache.get("a") == {"v": 1}  # refresh 'a'
    cache.put("c", {"v": 3})           # evicts 'b', not 'a'
    assert cache.get("a") == {"v": 1}
    assert cache.get("b") is None
    assert cache.get("c") == {"v": 3}


@settings(max_examples=60, deadline=None)
@given(operations=st.lists(
    st.tuples(st.sampled_from("pg"), st.integers(0, 9)), max_size=60))
def test_stats_match_reference_lru_model(operations):
    """The cache agrees with a straightforward LRU reference model on
    contents, hit/miss counts and eviction counts for any op mix."""
    from collections import OrderedDict
    cache = EvaluationCache(max_entries=4)
    model = OrderedDict()
    hits = misses = stores = evictions = 0
    for op, k in operations:
        key = f"k{k}"
        if op == "p":
            cache.put(key, {"v": k})
            stores += 1
            model[key] = {"v": k}
            model.move_to_end(key)
            if len(model) > 4:
                model.popitem(last=False)
                evictions += 1
        else:
            value = cache.get(key)
            if key in model:
                model.move_to_end(key)
                hits += 1
                assert value == model[key]
            else:
                misses += 1
                assert value is None
    stats = cache.stats
    assert len(cache) == len(model)
    assert sorted(cache._entries) == sorted(model)
    assert (stats.hits, stats.misses, stats.stores, stats.evictions) \
        == (hits, misses, stores, evictions)
    assert stats.lookups == hits + misses
    assert 0.0 <= stats.hit_rate <= 1.0


# -- disk store -----------------------------------------------------------

def test_disk_store_survives_process_cache(tmp_path, workload):
    store = str(tmp_path / "evals")
    platform = Platform("riscv", measurement_seed=0)
    first_engine = EvaluationEngine(platform, farm_dir=store)
    first = first_engine.evaluate(workload, SEQ)
    # A brand-new cache instance (fresh "process") warm-starts from disk.
    second_engine = EvaluationEngine(platform, farm_dir=store)
    second = second_engine.evaluate(workload, SEQ)
    assert second.cached
    assert second_engine.cache.stats.disk_hits == 1
    assert first.metrics() == second.metrics()
    assert list(first.features) == list(second.features)


def test_semantics_change_misses_a_warm_farm(tmp_path, workload,
                                             monkeypatch):
    """A farm filled under other compiler sources serves nothing: both
    the sequence key and the result-index key change, so the point is
    evaluated afresh."""
    farm = str(tmp_path / "farm")
    platform = Platform("riscv", measurement_seed=0)
    first = EvaluationEngine(platform, farm_dir=farm).evaluate(workload,
                                                               SEQ)
    warm = EvaluationEngine(platform, farm_dir=farm)
    assert warm.evaluate(workload, SEQ).cached
    monkeypatch.setattr(cache_module, "semantics_digest",
                        lambda: "other compiler sources")
    engine = EvaluationEngine(platform, farm_dir=farm)
    fresh = engine.evaluate(workload, SEQ)
    assert not fresh.cached
    assert fresh.key != first.key
    assert engine.cache.stats.disk_hits == 0
    assert engine.compose_stats == {"hits": 0, "misses": 1}
    assert fresh.metrics() == first.metrics()


def test_semantics_digest_covers_the_payload_builder():
    """``engine/evaluator.py`` builds every stored payload and derives
    each point's measurement seed, so its source is hashed into the
    keys next to the compiler packages."""
    from pathlib import Path

    import repro.engine.evaluator as evaluator

    files = cache_module.semantic_source_files()
    assert Path(evaluator.__file__).resolve() in files
    packages = {path.parent.name for path in files}
    assert {"lang", "ir", "passes", "backend", "sim",
            "features"} <= packages
    assert len(files) == len(set(files))


def test_function_fingerprints_in_payload_match_module():
    """Evaluation payloads carry per-function fingerprints (the
    function-granular identity the incremental pass layer exposes);
    they must agree between fresh and cached results and with an
    independent compile+optimize of the same point."""
    from repro.engine import EvaluationEngine
    from repro.ir.printer import function_fingerprint
    from repro.passes import PassManager
    from repro.sim import Platform
    from repro.workloads import load_suite

    workload = load_suite("beebs")[0]
    sequence = ("mem2reg", "instcombine", "simplifycfg")
    engine = EvaluationEngine(Platform("riscv"))
    fresh = engine.evaluate(workload, sequence)
    cached = engine.evaluate(workload, sequence)
    assert fresh.function_fingerprints
    assert cached.function_fingerprints == fresh.function_fingerprints

    module = workload.compile()
    PassManager().run(module, list(sequence))
    expected = {function.name: function_fingerprint(function)
                for function in module.defined_functions()}
    assert fresh.function_fingerprints == expected


# -- function-granular result-index composition (ISSUE 3) ------------------

def test_sequences_reaching_same_code_share_one_profile(workload):
    """Two different sequences whose optimized modules are
    per-function identical must simulate once: the second evaluation
    composes its payload from the result index."""
    engine = EvaluationEngine(Platform("riscv"))
    first = engine.evaluate(workload, ("mem2reg", "dce"))
    # Appending a phase that cannot change this program reaches the
    # same optimized code through a different (sequence-keyed) point.
    second = engine.evaluate(workload, ("mem2reg", "dce", "dce"))
    assert first.key != second.key
    assert not second.cached  # new point...
    assert engine.compose_stats["hits"] == 1  # ...but composed profile
    assert second.result_fingerprint == first.result_fingerprint
    assert second.function_fingerprints == first.function_fingerprints
    assert second.metrics() == first.metrics()
    assert second.output == first.output
    assert list(second.features) == list(first.features)
    assert second.sequence == ("mem2reg", "dce", "dce")


def test_composed_payload_identical_to_uncomposed_engine(workload):
    """Composition is invisible: an engine without a cache (so without
    a result index) produces byte-identical measurements for the same
    point."""
    sequence = ("mem2reg", "instcombine", "instcombine")
    composed = EvaluationEngine(Platform("riscv"))
    composed.evaluate(workload, ("mem2reg", "instcombine"))
    via_index = composed.evaluate(workload, sequence)
    assert composed.compose_stats["hits"] == 1
    plain = EvaluationEngine(Platform("riscv"), cache=False)
    direct = plain.evaluate(workload, sequence)
    assert via_index.metrics() == direct.metrics()
    assert via_index.result_fingerprint == direct.result_fingerprint
    assert via_index.output == direct.output
    assert list(via_index.features) == list(direct.features)


def test_profile_module_feeds_sequence_evaluations(workload):
    """Deployment-check profiles land in the same result index, so a
    later sequence evaluation reaching that code composes from them —
    and they carry the same payload a fresh evaluation builds."""
    from repro.passes import AnalysisManager, PassManager

    engine = EvaluationEngine(Platform("riscv"))
    module = workload.compile()
    am = AnalysisManager()
    PassManager().run(module, ["mem2reg", "gvn"], am=am)
    profiled = engine.profile_module(module, am=am)
    result = engine.evaluate(workload, ("mem2reg", "gvn"))
    assert engine.compose_stats == {"hits": 1, "misses": 0}
    fresh = EvaluationEngine(Platform("riscv"), cache=False).evaluate(
        workload, ("mem2reg", "gvn"))
    for other in (result, fresh):
        assert other.metrics() == profiled.metrics()
        assert list(other.features) == list(profiled.features)
        assert other.cycles == profiled.cycles
        assert other.code_size == profiled.code_size
        assert other.output == profiled.output
