"""The engine's in-place cost-model normalization is exact.

A fresh point normalizes (mem2reg + instcombine) its own optimized
module under its own analysis manager, not a clone under a fresh one,
and its manager starts with the template's fingerprints and static
partials.  Both shortcuts must give the public clone path's numbers bit
for bit.  The in-place case differs in use-list order: the point's
use-lists are in pass-history order, a clone's in program order, which
matters most when the sequence left mem2reg to the normalization.
"""

import copy

import numpy as np
import pytest

from repro.baselines import STANDARD_LEVELS
from repro.engine.evaluator import optimize_point
from repro.features import extract_features
from repro.features.static_features import _function_partial
from repro.ir.printer import function_fingerprint
from repro.passes import TABLE_VI_PHASES, AnalysisManager
from repro.profiling.permutations import random_phase_sequences
from repro.sim import Platform
from repro.workloads import load_suite, suite_names
from repro.workloads.registry import template

CORPUS = [workload for suite in suite_names()
          for workload in load_suite(suite)]
EXTRACTION = random_phase_sequences(6, seed=3)
#: -O0, -O2, every single Table VI phase, and extraction sequences
#: with ``mem2reg`` removed (the normalization's mem2reg then rewrites
#: a module whose use-lists the sequence reordered).
SEQUENCES = ([(), tuple(STANDARD_LEVELS["-O2"])]
             + [(phase,) for phase in TABLE_VI_PHASES]
             + [tuple(phase for phase in sequence if phase != "mem2reg")
                for sequence in EXTRACTION])


def _spec(workload, sequence):
    return {"source": workload.source, "name": workload.name,
            "sequence": list(sequence), "target": "riscv",
            "measurement_seed": 0}


def _assert_in_place_matches_clone_path(workload, platform):
    """In-place features equal clone-path features for every sequence,
    and the program's seeded static partials come out unchanged."""
    partials = template(workload.name, workload.source).partials
    before = copy.deepcopy(partials)
    for sequence in SEQUENCES:
        module, am, *_ = optimize_point(_spec(workload, sequence))
        program = platform.compile(module)
        expected = extract_features(module, program)
        assert np.array_equal(
            extract_features(module, program, am=am, in_place=True),
            expected), (workload.name, sequence)
    assert partials == before, workload.name


def test_seeded_analyses_equal_the_clones_own():
    for workload in CORPUS:
        entry = template(workload.name, workload.source)
        clone = workload.compile()
        for name, function in clone.functions.items():
            assert entry.fingerprints[name] == \
                function_fingerprint(function), (workload.name, name)
        for function in clone.defined_functions():
            assert entry.partials[function.name] == \
                _function_partial(function, AnalysisManager()), \
                (workload.name, function.name)


@pytest.mark.parametrize("workload", [
    workload for workload in CORPUS
    if workload.name in ("crc32", "blackscholes", "modmath",
                         "nested_break")], ids=lambda w: w.name)
def test_in_place_features_match_the_clone_path(workload):
    _assert_in_place_matches_clone_path(workload, Platform("riscv"))


@pytest.mark.slow
def test_in_place_features_match_the_clone_path_over_the_corpus():
    platform = Platform("riscv")
    for workload in CORPUS:
        _assert_in_place_matches_clone_path(workload, platform)
