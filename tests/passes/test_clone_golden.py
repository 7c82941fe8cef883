"""IR states and their clones are bit-identical to the golden digests.

See ``clone_golden.py`` for what a digest covers and for the one rule
about regenerating ``clone_golden.json``: only when a pass or the
frontend changes, never in a change to cloning itself.
"""

import pytest

from clone_golden import corpus, level_states, load_golden, state_digest
from repro.passes.cloning import clone_module

GOLDEN = load_golden()
CORPUS = corpus()


def test_golden_covers_every_program():
    assert sorted(GOLDEN) == sorted(key for key, _ in CORPUS)


@pytest.mark.parametrize("key, workload", CORPUS,
                         ids=[key for key, _ in CORPUS])
def test_states_and_clones_match_golden_digests(key, workload):
    for level, module, trail in level_states(workload):
        clone = clone_module(module)
        expected = GOLDEN[key][level]
        assert trail == expected["trail"], (key, level)
        assert state_digest(module) == expected["state"], (key, level)
        assert state_digest(clone) == expected["clone"], (key, level)
        # A clone of a clone is the same state again.
        assert state_digest(clone_module(clone)) == expected["clone"], \
            (key, level)
