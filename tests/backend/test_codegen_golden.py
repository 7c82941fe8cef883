"""The backend's MachinePrograms are bit-identical to the golden digests.

See ``codegen_golden.py`` for what a digest covers and for the one rule
about regenerating ``codegen_golden.json``: only when the IR that
reaches the backend changes (a pass or the frontend), never in a
backend-only change.
"""

import pytest

from codegen_golden import (
    TARGETS,
    compile_digests,
    corpus,
    load_golden,
    program_digest,
)
from repro.backend import compile_module
from repro.baselines import STANDARD_LEVELS
from repro.ir.printer import function_fingerprint
from repro.lang import compile_source
from repro.passes import PassManager

GOLDEN = load_golden()
CORPUS = corpus()

#: Four independent float multiplies over values in registers, the
#: shape a post-allocation SLP fuser would pack into one vector op.
FLOAT_LANES_SOURCE = """
float g[4] = {1.5, 2.5, 3.5, 4.5};
int main() {
  for (int i = 0; i < 4; i++) { g[i] = g[i] * 0.5 + g[(i + 1) % 4]; }
  float a = g[0];
  float b = g[1];
  float c = g[2];
  float d = g[3];
  float ra = a * a;
  float rb = b * b;
  float rc = c * c;
  float rd = d * d;
  print_float(ra + rb + rc + rd);
  return 0;
}
"""


def test_golden_covers_every_program():
    assert sorted(GOLDEN) == sorted(key for key, _ in CORPUS)


@pytest.mark.parametrize("key, build", CORPUS,
                         ids=[key for key, _ in CORPUS])
def test_machine_program_matches_golden_digest(key, build):
    assert compile_digests(build) == GOLDEN[key]


def test_slp_attribute_changes_fingerprint_not_code():
    """``slp-enabled`` is hashed into the function fingerprint (so
    ``slp-vectorizer`` counts as an active phase) but no backend reads
    it: the machine code is the same with or without it."""
    marked = compile_source(FLOAT_LANES_SOURCE)
    PassManager().run(marked, STANDARD_LEVELS["-O3"])
    plain = compile_source(FLOAT_LANES_SOURCE)
    PassManager().run(plain, STANDARD_LEVELS["-O3"])
    assert "slp-enabled" in marked.functions["main"].attributes
    for function in plain.defined_functions():
        function.attributes.discard("slp-enabled")
    assert function_fingerprint(marked.functions["main"]) != \
        function_fingerprint(plain.functions["main"])
    for target in TARGETS:
        assert program_digest(compile_module(marked, target)) == \
            program_digest(compile_module(plain, target)), target
