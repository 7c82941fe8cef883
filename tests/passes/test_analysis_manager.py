"""Unit tests for the analysis manager and the new-PM PassManager:
caching, invalidation, preservation sets, function-granular verification
and fingerprints, and per-phase stats.
"""

import pytest

from repro.ir import DominatorTree, LoopInfo, verify_module
from repro.ir.printer import function_fingerprint, module_fingerprint
from repro.lang import compile_source
from repro.passes import (
    PASS_REGISTRY,
    AnalysisManager,
    PassManager,
    create_pass,
)
from repro.passes.analysis import (
    ALL_ANALYSES,
    CONTENT_ANALYSES,
    PRESERVE_CFG,
    PRESERVE_NONE,
)
from tests.conftest import LOOP_SOURCE, SMOKE_SOURCE


@pytest.fixture
def module():
    return compile_source(SMOKE_SOURCE)


def _main(module):
    return module.get_function("main")


def test_analyses_are_cached(module):
    am = AnalysisManager()
    main = _main(module)
    dom = am.domtree(main)
    loops = am.loops(main)
    fp = am.fingerprint(main)
    assert am.domtree(main) is dom
    assert am.loops(main) is loops
    assert am.fingerprint(main) == fp
    # 3 re-queries + the cached domtree pull inside the loops analysis.
    assert am.stats.hits >= 3
    assert isinstance(dom, DominatorTree)
    assert isinstance(loops, LoopInfo)


def test_loops_reuse_cached_domtree(module):
    am = AnalysisManager()
    main = _main(module)
    misses_before = am.stats.misses
    am.loops(main)
    # loops + the domtree it pulled: exactly two analysis computations.
    assert am.stats.misses == misses_before + 2
    am.domtree(main)
    assert am.stats.misses == misses_before + 2


def test_invalidate_respects_preservation(module):
    am = AnalysisManager()
    main = _main(module)
    dom = am.domtree(main)
    loops = am.loops(main)
    am.fingerprint(main)
    am.invalidate(main, PRESERVE_CFG)
    assert am.cached("domtree", main) is dom
    assert am.cached("loops", main) is loops
    # The fingerprint is never preservable.
    assert am.cached("fingerprint", main) is None
    am.invalidate(main, PRESERVE_NONE)
    assert am.cached("domtree", main) is None
    assert am.cached("loops", main) is None


def test_invalidate_module_drops_removed_functions(module):
    am = AnalysisManager()
    for function in module.defined_functions():
        am.domtree(function)
    helper = module.get_function("helper")
    module.remove_function("helper")
    am.invalidate_module(module, PRESERVE_NONE)
    assert am.cached("domtree", helper) is None
    assert am.cached("domtree", _main(module)) is None


def test_module_fingerprint_with_manager_matches_plain(module):
    am = AnalysisManager()
    assert module_fingerprint(module, am) == module_fingerprint(module)
    # Warm second call: same value, served from the composed-digest
    # memo without touching the per-function entries.
    assert am.cached_module_fingerprint(module) is not None
    misses = am.stats.misses
    assert module_fingerprint(module, am) == module_fingerprint(module)
    assert am.stats.misses == misses
    # Invalidation drops the memo; recomputation composes from the
    # per-function cache again.
    main = _main(module)
    am.invalidate(main)
    assert am.cached_module_fingerprint(module) is None
    assert module_fingerprint(module, am) == module_fingerprint(module)


def test_function_fingerprint_includes_attributes(module):
    main = _main(module)
    before = function_fingerprint(main)
    main.attributes.add("slp-enabled")
    assert function_fingerprint(main) != before


def test_cfg_preserving_pass_keeps_domtree_alive(module):
    am = AnalysisManager()
    main = _main(module)
    create_pass("mem2reg").run(module, am)
    dom = am.cached("domtree", main)
    assert dom is not None  # seeded/kept by the run
    changed = create_pass("instcombine").run(module, am)
    assert changed
    # instcombine preserves the CFG analyses...
    assert am.cached("domtree", main) is dom
    # ...while simplifycfg invalidates them when it changes something.
    if create_pass("simplifycfg").run(module, am):
        assert am.cached("domtree", main) is None


def test_unchanged_function_keeps_all_analyses(module):
    am = AnalysisManager()
    main = _main(module)
    pm = PassManager()
    pm.run(module, ["mem2reg", "dce"], am=am)
    fp = am.cached("fingerprint", main)
    # dce again: nothing to do, nothing invalidated.
    activity = pm.run(module, ["dce"], am=am)
    assert activity == [False]
    assert am.cached("fingerprint", main) is fp


def test_shared_manager_across_sequences(module):
    """One manager can span several PassManager.run calls."""
    am = AnalysisManager()
    pm = PassManager(verify=True)
    pm.run(module, ["mem2reg"], am=am)
    pm.run(module, ["instcombine", "dce"], am=am)
    verify_module(module)
    # Same phases on a fresh module without the shared manager agree.
    other = compile_source(SMOKE_SOURCE)
    PassManager().run(other, ["mem2reg", "instcombine", "dce"])
    assert module_fingerprint(other) == module_fingerprint(module)


def test_every_registered_pass_declares_valid_preservation():
    for name, factory in sorted(PASS_REGISTRY.items()):
        assert factory.preserved_analyses <= ALL_ANALYSES, name


def test_no_pass_preserves_content_analyses(module):
    """The fingerprint and the static-feature partial summarize a
    function's whole content: no pass declares them preserved, and
    ``invalidate`` drops them even when told to keep everything."""
    assert CONTENT_ANALYSES == {"fingerprint", "static_partial"}
    assert CONTENT_ANALYSES <= ALL_ANALYSES
    for name, factory in sorted(PASS_REGISTRY.items()):
        assert not factory.preserved_analyses & CONTENT_ANALYSES, name
    am = AnalysisManager()
    main = _main(module)
    for name in ALL_ANALYSES:
        am.get(name, main)
    am.invalidate(main, ALL_ANALYSES)
    for name in ALL_ANALYSES:
        assert (am.cached(name, main) is None) == \
            (name in CONTENT_ANALYSES), name


def test_loop_pass_reports_preheader_only_mutation():
    """A loop pass that only managed to insert a preheader must still
    report activity (the CFG changed), so stale analyses are dropped."""
    module = compile_source(LOOP_SOURCE)
    PassManager().run(module, ["mem2reg"])
    am = AnalysisManager()
    fp_before = module_fingerprint(module, am)
    activity = PassManager().run(module, ["licm"], am=am)
    fp_after = module_fingerprint(module, am)
    # Either nothing at all happened, or the report matches the
    # fingerprint ground truth.
    assert activity == [fp_after != fp_before]


def test_verify_does_not_corrupt_activity_detection(module):
    """Regression: the verify loop's per-function fingerprint must not
    clobber run_with_fingerprints' module-level activity baseline.  A
    pass reporting a change that is canonically cosmetic must read as
    inactive with and without verification."""
    from repro.passes.base import FunctionPass

    class CosmeticRename(FunctionPass):
        pass_name = "test-cosmetic-rename"

        def run_on_function(self, function, am=None):
            for inst in function.instructions():
                if inst.name:
                    inst.name = f"renamed.{inst.name}"
            return True  # reports a change; fingerprints disagree

    # Sanity: the rename really is canonically invisible.
    target = compile_source(SMOKE_SOURCE)
    am = AnalysisManager()
    PassManager().run(target, ["mem2reg"], am=am)
    fingerprint = module_fingerprint(target, am)
    assert CosmeticRename().run_with_changes(target, am)
    assert module_fingerprint(target, am) == fingerprint

    from repro.passes import base as base_mod

    base_mod.PASS_REGISTRY["test-cosmetic-rename"] = CosmeticRename
    try:
        for verify in (False, True):
            target = compile_source(SMOKE_SOURCE)
            activity = PassManager(verify=verify).run_with_fingerprints(
                target, ["mem2reg", "test-cosmetic-rename"])
            assert activity[1] is False, (verify, activity)
    finally:
        del base_mod.PASS_REGISTRY["test-cosmetic-rename"]
