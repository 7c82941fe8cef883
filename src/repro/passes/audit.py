"""Dynamic analysis-preservation auditor.

The static R004 rule (:mod:`repro.lint`) forces every pass to *declare*
a preservation contract; this module checks the declarations are
*true*.  In audit mode (``PassManager(audit_analyses=True)``) the
manager, after every phase, recomputes each analysis still cached for
each function from scratch and diffs it against the cache.  Any
divergence means a pass either claimed to preserve an analysis it
broke, or mutated a function without reporting the change — both are
silent-miscompile factories: the next pass plans its transform against
a dominator tree / loop nest / trip count for a CFG that no longer
exists.

The analog in LLVM is ``-verify-analysis-invalidation`` (expensive
checks); like there, audit mode is far too slow for production and runs
in a dedicated test tier (``tests/passes/test_preservation_audit.py``)
over an expression-fuzz corpus crossed with every registered phase.

Comparison semantics per analysis:

``domtree``
    Recompute and compare RPO sequence and immediate-dominator map by
    block identity (a valid cached tree is a pure function of the
    block list, so equality is exact, not merely isomorphic).
``loops``
    Recompute and compare the canonical forest shape: per loop, the
    header, the member-block set, and the parent header, all by block
    identity.
``loopivs`` / ``loopcanon``
    Memoized query caches pinned to ``Loop`` objects.  Each memo entry
    whose pinned loop is still reachable — i.e. the identical ``Loop``
    object is in the cached ``loops`` forest, so a later query can hit
    the memo — is re-asked against the current IR and compared
    structurally.  Entries pinned to unreachable loops are skipped:
    they can never be served again, so staleness is unobservable.
    (``loopcanon``'s formation-failed marks are also skipped — they are
    pessimistic only, and re-checking them would require re-running the
    mutating formation pass.)
``fingerprint``
    Recompute and compare.  A stale fingerprint on an allegedly
    untouched function convicts a pass of mutating code it never
    reported changing.
``static_partial``
    Recompute the function's static-feature partial against fresh
    analyses and compare (checked after ``fingerprint``, which names an
    unreported mutation first).
"""

from repro.errors import VerificationError
from repro.ir.cfg import DominatorTree, LoopInfo
from repro.passes.analysis import AnalysisManager


class AnalysisPreservationError(VerificationError):
    """A pass's ``preserved_analyses`` claim (or unreported mutation)
    left a provably stale analysis in the cache."""


def _fail(phase, function, analysis, detail):
    raise AnalysisPreservationError(
        f"phase {phase!r} left a stale {analysis!r} analysis cached for "
        f"function {function.name!r}: {detail} — its preserved_analyses "
        f"claim (or an unreported mutation) is wrong")


def _same(a, b):
    """Structural equality that treats IR objects as identity-compared
    leaves (a preserved analysis must keep answering with the *same*
    blocks/instructions, not merely isomorphic ones)."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float, str, bytes, frozenset)):
        return a == b
    if type(a).__module__.startswith("repro.ir"):
        return False  # distinct IR objects, already not identical
    if hasattr(a, "__dict__"):
        mine, theirs = vars(a), vars(b)
        return mine.keys() == theirs.keys() and \
            all(_same(mine[k], theirs[k]) for k in mine)
    return a == b


def _check_domtree(phase, function, cached, fresh):
    if [id(b) for b in cached.rpo] != [id(b) for b in fresh.rpo]:
        _fail(phase, function, "domtree",
              "cached reverse-postorder no longer matches the CFG")
    for block in fresh.rpo:
        if cached.idom.get(block) is not fresh.idom.get(block):
            _fail(phase, function, "domtree",
                  f"stale immediate dominator for block {block.name!r}")


def _forest_shape(info):
    shape = set()
    for loop in info.loops:
        parent = id(loop.parent.header) if loop.parent is not None else None
        shape.add((id(loop.header),
                   frozenset(id(b) for b in loop.blocks), parent))
    return shape


def _check_loops(phase, function, cached, fresh):
    if _forest_shape(cached) != _forest_shape(fresh):
        _fail(phase, function, "loops",
              "cached loop forest no longer matches the CFG")


def _check_loopivs(phase, function, memo, pinned, fresh_dom):
    for (query, _, _, max_iterations), (loop, preheader, cached) in \
            memo._memo.items():
        if id(loop) not in pinned or preheader.parent is not function:
            continue
        fresh = memo.compute(query, loop, preheader, fresh_dom,
                             max_iterations)
        if not _same(cached, fresh):
            _fail(phase, function, "loopivs",
                  f"stale {query!r} memo for the loop at "
                  f"{loop.header.name!r}")


def _check_loopcanon(phase, function, memo, pinned):
    from repro.passes.loop_canon import loop_is_lcssa, loop_is_simplified

    for loop, verdict in memo._simplified.values():
        if id(loop) in pinned and loop_is_simplified(loop) != verdict:
            _fail(phase, function, "loopcanon",
                  f"stale simplified-form verdict for the loop at "
                  f"{loop.header.name!r}")
    for loop, verdict in memo._lcssa.values():
        if id(loop) in pinned and loop_is_lcssa(loop) != verdict:
            _fail(phase, function, "loopcanon",
                  f"stale LCSSA verdict for the loop at "
                  f"{loop.header.name!r}")


def _audit_function(phase, function, cache):
    fresh_dom = None
    if "domtree" in cache or "loops" in cache:
        fresh_dom = DominatorTree(function)
    if "domtree" in cache:
        _check_domtree(phase, function, cache["domtree"], fresh_dom)
    pinned = frozenset()
    if "loops" in cache:
        cached_loops = cache["loops"]
        _check_loops(phase, function, cached_loops,
                     LoopInfo(function, domtree=fresh_dom))
        pinned = frozenset(id(loop) for loop in cached_loops.loops)
    if "loopivs" in cache:
        if fresh_dom is None:
            fresh_dom = DominatorTree(function)
        _check_loopivs(phase, function, cache["loopivs"], pinned,
                       fresh_dom)
    if "loopcanon" in cache:
        _check_loopcanon(phase, function, cache["loopcanon"], pinned)
    if "fingerprint" in cache:
        from repro.ir.printer import function_fingerprint
        if function_fingerprint(function) != cache["fingerprint"]:
            _fail(phase, function, "fingerprint",
                  "content hash changed without the function being "
                  "reported as modified")
    if "static_partial" in cache:
        from repro.features.static_features import _function_partial
        fresh = _function_partial(function, AnalysisManager())
        if fresh != cache["static_partial"]:
            _fail(phase, function, "static_partial",
                  "static features changed without the function being "
                  "reported as modified")


def audit_preservation(module, am, phase):
    """Recompute every analysis still cached on ``am`` for ``module``'s
    functions and raise :class:`AnalysisPreservationError` on the first
    divergence.  Reads the cache without populating it: the audited run
    keeps the exact warm/cold behaviour it would have had."""
    for function, cache in am.entries():
        if not cache or function.is_declaration():
            continue
        if function.module is not module:
            continue
        _audit_function(phase, function, dict(cache))
