"""Analysis manager: cached per-function analyses with preservation sets.

The pass layer follows LLVM's new-pass-manager design: analyses
(``DominatorTree``, ``LoopInfo``, induction-variable/trip-count queries,
the canonical per-function fingerprint and the function's static-feature
partial) are computed on demand, cached per function, and invalidated
when a pass changes the function — except for the analyses the pass
declares *preserved*.

A pass that does not touch the CFG (instcombine, dce, cse, ...) declares
``preserved_analyses = PRESERVE_CFG`` and the dominator tree / loop nest
survive it; a CFG-restructuring pass (simplifycfg, loop-rotate, unroll)
preserves nothing.  The :data:`CONTENT_ANALYSES` (fingerprint and
static-feature partial) are never preserved: they summarize the
function's whole content, so any change must recompute them.

Correctness contract: a pass run against a warm manager must behave
bit-identically to a run against fresh analyses (enforced by
``tests/passes/test_warm_vs_fresh.py`` across the whole registry).
"""

from repro.ir.cfg import DominatorTree, LoopInfo


#: Every analysis the manager knows how to compute.
ALL_ANALYSES = frozenset({"domtree", "loops", "loopivs", "loopcanon",
                          "fingerprint", "static_partial"})

#: Analyses of a function's whole content: no pass can preserve them,
#: and :meth:`AnalysisManager.invalidate` always drops them.
CONTENT_ANALYSES = frozenset({"fingerprint", "static_partial"})

#: Preserved by passes that change instructions but never the CFG.
#: (``loopcanon`` — the canonical-form verdict memo — is NOT implied:
#: a value-only rewrite can fold an LCSSA phi away, so only passes
#: that provably maintain the form declare it preserved.)
PRESERVE_CFG = frozenset({"domtree", "loops"})

#: Preserved by nothing-changed / attribute-only situations.
PRESERVE_NONE = frozenset()


class LoopIVAnalysis:
    """Memoized induction-variable and trip-count queries for one
    function.

    One memo serves the four queries, keyed ``(query, id(loop),
    id(preheader), max_iterations)``.  Entries pin the queried
    ``Loop``/preheader objects so Python id reuse after garbage
    collection cannot alias two distinct loops.
    """

    def __init__(self, function):
        self.function = function
        self._memo = {}  # key -> (loop, preheader, result)

    @staticmethod
    def compute(query, loop, preheader, dom, max_iterations):
        """Answer ``query`` from scratch (the auditor re-asks cached
        entries through here)."""
        from repro.passes import loop_canon, loop_utils
        if query == "iv":
            return loop_utils.find_induction_variable(loop, preheader)
        if query == "trip":
            return loop_utils.constant_trip_count(loop, preheader,
                                                  max_iterations)
        if query == "plan":
            return loop_canon.simulate_exits(loop, preheader, dom,
                                             max_iterations)
        return loop_canon.counted_exit_bound(loop, preheader, dom,
                                             max_iterations)

    def _ask(self, query, loop, preheader, dom, max_iterations):
        key = (query, id(loop), id(preheader), max_iterations)
        hit = self._memo.get(key)
        if hit is None:
            hit = (loop, preheader, self.compute(query, loop, preheader,
                                                 dom, max_iterations))
            self._memo[key] = hit
        return hit[2]

    def induction_variable(self, loop, preheader):
        return self._ask("iv", loop, preheader, None, None)

    def trip_count(self, loop, preheader, max_count=4096):
        """Memoized :func:`repro.passes.loop_utils.constant_trip_count`."""
        return self._ask("trip", loop, preheader, None, max_count)

    def exit_plan(self, loop, preheader, dom, max_iterations=4096):
        """Memoized multi-exit trip simulation (see
        :func:`repro.passes.loop_canon.simulate_exits`)."""
        return self._ask("plan", loop, preheader, dom, max_iterations)

    def counted_bound(self, loop, preheader, dom, max_iterations=4096):
        """Memoized counted-exit trip bound (see
        :func:`repro.passes.loop_canon.counted_exit_bound`)."""
        return self._ask("bound", loop, preheader, dom, max_iterations)


class AnalysisStats:
    """Hit/miss counters for one manager."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def __repr__(self):
        return f"<AnalysisStats hits={self.hits} misses={self.misses}>"


class AnalysisManager:
    """Per-function analysis cache with explicit invalidation.

    Entries are keyed by function identity and hold a strong reference
    to the function, so id reuse cannot alias two functions within the
    manager's lifetime.
    """

    def __init__(self):
        self.stats = AnalysisStats()
        self._entries = {}  # id(function) -> (function, {name: value})
        # Composed module digests (printer.module_fingerprint), dropped
        # whenever any per-function fingerprint changes: exactly as
        # stale as the per-function cache it composes.
        self._module_fps = {}  # id(module) -> (module, digest)

    # -- computation ------------------------------------------------------
    def _compute(self, name, function):
        self.stats.misses += 1
        if name == "domtree":
            return DominatorTree(function)
        if name == "loops":
            return LoopInfo(function, domtree=self.domtree(function))
        if name == "loopivs":
            return LoopIVAnalysis(function)
        if name == "loopcanon":
            from repro.passes.loop_canon import LoopCanonInfo
            return LoopCanonInfo(function)
        if name == "fingerprint":
            from repro.ir.printer import function_fingerprint
            return function_fingerprint(function)
        if name == "static_partial":
            from repro.features.static_features import _function_partial
            return _function_partial(function, self)
        raise KeyError(f"unknown analysis {name!r}")

    def get(self, name, function):
        """The (cached) analysis ``name`` for ``function``."""
        entry = self._entries.get(id(function))
        if entry is None:
            entry = (function, {})
            self._entries[id(function)] = entry
        cache = entry[1]
        if name in cache:
            self.stats.hits += 1
            return cache[name]
        value = self._compute(name, function)
        cache[name] = value
        return value

    def put(self, name, function, value):
        """Seed an analysis computed elsewhere (e.g. the verifier's
        post-change dominator tree)."""
        if name == "fingerprint":
            self._module_fps.clear()
        entry = self._entries.get(id(function))
        if entry is None:
            entry = (function, {})
            self._entries[id(function)] = entry
        entry[1][name] = value

    def cached(self, name, function):
        """The cached value, or None (never computes)."""
        entry = self._entries.get(id(function))
        if entry is None:
            return None
        return entry[1].get(name)

    def entries(self):
        """Snapshot of ``(function, {name: value})`` pairs for every
        cached function (read-only view for the preservation auditor)."""
        return [(function, dict(cache))
                for function, cache in self._entries.values()]

    # -- conveniences -----------------------------------------------------
    def domtree(self, function):
        return self.get("domtree", function)

    def loops(self, function):
        return self.get("loops", function)

    def loopivs(self, function):
        return self.get("loopivs", function)

    def loopcanon(self, function):
        return self.get("loopcanon", function)

    def fingerprint(self, function):
        return self.get("fingerprint", function)

    # -- module fingerprint memo ------------------------------------------
    def cached_module_fingerprint(self, module):
        hit = self._module_fps.get(id(module))
        return hit[1] if hit is not None else None

    def store_module_fingerprint(self, module, digest):
        self._module_fps[id(module)] = (module, digest)

    # -- invalidation -----------------------------------------------------
    def invalidate(self, function, preserved=PRESERVE_NONE):
        """Drop ``function``'s analyses except the ``preserved`` set.

        The :data:`CONTENT_ANALYSES` are never preservable: a changed
        function must re-fingerprint and re-extract its features.
        """
        self._module_fps.clear()
        entry = self._entries.get(id(function))
        if entry is None:
            return
        cache = entry[1]
        for name in list(cache):
            if name not in preserved or name in CONTENT_ANALYSES:
                del cache[name]

    def invalidate_module(self, module, preserved=PRESERVE_NONE):
        """Invalidate every cached function; entries for functions no
        longer in ``module`` (e.g. removed by globaldce) are dropped
        entirely."""
        self._module_fps.clear()
        live = {id(f) for f in module.functions.values()}
        for key in list(self._entries):
            function = self._entries[key][0]
            if key not in live:
                del self._entries[key]
            else:
                self.invalidate(function, preserved)

    def clear(self):
        self._entries.clear()
        self._module_fps.clear()

    def __repr__(self):
        cached = sum(len(e[1]) for e in self._entries.values())
        return (f"<AnalysisManager functions={len(self._entries)} "
                f"analyses={cached}>")
