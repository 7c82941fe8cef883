"""Pass infrastructure: Pass base classes, the registry of optimization
phases (paper Table VI), and the PassManager that applies sequences.

The execution layer follows LLVM's new pass manager: passes pull
analyses (dominators, loops, IV/trip counts, fingerprints) from an
:class:`repro.passes.analysis.AnalysisManager` instead of rebuilding
them, declare which analyses they preserve, and report *which functions*
they changed so verification and fingerprinting run function-granular.
"""

import os
import time
from collections import OrderedDict

from repro.ir import verify_function, verify_function_bookkeeping
from repro.ir.printer import module_fingerprint
from repro.passes.analysis import AnalysisManager, PRESERVE_NONE


class VerifiedContents:
    """Bounded LRU set of function fingerprints that passed verification.

    The *content-determined* checks (terminators, operand scope, phis,
    dominance) are pure functions of function content, so a content
    hash that verified once need not re-run them.  The memo changes
    which checks run, never a pass's output, so it cannot make a
    result depend on what the process ran before.  Def-use and
    parent-link bookkeeping is NOT content-determined; memo hits still
    run :func:`repro.ir.verify_function_bookkeeping`.
    """

    def __init__(self, max_entries=16384):
        self.max_entries = max_entries
        self.hits = 0
        self._entries = OrderedDict()

    def __contains__(self, fingerprint):
        if fingerprint in self._entries:
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return True
        return False

    def add(self, fingerprint):
        self._entries[fingerprint] = None
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self):
        self._entries.clear()


#: Process-global verification memo (content-addressed).
VERIFIED_CONTENTS = VerifiedContents()

# name -> factory; populated by @register_pass.
PASS_REGISTRY = {}


def register_pass(name):
    def decorate(cls):
        if name in PASS_REGISTRY:
            raise ValueError(f"duplicate pass name {name!r}")
        PASS_REGISTRY[name] = cls
        cls.pass_name = name
        return cls
    return decorate


def available_phases():
    """Sorted names of all registered optimization phases."""
    return sorted(PASS_REGISTRY)


def create_pass(name):
    try:
        factory = PASS_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown optimization phase {name!r}") from None
    return factory()


class Pass:
    """A module-level transformation.

    Subclasses implement :meth:`run_on_module`; ``run`` returns True when
    the module was changed.  ``preserved_analyses`` names the analyses
    that stay valid across a run that changed code (the fingerprint
    analysis is never preservable).
    """

    pass_name = "<abstract>"
    preserved_analyses = PRESERVE_NONE

    def run(self, module, am=None):
        """Apply the pass; True when the module changed."""
        if am is None:
            am = AnalysisManager()
        return bool(self.run_with_changes(module, am))

    def run_with_changes(self, module, am):
        """Apply the pass; returns the set of changed functions.

        Module passes cannot attribute their edits, so a change
        conservatively reports (and invalidates) every defined function;
        entries of functions removed from the module are dropped.
        """
        if not self.run_on_module(module, am):
            return set()
        am.invalidate_module(module, self.preserved_for(module))
        return set(module.defined_functions())

    def run_on_module(self, module, am):
        raise NotImplementedError

    def preserved_for(self, unit):
        """The preservation set for this run (``unit`` is the module or
        function just transformed).  Passes whose preservation depends on
        what actually happened (e.g. sccp only keeps the CFG analyses
        alive when no branch folded) override this."""
        return self.preserved_analyses

    def __repr__(self):
        return f"<Pass {self.pass_name}>"


class FunctionPass(Pass):
    """A pass applied independently to each defined function; only the
    functions whose ``run_on_function`` returned True are invalidated
    and reported."""

    def run_with_changes(self, module, am):
        changed = set()
        for function in module.defined_functions():
            if self.run_on_function(function, am):
                am.invalidate(function, self.preserved_for(function))
                changed.add(function)
        return changed

    def run_on_function(self, function, am=None):
        raise NotImplementedError


class PhaseStats:
    """Timing and bookkeeping for one executed phase."""

    __slots__ = ("phase", "seconds", "changed_functions",
                 "verified_functions", "analysis_hits",
                 "analysis_misses", "invalidations")

    def __init__(self, phase, seconds, changed_functions,
                 verified_functions, analysis_hits, analysis_misses,
                 invalidations):
        self.phase = phase
        self.seconds = seconds
        self.changed_functions = changed_functions
        self.verified_functions = verified_functions
        self.analysis_hits = analysis_hits
        self.analysis_misses = analysis_misses
        self.invalidations = invalidations

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (f"<PhaseStats {self.phase} {self.seconds * 1e3:.2f}ms "
                f"changed={self.changed_functions} "
                f"hits={self.analysis_hits} misses={self.analysis_misses}>")


class PassManagerStats:
    """Per-phase timing/invalidation statistics of one manager."""

    def __init__(self):
        self.phases = []

    def record(self, entry):
        self.phases.append(entry)

    def total_seconds(self):
        return sum(entry.seconds for entry in self.phases)

    def as_dict(self):
        return {
            "phases": [entry.as_dict() for entry in self.phases],
            "total_seconds": self.total_seconds(),
        }

    def clear(self):
        self.phases = []


class PassManager:
    """Applies a named sequence of phases to a module.

    With ``verify=True`` (tests construct it this way; the constructor
    default is ``verify=False``) the functions a phase changed are
    verified after that phase, so a miscompiling pass is caught at its
    own doorstep.

    One :class:`AnalysisManager` is shared across the sequence (the
    caller's ``am``, or a fresh one per call): passes reuse cached
    dominator trees / loop nests, and verification plus fingerprinting
    run only on the functions each phase actually modified.

    Per-phase timing, changed/verified function counts, and analysis
    hit/miss/invalidation counters are collected in ``self.stats``.

    ``audit_analyses=True`` (or the ``REPRO_AUDIT_ANALYSES=1``
    environment variable, consulted when the argument is left ``None``)
    recomputes every still-cached analysis from scratch after each phase
    and raises :class:`repro.passes.audit.AnalysisPreservationError` on
    any divergence — the dynamic check that ``preserved_analyses``
    declarations (statically mandated by replint rule R004) are true.
    Far too slow for production; a dedicated test tier runs it across
    the whole phase registry.
    """

    def __init__(self, verify=False, audit_analyses=None):
        self.verify = verify
        if audit_analyses is None:
            audit_analyses = os.environ.get("REPRO_AUDIT_ANALYSES") == "1"
        self.audit_analyses = audit_analyses
        self.stats = PassManagerStats()

    def run(self, module, phase_names, am=None):
        """Run ``phase_names`` in order; returns the list of per-phase
        "changed" booleans (the PSS uses this as its activity signal)."""
        return self._run(module, phase_names, am, fingerprints=False)

    def run_with_fingerprints(self, module, phase_names, am=None):
        """Like :meth:`run` but detects activity via module fingerprints.

        Some phases report "changed" for cosmetic updates; fingerprinting
        after canonical renaming is the ground truth the PSS deployment
        loop uses (paper §III-D).
        """
        return self._run(module, phase_names, am, fingerprints=True)

    # -- shared implementation -------------------------------------------
    def _run(self, module, phase_names, am, fingerprints):
        if am is None:
            am = AnalysisManager()
        activity = []
        fingerprint = None
        if fingerprints:
            fingerprint = module_fingerprint(module, am)
        for name in phase_names:
            started = time.perf_counter()
            hits0 = am.stats.hits
            misses0 = am.stats.misses
            inval0 = am.stats.invalidations
            phase = create_pass(name)
            changed_functions = phase.run_with_changes(module, am)
            verified = 0
            if self.verify:
                # Content-addressed verification: a changed function
                # whose (post-change) fingerprint verified before — in
                # this module or any other — is not re-verified.
                for function in changed_functions:
                    if function.is_declaration() or \
                            function.module is not module:
                        continue
                    content = am.fingerprint(function)
                    if content in VERIFIED_CONTENTS:
                        # The content-determined checks are served by
                        # the memo; def-use/parent bookkeeping is NOT
                        # content (a fingerprint-identical function can
                        # carry corrupt use lists), so it is always
                        # re-checked.
                        verify_function_bookkeeping(function)
                    else:
                        verify_function(function, am)
                        verified += 1
                        VERIFIED_CONTENTS.add(content)
            if self.audit_analyses:
                from repro.passes.audit import audit_preservation
                audit_preservation(module, am, name)
            if fingerprints:
                new_fingerprint = module_fingerprint(module, am)
                activity.append(new_fingerprint != fingerprint)
                fingerprint = new_fingerprint
            else:
                activity.append(bool(changed_functions))
            self.stats.record(PhaseStats(
                phase=name,
                seconds=time.perf_counter() - started,
                changed_functions=len(changed_functions),
                verified_functions=verified,
                analysis_hits=am.stats.hits - hits0,
                analysis_misses=am.stats.misses - misses0,
                invalidations=am.stats.invalidations - inval0,
            ))
        return activity
