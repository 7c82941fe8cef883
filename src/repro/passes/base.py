"""Pass infrastructure: Pass base classes, the registry of optimization
phases (paper Table VI), and the PassManager that applies sequences.

The execution layer follows LLVM's new pass manager: passes pull
analyses (dominators, loops, IV/trip counts, fingerprints) from an
:class:`repro.passes.analysis.AnalysisManager` instead of rebuilding
them, declare which analyses they preserve, and report *which functions*
they changed so verification and fingerprinting run function-granular.
"""

from repro.ir import verify_function
from repro.ir.printer import module_fingerprint
from repro.passes.analysis import AnalysisManager, PRESERVE_NONE

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

    def run_on_function(self, function, am):
        raise NotImplementedError


class PassManager:
    """Applies a named sequence of phases to a module.

    With ``verify=True`` (tests construct it this way; the constructor
    default is ``verify=False``) every function a phase changed gets
    the full :func:`repro.ir.verify_function` after that phase, so a
    miscompiling pass is caught at its own doorstep.

    One :class:`AnalysisManager` is shared across the sequence (the
    caller's ``am``, or a fresh one per call): passes reuse cached
    dominator trees / loop nests, and verification plus fingerprinting
    run only on the functions each phase actually modified.

    ``audit_analyses=True`` recomputes every still-cached analysis from
    scratch after each phase and raises
    :class:`repro.passes.audit.AnalysisPreservationError` on any
    divergence — the dynamic check that ``preserved_analyses``
    declarations (statically mandated by replint rule R004) are true.
    Far too slow for production; a dedicated test tier runs it across
    the whole phase registry.
    """

    def __init__(self, verify=False, audit_analyses=False):
        self.verify = verify
        self.audit_analyses = audit_analyses

    def run(self, module, phase_names, am=None):
        """Run ``phase_names`` in order; returns the list of per-phase
        "changed" booleans: whether each pass reported a change."""
        return self._run(module, phase_names, am, fingerprints=False)

    def run_with_fingerprints(self, module, phase_names, am=None):
        """Like :meth:`run` but detects activity via module fingerprints.

        Some phases report "changed" for cosmetic updates; a fingerprint
        after canonical renaming is the ground truth of activity (paper
        §III-D).  The PSS deployment loop and the RL environment apply
        phases through their own ``create_pass``/``module_fingerprint``
        loop; this method is the plain reference the tests check their
        activity signals against.
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
            phase = create_pass(name)
            changed_functions = phase.run_with_changes(module, am)
            if self.verify:
                for function in changed_functions:
                    if not function.is_declaration() and \
                            function.module is module:
                        verify_function(function, am)
            if self.audit_analyses:
                from repro.passes.audit import audit_preservation
                audit_preservation(module, am, name)
            if fingerprints:
                new_fingerprint = module_fingerprint(module, am)
                activity.append(new_fingerprint != fingerprint)
                fingerprint = new_fingerprint
            else:
                activity.append(bool(changed_functions))
        return activity
