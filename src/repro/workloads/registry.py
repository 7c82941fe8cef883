"""Workload registry: named suites of mini-C programs.

Each program is parsed once per process into a *template*, and every
module handed out is a clone of it.  Alongside the template the registry
keeps the template's analyses as plain data (no CFG objects): the module
digest, the per-function fingerprints and the per-function static-feature
partials.  A clone prints and fingerprints identically to its template,
so these are the clone's analyses too; :func:`module_from_source` seeds
them into the clone's :class:`~repro.passes.analysis.AnalysisManager`,
and the first consumer of each (the point's input fingerprint, the
static features of a function no phase changed) reads them instead of
recomputing.  They are computed on first use, not at import, and live
only as long as the process.
"""

from functools import cached_property

from repro.lang import compile_source
from repro.passes.analysis import AnalysisManager
from repro.workloads.beebs import BEEBS_SOURCES
from repro.workloads.earlyexit import EARLYEXIT_SOURCES
from repro.workloads.multifn import MULTIFN_SOURCES
from repro.workloads.parsec import PARSEC_SOURCES

#: :class:`Template` objects keyed by ``(name, source)``.  The frontend
#: is deterministic and programs are compiled thousands of times per
#: search, so :func:`module_from_source` parses once and hands out
#: faithful clones (identical names and fingerprints) afterwards.
_TEMPLATES = {}


class Template:
    """One program's parsed module and its content analyses.

    ``module`` is the template every clone copies; never mutate it.
    The analyses are plain data: ``digest`` is the template's
    :func:`~repro.ir.printer.module_fingerprint`, ``fingerprints`` maps
    each function name to its
    :func:`~repro.ir.printer.function_fingerprint`, and ``partials``
    maps each defined function's name to its static-feature partial,
    computed on first use so that a process that only builds cache keys
    never pays for them.  Seeded values are shared by every clone and
    must never be mutated; passes drop them from a clone's manager like
    any other content analysis when they change a function.
    """

    def __init__(self, name, source):
        from repro.ir.printer import module_fingerprint

        self.module = compile_source(source, module_name=name)
        am = AnalysisManager()
        self.digest = module_fingerprint(self.module, am)
        self.fingerprints = {function.name: am.fingerprint(function)
                             for function in self.module.functions.values()}

    @cached_property
    def partials(self):
        # A throwaway manager: the loop and dominator analyses the
        # partials read are not kept.
        am = AnalysisManager()
        return {function.name: am.get("static_partial", function)
                for function in self.module.defined_functions()}

    def seed(self, module, am):
        """Seed a clone's manager with the template's fingerprints,
        static partials and module digest."""
        for name, function in module.functions.items():
            am.put("fingerprint", function, self.fingerprints[name])
            partial = self.partials.get(name)
            if partial is not None:
                am.put("static_partial", function, partial)
        # After the per-function puts, which clear the module memo.
        am.store_module_fingerprint(module, self.digest)


def template(name, source):
    """The program's :class:`Template` (the frontend and the template's
    fingerprints run on the first call per ``(name, source)`` in a
    process)."""
    key = (name, source)
    entry = _TEMPLATES.get(key)
    if entry is None:
        entry = _TEMPLATES[key] = Template(name, source)
    return entry


def module_from_source(name, source, am=None):
    """Fresh IR module of a mini-C program.

    Clones the cached template (``repro.passes.cloning.clone_module``),
    which prints and fingerprints identically and is 3-4x cheaper than
    re-parsing (the 41 corpus programs: 0.03 s against 0.10-0.14 s on
    a 2-vCPU host).  Each clone owns its values (constants included),
    so a dropped module is collected and the template never grows.

    With ``am`` (a manager that holds nothing of the clone yet), the
    clone's fingerprints, module digest and static partials are seeded
    into it from the program's :class:`Template`, so they are never
    recomputed for a function no phase changes.
    """
    from repro.passes.cloning import clone_module

    entry = template(name, source)
    module = clone_module(entry.module)
    if am is not None:
        entry.seed(module, am)
    return module


class Workload:
    """A named benchmark program."""

    def __init__(self, name, suite, source):
        self.name = name
        self.suite = suite
        self.source = source

    def compile(self, am=None):
        """Fresh IR module (workloads are reusable; modules are not);
        see :func:`module_from_source`, which also says what ``am``
        receives."""
        return module_from_source(self.name, self.source, am=am)

    def template(self):
        """The shared template behind :meth:`compile`; never mutate
        it."""
        return template(self.name, self.source).module

    def __repr__(self):
        return f"<Workload {self.suite}/{self.name}>"


_SUITES = {
    "parsec": PARSEC_SOURCES,
    "beebs": BEEBS_SOURCES,
    "multi": MULTIFN_SOURCES,
    "earlyexit": EARLYEXIT_SOURCES,
}


def suite_names():
    return sorted(_SUITES)


def load_suite(suite):
    """All workloads of a suite, name-sorted."""
    try:
        sources = _SUITES[suite]
    except KeyError:
        raise KeyError(f"unknown suite {suite!r}; "
                       f"available: {suite_names()}") from None
    return [Workload(name, suite, source)
            for name, source in sorted(sources.items())]


def load_workload(suite, name):
    return Workload(name, suite, _SUITES[suite][name])


def default_suite_for(target):
    """The paper's pairing: PARSEC on x86, BEEBS on RISC-V."""
    return "parsec" if target == "x86" else "beebs"
