"""Workload registry: named suites of mini-C programs."""

import hashlib

from repro.lang import compile_source
from repro.workloads.beebs import BEEBS_SOURCES
from repro.workloads.earlyexit import EARLYEXIT_SOURCES
from repro.workloads.multifn import MULTIFN_SOURCES
from repro.workloads.parsec import PARSEC_SOURCES

#: Compiled-module templates keyed by (name, source digest).  The
#: frontend is deterministic and programs are compiled thousands of
#: times per search, so :func:`module_from_source` parses once and hands
#: out faithful clones (identical names and fingerprints) afterwards.
_TEMPLATES = {}


def module_template(name, source):
    """The parsed template behind :func:`module_from_source` (the
    frontend runs on the first call per ``(name, source)``).  Never
    mutate it; a read-only consumer such as the structural fingerprint
    reads it instead of a clone."""
    key = (name, hashlib.sha256(source.encode("utf-8")).hexdigest())
    template = _TEMPLATES.get(key)
    if template is None:
        template = compile_source(source, module_name=name)
        _TEMPLATES[key] = template
    return template


def module_from_source(name, source):
    """Fresh IR module of a mini-C program.

    Clones the cached template (``repro.passes.cloning.clone_module``),
    which prints and fingerprints identically and is 3-4x cheaper than
    re-parsing (the 41 corpus programs: 0.03 s against 0.10-0.14 s on
    a 2-vCPU host).  Each clone owns its values (constants included),
    so a dropped module is collected and the template never grows.
    """
    from repro.passes.cloning import clone_module

    return clone_module(module_template(name, source))


class Workload:
    """A named benchmark program."""

    def __init__(self, name, suite, source):
        self.name = name
        self.suite = suite
        self.source = source

    def compile(self):
        """Fresh IR module (workloads are reusable; modules are not);
        see :func:`module_from_source`."""
        return module_from_source(self.name, self.source)

    def template(self):
        """The shared template behind :meth:`compile`; never mutate
        it."""
        return module_template(self.name, self.source)

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
