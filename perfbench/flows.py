"""The benchmark's three workloads.

Each workload object is built from the workload seed (its set-up), then
``run(clock)`` does the timed work with one client: a single process,
serial evaluation, one call at a time, timing each part of it with the
:class:`probe.ReferenceClock`.  After the timed interval
``outcomes.check()`` compares every evaluated point with the interpreter
reference of :mod:`reference`, and ``quality()`` returns the generated
code's exact numbers.
"""

import math
import shutil
import tempfile
import zlib

import numpy as np

from reference import load_expected, observable
from repro.baselines import STANDARD_LEVELS
from repro.engine import EvaluationEngine
from repro.pipeline import MLComp
from repro.profiling import extraction_sequences
from repro.rl import TrainingConfig
from repro.sim import Platform
from repro.workloads import load_suite, suite_names

O0 = ()
O2 = tuple(STANDARD_LEVELS["-O2"])

#: Workloads whose -O2 output differs from the interpreter reference at
#: this version of the compiler: ``ipsccp`` is the first -O2 phase after
#: which their interpreted output changes.  They stay out of
#: ``corpus-cold`` so that it has no failing point.
KNOWN_MISCOMPILED = {("multi", "dsp_chain"), ("multi", "fixed_geometry")}


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def opt_ratios(pairs):
    """Geomean optimized/-O0 time, energy, cycles and code size over
    ``[(optimized EvalResult, -O0 EvalResult), ...]``."""
    def ratio(metric):
        return geomean(metric(opt) / metric(base) for opt, base in pairs)

    return {
        "time": ratio(lambda r: r.metrics()["exec_time_us"]),
        "energy": ratio(lambda r: r.metrics()["energy_uj"]),
        "cycles": ratio(lambda r: r.cycles),
        "size": ratio(lambda r: r.code_size),
    }


class Outcomes:
    """Evaluated points of one run, checked against the reference."""

    def __init__(self):
        self.points = []  # (workload, target, sequence, result or error)

    def add(self, workload, target, sequence, outcome):
        self.points.append((workload, target, tuple(sequence), outcome))

    def check(self):
        """``(attempted, [(workload, sequence, target, reason)])``."""
        expected = load_expected({point[0] for point in self.points})
        failures = []
        for workload, target, sequence, outcome in self.points:
            if isinstance(outcome, BaseException):
                reason = f"raised {outcome!r}"
            elif outcome.failed:
                reason = f"EvalFailure[{outcome.kind}] {outcome.error}"
            elif observable(outcome.return_value, outcome.output) != \
                    expected[(workload.suite, workload.name)]:
                reason = "output or return value differs from reference"
            else:
                continue
            failures.append((f"{workload.suite}/{workload.name}",
                             list(sequence), target, reason))
        return len(self.points), failures


class Flow:
    """Common shape of a workload: ``run(clock)`` returns the number of
    points it evaluated, timing each part of the work with
    ``clock.part(name)``."""

    def __init__(self):
        self.outcomes = Outcomes()

    def collect(self):
        """Add points checked after the timed interval."""

    def close(self):
        """Release what the set-up created."""


class CorpusCold(Flow):
    """Every bundled workload x {x86, riscv} x {-O0, -O2}, evaluated one
    ``EvaluationEngine.evaluate`` call at a time with the cache off.
    The seed shuffles the order of the points."""

    name = "corpus-cold"

    def __init__(self, seed):
        super().__init__()
        workloads = [workload for suite in suite_names()
                     for workload in load_suite(suite)
                     if (suite, workload.name) not in KNOWN_MISCOMPILED]
        points = [(workload, target, sequence)
                  for workload in workloads
                  for target in ("x86", "riscv")
                  for sequence in (O0, O2)]
        order = np.random.default_rng(seed).permutation(len(points))
        self.points = [points[index] for index in order]
        self.engines = {target: EvaluationEngine(Platform(target),
                                                 cache=False)
                        for target in ("x86", "riscv")}

    def run(self, clock):
        for workload, target, sequence in self.points:
            level = "O2" if sequence else "O0"
            with clock.part(
                    f"{workload.suite}/{workload.name}/{target}/{level}"):
                try:
                    outcome = self.engines[target].evaluate(workload,
                                                            sequence)
                except Exception as error:  # noqa: BLE001 - failed point
                    outcome = error
            self.outcomes.add(workload, target, sequence, outcome)
        return len(self.points)

    def quality(self):
        results = {(w.suite, w.name, target, sequence): outcome
                   for w, target, sequence, outcome in self.outcomes.points}
        pairs = [(results[key[:3] + (O2,)], results[key])
                 for key in results if key[3] == O0]
        return opt_ratios(pairs)


class ExtractFarm(Flow):
    """MLComp step 1 on riscv: the 22 beebs workloads, each under its
    own ``extraction_sequences(12, ...)`` drawn from the seed, one
    ``evaluate_batch`` per workload on one fresh compile-farm
    directory."""

    name = "extract-farm"
    n_sequences = 12

    def __init__(self, seed, scratch_dir):
        super().__init__()
        # One draw per workload: the total work then averages over 22
        # independent sequence sets instead of one shared set.
        self.batches = [
            (workload, extraction_sequences(
                self.n_sequences,
                seed=zlib.crc32(f"{seed}:{workload.name}".encode())))
            for workload in load_suite("beebs")]
        self.farm_dir = tempfile.mkdtemp(prefix="farm-", dir=scratch_dir)
        self.engine = EvaluationEngine(Platform("riscv"),
                                       farm_dir=self.farm_dir)
        self.engines = {"riscv": self.engine}

    def run(self, clock):
        for workload, sequences in self.batches:
            with clock.part(workload.name):
                results = self.engine.evaluate_batch(
                    [(workload, sequence) for sequence in sequences],
                    on_error="collect")
            for sequence, outcome in zip(sequences, results):
                self.outcomes.add(workload, "riscv", sequence, outcome)
        return len(self.outcomes.points)

    def quality(self):
        results = {(w.name, sequence): outcome
                   for w, _, sequence, outcome in self.outcomes.points}
        return opt_ratios([(results[(w.name, O2)], results[(w.name, O0)])
                           for w, _ in self.batches])

    def close(self):
        shutil.rmtree(self.farm_dir, ignore_errors=True)


class MLCompFlow(Flow):
    """The four MLComp steps through ``repro.pipeline.MLComp`` on the
    first 8 riscv beebs workloads.  Extraction sequences and the PE
    train/test split are fixed (their draw moves PE model-search time
    several-fold); the seed drives policy training."""

    name = "mlcomp-flow"
    n_workloads = 8
    n_sequences = 8
    data_seed = 0

    def __init__(self, seed):
        super().__init__()
        self.seed = seed
        self.mlcomp = MLComp(target="riscv", eval_mode="serial")
        self.mlcomp.workloads = self.mlcomp.workloads[:self.n_workloads]
        self.engines = {"riscv": self.mlcomp.engine}
        self.sequences = extraction_sequences(self.n_sequences,
                                              seed=self.data_seed)
        self.deployment = []  # (workload, PSS result, -O0 result)

    def run(self, clock):
        mlcomp = self.mlcomp
        with clock.part("extract"):
            mlcomp.extract_data(n_sequences=self.n_sequences,
                                seed=self.data_seed)
        with clock.part("pe"):
            mlcomp.train_estimator(mode="fast", seed=self.data_seed)
        with clock.part("rl"):
            mlcomp.train_policy(config=TrainingConfig(
                num_episodes=96, batch_size=6, max_sequence_length=16,
                seed=self.seed))
        for workload in mlcomp.workloads:
            with clock.part(f"deploy/{workload.name}"):
                try:
                    pss = mlcomp.evaluate_workload(workload)
                    base = mlcomp.evaluate_workload(workload, sequence=O0)
                except Exception as error:  # noqa: BLE001 - failed point
                    self.outcomes.add(workload, "riscv", ("pss",), error)
                    continue
            self.deployment.append((workload, pss, base))
        return (len(self.sequences) + 2) * len(mlcomp.workloads)

    def collect(self):
        """Extraction points, served from the engine's cache, and the
        deployment checks.  Call after reading engine statistics."""
        engine = self.mlcomp.engine
        for workload in self.mlcomp.workloads:
            for sequence in self.sequences:
                try:
                    outcome = engine.evaluate(workload, sequence)
                except Exception as error:  # noqa: BLE001 - failed point
                    outcome = error
                self.outcomes.add(workload, "riscv", sequence, outcome)
        for workload, pss, base in self.deployment:
            self.outcomes.add(workload, "riscv", ("pss",), pss)
            self.outcomes.add(workload, "riscv", O0, base)

    def quality(self):
        ratios = opt_ratios([(pss, base)
                             for _, pss, base in self.deployment])
        report = self.mlcomp.estimator.report
        ratios["pe_mape"] = float(np.mean(
            [report[metric]["mape"] for metric in report]))
        return ratios


def build(name, seed, scratch_dir):
    if name == CorpusCold.name:
        return CorpusCold(seed)
    if name == ExtractFarm.name:
        return ExtractFarm(seed, scratch_dir)
    if name == MLCompFlow.name:
        return MLCompFlow(seed)
    raise KeyError(name)
