"""A point's payload depends only on (program, sequence, target).

MLComp trains its Performance Estimator on profiled points and its
policy on the estimator's output, so evaluating the same point twice in
one process must give the same payload whatever the process ran before.
The result fingerprint keys the result index and seeds the x86
measurement noise, so a history-dependent fingerprint is a
history-dependent measurement.
"""

from repro.baselines import STANDARD_LEVELS
from repro.engine import EvaluationEngine
from repro.ir import run_module
from repro.ir.printer import module_fingerprint
from repro.lang import compile_source
from repro.passes import PassManager
from repro.sim import Platform
from repro.workloads import load_workload

CALL_HEAVY = """
int square(int x) { return x * x; }
int twice(int x) { return square(x) + square(x); }
int main() {
  int acc = 0;
  for (int i = 0; i < 6; i++) { acc += twice(i); }
  print_int(acc);
  return acc % 251;
}
"""


def _observed(result):
    return (result.result_fingerprint, result.cycles, result.code_size,
            result.output, result.return_value, result.metrics())


def test_repeated_evaluation_is_history_independent():
    engine = EvaluationEngine(Platform("x86"), cache=False)
    workload = load_workload("beebs", "matmult_int")
    runs = [_observed(engine.evaluate(workload, STANDARD_LEVELS["-O2"]))
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_repeated_pipeline_is_history_independent():
    sequence = ["inline", "mem2reg", "ipsccp", "globalopt",
                "instcombine", "simplifycfg", "gvn", "dce"]
    runs = []
    for _ in range(3):
        module = compile_source(CALL_HEAVY)
        activity = PassManager(verify=True).run_with_fingerprints(
            module, sequence)
        runs.append((activity, module_fingerprint(module),
                     run_module(module).observable()))
    assert runs[0] == runs[1] == runs[2]
