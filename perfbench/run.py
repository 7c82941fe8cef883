"""The repository benchmark: end-to-end and per-layer numbers of the
MLComp reproduction on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload corpus-cold --seed 0 --seconds 42
    python3 perfbench/run.py --workload mlcomp-flow --trace 1

Each unit of work runs in a fresh interpreter (``unit.py``), serially,
one at a time.  Units are repeated until ``--seconds`` is used up (at
least two per run).  The host's cores are shared and its speed drifts,
so every time is CPU time rescaled to reference seconds against a fixed
probe (``probe.py``); ``work_s``, set-up time and memory are medians
over the run.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced units and reports per-layer metrics.  A report is
printed first; the last line of standard output is one JSON object.

The default seed is 0.  Seed 101 is held out: a change tuned on other
seeds confirms its claim on it.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corpus-cold", "extract-farm", "mlcomp-flow")
DEFAULT_SEED = 0
#: Environment variables that change the program being measured.
PINNED_ENV = ("REPRO_SIM_ENGINE", "REPRO_AUDIT_ANALYSES")
#: One thread for the numeric libraries: the one-client loop stays one
#: thread, and CPU time stays the time of the work.
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")
SCRATCH = ".perfbench-out"
#: Processes that only set up, per untraced run; every unit adds one
#: more set-up sample.
SETUP_ONLY_SAMPLES = 5
#: Whole-run budget; the benchmark must exit within 180 seconds.
HARD_LIMIT_S = 165.0


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_environment(root):
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchmarkError(
            "src/repro not found: run from the root of a repository "
            "checkout")
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        raise BenchmarkError(
            f"refusing to run with {', '.join(pinned)} set: it changes "
            f"the program being measured")


def code_digest(root):
    """Digest of the measured program and the benchmark itself."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for directory, dirnames, filenames in os.walk(
                os.path.join(root, top)):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith((".py", ".json")):
                    path = os.path.join(directory, filename)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


class Runner:
    """Starts units of one workload and seed in fresh interpreters."""

    def __init__(self, root, args, scratch, trace_file, deadline):
        self.args = args
        self.scratch = scratch
        self.trace_file = trace_file
        self.deadline = deadline
        self.env = dict(os.environ)
        source = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (source, os.environ.get("PYTHONPATH"))))
        self.env.update(dict.fromkeys(SINGLE_THREAD_ENV, "1"))

    def unit(self, trace=0, setup_only=False):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("out of time before the run finished")
        started = time.monotonic()
        command = [sys.executable, os.path.join(HERE, "unit.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed),
                   "--started", repr(started), "--scratch", self.scratch]
        if setup_only:
            command.append("--setup-only")
        elif trace:
            command += ["--trace-file", self.trace_file]
        try:
            done = subprocess.run(command, env=self.env, timeout=timeout,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(f"unit exceeded {timeout:.0f}s") from error
        if done.returncode != 0 or not done.stdout.strip():
            sys.stderr.write(done.stderr[-4000:])
            raise BenchmarkError(f"unit exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["unit_s"] = time.monotonic() - started
        return result


def run_units(runner, seconds, trace):
    """Set-up samples, then units while another one would end, on
    average, within ``seconds`` (at least two units); with ``trace`` the
    units alternate untraced and traced, starting untraced.  Returns
    ``(units, setup samples)``."""
    began = time.monotonic()
    runner.unit(setup_only=True)  # warm-up: byte-compiles the sources
    setup_samples = [] if trace else [
        runner.unit(setup_only=True)["setup_s"]
        for _ in range(SETUP_ONLY_SAMPLES)]
    units = []
    while True:
        units.append(runner.unit(trace=trace and len(units) % 2))
        elapsed = time.monotonic() - began
        mean_unit = statistics.fmean(u["unit_s"] for u in units)
        if len(units) >= 2 and elapsed + mean_unit / 2 > seconds:
            return units, setup_samples + [
                u["setup_s"] for u in units if not u["trace"]]


# -- checks -------------------------------------------------------------

def signature(unit):
    """What must repeat exactly across units of one seed."""
    signature = {"points": unit["points"], "attempted": unit["attempted"],
                 "failed": len(unit["failures"])}
    signature.update({f"count.{k}": v for k, v in unit["counts"].items()})
    signature.update({f"quality.{k}": repr(v)
                      for k, v in unit["quality"].items()})
    if "layers" in unit:
        signature.update({f"calls.{k}": v[1]
                          for k, v in unit["layers"].items()})
        signature.update({f"counter.{k}": v
                          for k, v in unit["layer_counters"].items()})
    return signature


def differences(first, second):
    return sorted(key for key in first.keys() & second.keys()
                  if first[key] != second[key])


def determinism_flags(units, ledger_path, ledger_key):
    """Names of exact values that differ between units of this run, or
    from earlier runs of the same code, workload and seed."""
    signatures = [signature(unit) for unit in units]
    flags = set()
    for other in signatures[1:]:
        flags.update(differences(signatures[0], other))
    merged = {}
    for entry in signatures:
        merged.update(entry)
    ledger = {}
    if os.path.exists(ledger_path):
        with open(ledger_path) as handle:
            ledger = json.load(handle)
    recorded = ledger.get(ledger_key, {})
    flags.update(differences(recorded, merged))
    recorded.update({k: v for k, v in merged.items() if k not in flags})
    ledger[ledger_key] = recorded
    with open(ledger_path, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    return sorted(flags)


# -- metrics ------------------------------------------------------------

def median(values):
    return statistics.median(list(values))


def work_s(units):
    """Median over the units of the reference seconds of their work."""
    return median(sum(u["parts"].values()) for u in units)


def median_parts(units):
    return {name: median(u["parts"][name] for u in units)
            for name in units[0]["parts"]}


def end_to_end(units, setup_samples):
    quality = units[0]["quality"]
    work = work_s(units)
    return {
        "setup_s": (median(setup_samples), "s"),
        "work_s": (work, "s"),
        "points_per_s": (units[0]["points"] / work, "1/s"),
        "peak_rss_mb": (median(u["peak_rss_mb"] for u in units), "MB"),
        "opt_time_ratio": (quality["time"], "ratio"),
        "opt_energy_ratio": (quality["energy"], "ratio"),
        "opt_size_ratio": (quality["size"], "ratio"),
    }


def rate(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(units):
    traced = [u for u in units if u["trace"]]
    plain = [u for u in units if not u["trace"]]
    first = traced[0]
    metrics = {}
    for name in SPANS + ("other",):
        metrics[f"{name}.self_frac"] = (median(
            u["layers"][name][0] / u["trace_wall_s"] for u in traced),
            "ratio")
        if name != "other":
            metrics[f"{name}.calls"] = (first["layers"][name][1], "count")
    calls = {name: first["layers"][name][1] for name in SPANS}
    counts = first["counts"]
    counters = first["layer_counters"]
    metrics.update({
        "trace.wall_s": (median(u["trace_wall_s"] for u in traced), "s"),
        "trace.overhead_frac": (
            work_s(traced) / work_s(plain) - 1.0, "ratio"),
        "points": (first["points"], "count"),
        "backend.codegen.per_point": (
            calls["backend.codegen"] / max(calls["sim.simulate"], 1),
            "ratio"),
        "sim.instructions": (counters.get("sim.instructions", 0), "count"),
        "sim.tape_cache.hit_rate": (
            rate(counts["tape_hits"], counts["tape_misses"]), "ratio"),
        "engine.compose.hit_rate": (
            rate(counts["compose_hits"], counts["compose_misses"]),
            "ratio"),
        "engine.cache.hit_rate": (
            rate(counts["cache_hits"], counts["cache_misses"]), "ratio"),
        "engine.pe_cache.hit_rate": (
            rate(counts["pe_hits"], counts["pe_misses"]), "ratio"),
        "engine.retries": (counts["retries"], "count"),
        "engine.failures": (counts["failures"], "count"),
        "pe.predict.rows": (counters.get("pe.predict.rows", 0), "count"),
    })
    return metrics


# -- report -------------------------------------------------------------

def print_report(args, units, setup_samples, metrics, failures, flags,
                 trace_file):
    plain = [u for u in units if not u["trace"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}:"
          f" {len(plain)} untraced + {len(units) - len(plain)} traced units"
          + ("" if args.trace else f", {len(setup_samples)} set-up samples"))
    attempted = sum(u["attempted"] for u in units)
    rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    rows.append(("failed_frac", len(failures) / attempted, "ratio"))
    for name in ("wall_s", "cpu_s", "setup_wall_s"):
        rows.append((name, median(u[name] for u in plain), "s"))
    quality = plain[0]["quality"]
    optimizer = "pss" if args.workload == "mlcomp-flow" else "o2"
    for key in ("time", "energy", "cycles", "size"):
        if key in quality:
            rows.append((f"{optimizer}_{key}_ratio", quality[key],
                         "ratio"))
    if "pe_mape" in quality:
        rows.append(("pe_mape", quality["pe_mape"], "ratio"))
    if args.workload == "corpus-cold":
        latencies = sorted(median_parts(plain).values())
        for name, fraction in (("p50", 0.5), ("p90", 0.9)):
            index = round(fraction * len(latencies)) - 1
            rows.append((f"point_ms.{name}", 1e3 * latencies[index], "ms"))
    for name, value, unit in rows:
        print(f"  {name:28s} {value:14.6g} {unit}")
    traced = [u for u in units if u["trace"]]
    if traced:
        print("  layer self time (first traced unit):")
        for name, (seconds, calls) in traced[0]["layers"].items():
            print(f"    {name:20s} {seconds:9.3f} s {calls:8d} calls")
        print(f"  chrome trace: {trace_file}")
    for workload, sequence, target, reason in failures[:20]:
        print(f"  FAILED {workload} {target} {sequence}: {reason}")
    for flag in flags:
        print(f"  NONDETERMINISTIC {flag}: differs between runs of seed "
              f"{args.seed}")


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    started = time.monotonic()
    try:
        check_environment(root)
        scratch = os.path.join(root, SCRATCH)
        os.makedirs(scratch, exist_ok=True)
        run_dir = os.path.join(scratch, f"run-{os.getpid()}")
        os.makedirs(run_dir)
        trace_file = os.path.join(
            scratch, f"trace-{args.workload}-seed{args.seed}.json")
        try:
            runner = Runner(root, args, run_dir, trace_file,
                            deadline=started + HARD_LIMIT_S)
            units, setup_samples = run_units(runner, args.seconds,
                                             args.trace)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        failures = [tuple(f) for u in units for f in u["failures"]]
        flags = determinism_flags(
            units, os.path.join(scratch, "ledger.json"),
            f"{code_digest(root)}/{args.workload}/{args.seed}")
        if failures:
            metrics = {}
        elif args.trace:
            metrics = per_layer(units)
        else:
            metrics = end_to_end(units, setup_samples)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print_report(args, units, setup_samples, metrics, failures, flags,
                 trace_file)
    print(json.dumps({
        "correct": not failures and not flags,
        "attempted": sum(u["attempted"] for u in units),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
