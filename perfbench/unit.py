"""One cold unit of one workload, in a fresh interpreter.

``run.py`` starts this script once per unit, so the process-global
caches of ``repro`` (tape LRU, workload templates, transform memos,
static-feature memo) start empty every time.  The unit prints one JSON
object on its last line of standard output.

``setup_s`` is the CPU time of this process from its start to the
first timed call, and each part of the work is timed in CPU time; both
are rescaled to reference seconds by :class:`probe.ReferenceClock`.  In
a traced unit the probes are left out of the spans.
``--started`` is the ``time.monotonic()`` reading taken by the parent
just before it started this process; ``setup_wall_s`` runs from there to
the first timed call.
"""

import argparse
import json
import resource
import sys
import time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-file",
                        help="trace this unit; write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def engine_counts(engines):
    """Reuse and fault counters summed over the unit's engines."""
    counts = dict.fromkeys(
        ("compose_hits", "compose_misses", "cache_hits", "cache_misses",
         "pe_hits", "pe_misses", "retries", "failures"), 0)
    for engine in engines.values():
        stats = engine.stats()
        counts["compose_hits"] += stats["compose"]["hits"]
        counts["compose_misses"] += stats["compose"]["misses"]
        if stats["evaluations"] is not None:
            counts["cache_hits"] += stats["evaluations"]["hits"]
            counts["cache_misses"] += stats["evaluations"]["misses"]
        counts["pe_hits"] += stats["pe"]["hits"]
        counts["pe_misses"] += stats["pe"]["misses"]
        faults = stats["faults"]["local"]
        counts["retries"] += faults.get("retries", 0)
        counts["failures"] += sum(
            faults.get(kind, 0) for kind in
            ("timeouts", "crashes", "transient", "deterministic"))
    return counts


def main(argv=None):
    args = parse_args(argv)
    import flows
    import spans
    from probe import ReferenceClock
    from repro.sim import tape_cache_stats

    flow = flows.build(args.workload, args.seed, args.scratch)
    try:
        setup_cpu_s = time.process_time()
        setup_wall_s = time.monotonic() - args.started
        clock = ReferenceClock()
        recorder = None
        if args.trace_file:
            recorder = spans.Recorder()
            spans.install(recorder)
        result = {"workload": args.workload, "seed": args.seed,
                  "trace": recorder is not None,
                  "setup_s": clock.scale(setup_cpu_s),
                  "setup_wall_s": setup_wall_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        started = time.perf_counter()
        if recorder is not None:
            clock.on_probe = recorder.exclude
            recorder.start()
        with clock:
            points = flow.run(clock)
        if recorder is not None:
            recorder.stop()
        wall_s = time.perf_counter() - started - clock.probe_ns * 1e-9
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        counts = engine_counts(flow.engines)
        tape = tape_cache_stats()
        counts["tape_hits"] = tape["hits"]
        counts["tape_misses"] = tape["misses"]
        flow.collect()
        attempted, failures = flow.outcomes.check()
        result.update({
            "wall_s": wall_s,
            "parts": clock.parts,
            "cpu_s": sum(clock.cpu_parts.values()),
            "points": points,
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failures": failures,
            "counts": counts,
            "quality": {} if failures else flow.quality(),
        })
        if recorder is not None:
            result["trace_wall_s"] = recorder.wall_s
            result["layers"] = recorder.self_times()
            result["layer_counters"] = dict(recorder.counters)
            recorder.write_chrome_trace(args.trace_file)
        print(json.dumps(result))
        return 0
    finally:
        flow.close()


if __name__ == "__main__":
    sys.exit(main())
