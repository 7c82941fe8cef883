"""Command-line interface.

Usage (``python -m repro <command> ...``):

    run        <file.c>                 compile + interpret a program
    ir         <file.c> [--phases ...]  print IR (optionally optimized)
    profile    <file.c> --target x86    compile + simulate + measure
    phases                              list optimization phases
    features   <file.c>                 print the 63 static features
    workloads  [--suite parsec|beebs]   list bundled workloads
    mlcomp     --target riscv ...       run the four-step methodology
"""

import argparse
import sys


def _read_source(path):
    with open(path) as handle:
        return handle.read()


def cmd_run(args):
    from repro.ir import run_module
    from repro.lang import compile_source
    module = compile_source(_read_source(args.file))
    if args.phases:
        from repro.passes import PassManager
        PassManager().run(module, args.phases)
    result = run_module(module)
    for kind, value in result.output:
        print(value)
    print(f"[return: {result.return_value}, steps: {result.steps}]",
          file=sys.stderr)
    return 0


def cmd_ir(args):
    from repro.ir import module_to_text
    from repro.lang import compile_source
    module = compile_source(_read_source(args.file))
    if args.phases:
        from repro.passes import PassManager
        PassManager().run(module, args.phases)
    print(module_to_text(module))
    return 0


def cmd_profile(args):
    from repro.lang import compile_source
    from repro.sim import Platform
    module = compile_source(_read_source(args.file))
    if args.phases:
        from repro.passes import PassManager
        PassManager().run(module, args.phases)
    platform = Platform(args.target)
    measurement = platform.profile(module)
    for metric, value in measurement.metrics().items():
        print(f"{metric:16s} {value:.6g}")
    print(f"{'code_size_bytes':16s} {measurement.code_size}")
    return 0


def cmd_phases(args):
    from repro.passes import available_phases
    for name in available_phases():
        print(name)
    return 0


def cmd_features(args):
    from repro.features import (
        STATIC_FEATURE_NAMES,
        extract_static_features,
    )
    from repro.lang import compile_source
    module = compile_source(_read_source(args.file))
    if args.phases:
        from repro.passes import PassManager
        PassManager().run(module, args.phases)
    features = extract_static_features(module)
    for name, value in zip(STATIC_FEATURE_NAMES, features):
        if value != 0 or args.all:
            print(f"{name:28s} {value:.6g}")
    return 0


def cmd_workloads(args):
    from repro.workloads import load_suite, suite_names
    suites = [args.suite] if args.suite else suite_names()
    for suite in suites:
        for workload in load_suite(suite):
            print(f"{suite}/{workload.name}")
    return 0


def cmd_mlcomp(args):
    from repro.pipeline import MLComp
    from repro.rl import TrainingConfig
    mlcomp = MLComp(target=args.target,
                    cache=not args.no_cache,
                    eval_mode=args.eval_mode,
                    workers=args.workers,
                    farm_dir=args.farm_dir,
                    eval_timeout=args.eval_timeout)
    if args.max_workloads:
        mlcomp.workloads = mlcomp.workloads[:args.max_workloads]
    print(f"[1/4] data extraction ({len(mlcomp.workloads)} workloads)")
    dataset = mlcomp.extract_data(n_sequences=args.sequences)
    print(f"      {len(dataset)} points")
    print("[2/4] PE training")
    estimator = mlcomp.train_estimator(mode=args.pe_mode)
    print(estimator.summary())
    print("[3/4] policy training")
    mlcomp.train_policy(config=TrainingConfig(
        num_episodes=args.episodes, batch_size=args.batch,
        max_sequence_length=args.max_seq))
    print("[4/4] deployment check")
    for workload in mlcomp.workloads[:5]:
        pss = mlcomp.evaluate_workload(workload)
        base = mlcomp.evaluate_workload(workload, sequence=[])
        ratio = (pss.metrics()["exec_time_us"]
                 / base.metrics()["exec_time_us"])
        print(f"  {workload.name:16s} time ratio vs -O0: {ratio:.3f}")
    stats = mlcomp.engine_stats()
    for label, tier in (("evaluations", stats["evaluations"]),
                        ("PE scores", stats["pe"])):
        if tier is None:
            continue
        lookups = tier["hits"] + tier["misses"]
        print(f"[engine] {label}: {tier['hits']} hits / "
              f"{lookups} lookups (hit rate {tier['hit_rate']:.1%}, "
              f"{tier['evictions']} evictions)")
    farm = stats.get("farm")
    if farm is not None:
        local = farm["local"]
        total = farm["aggregate"]
        print(f"[farm] {farm['dir']}: local {local['hits']} hits / "
              f"{local['hits'] + local['misses']} lookups, "
              f"{local['stores']} stores")
        print(f"[farm] cross-process: {total['processes']} processes, "
              f"{total['hits']} hits / "
              f"{total['hits'] + total['misses']} lookups "
              f"(hit rate {total['hit_rate']:.1%}, "
              f"{total['cross_hits']} cross-process hits, "
              f"{total['stores']} stores)")
    counters = stats["faults"]["local"]
    failures = (counters["timeouts"] + counters["crashes"]
                + counters["transient"] + counters["deterministic"])
    print(f"[faults] {failures} failures "
          f"({counters['timeouts']} timeouts, "
          f"{counters['crashes']} crashes, "
          f"{counters['transient']} transient, "
          f"{counters['deterministic']} deterministic), "
          f"{counters['retries']} solo re-runs, "
          f"{counters['pool_respawns']} pool respawns")
    if args.save:
        mlcomp.selector.save(args.save)
        print(f"saved policy to {args.save}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLComp reproduction: compiler + ML toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_phases(p):
        p.add_argument("--phases", nargs="*", default=None,
                       help="optimization phases to apply first")

    p = sub.add_parser("run", help="compile and interpret a program")
    p.add_argument("file")
    add_phases(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ir", help="print (optimized) IR")
    p.add_argument("file")
    add_phases(p)
    p.set_defaults(func=cmd_ir)

    p = sub.add_parser("profile", help="simulate on a target platform")
    p.add_argument("file")
    p.add_argument("--target", default="x86", choices=("x86", "riscv"))
    add_phases(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("phases", help="list optimization phases")
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("features", help="print static features")
    p.add_argument("file")
    p.add_argument("--all", action="store_true",
                   help="include zero-valued features")
    add_phases(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("workloads", help="list bundled workloads")
    p.add_argument("--suite", default=None)
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("mlcomp", help="run the four-step methodology")
    p.add_argument("--target", default="riscv",
                   choices=("x86", "riscv"))
    p.add_argument("--sequences", type=int, default=8)
    p.add_argument("--episodes", type=int, default=24)
    p.add_argument("--batch", type=int, default=6)
    p.add_argument("--max-seq", type=int, default=8)
    p.add_argument("--max-workloads", type=int, default=8)
    p.add_argument("--pe-mode", default="fast",
                   choices=("fast", "heuristic"))
    p.add_argument("--save", default=None,
                   help="write the trained PSS bundle (.npz)")
    # Evaluation-engine knobs.
    p.add_argument("--no-cache", action="store_true",
                   help="disable the evaluation cache and the farm")
    p.add_argument("--eval-mode", default="serial",
                   choices=("serial", "process"),
                   help="executor for cold evaluations")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for the process mode")
    p.add_argument("--farm-dir", default=None,
                   help="persist evaluations to the shared compile "
                        "farm at this directory (cross-process result "
                        "store; process workers compose through it)")
    p.add_argument("--eval-timeout", type=float, default=None,
                   help="wall-clock deadline (seconds) per evaluation "
                        "point; a point past it fails as a timeout, "
                        "and a hung worker is killed")
    p.set_defaults(func=cmd_mlcomp)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
