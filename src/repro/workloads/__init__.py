"""Benchmark workloads: PARSEC-like and BEEBS-like mini-C suites."""

from repro.workloads.registry import (
    Workload,
    default_suite_for,
    load_suite,
    load_workload,
    module_from_source,
    suite_names,
)

__all__ = ["Workload", "load_suite", "load_workload", "suite_names",
           "default_suite_for", "module_from_source"]
