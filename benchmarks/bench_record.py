"""Benchmark trajectory recording shared by the guard benchmarks.

Running with ``REPRO_BENCH_RECORD=1`` appends each guard's numbers to a
``BENCH_*.json`` file at the repo root, so the trajectory across changes
is recorded without routine test runs dirtying the working tree.
"""

import json
import os


def record(bench_path, entry):
    """Append ``entry`` to the JSON list at ``bench_path`` (only when
    ``REPRO_BENCH_RECORD`` is set)."""
    if not os.environ.get("REPRO_BENCH_RECORD"):
        return
    try:
        with open(bench_path) as handle:
            history = json.load(handle)
    except (OSError, ValueError):
        history = []
    history.append(entry)
    with open(bench_path, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")
