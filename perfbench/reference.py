"""Reference outputs of the workload corpus, from the IR interpreter.

Each workload's unoptimized module is interpreted by
``repro.ir.run_module``; neither the backend nor the simulator under
test takes part.  ``expected.json`` stores each result next to a digest
of the source it came from.  After a workload's source changes,
regenerate it from the repository root with::

    PYTHONPATH=src python3 perfbench/reference.py
"""

import hashlib
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def source_digest(source):
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def observable(return_value, output):
    """Canonical text of a run's observable behaviour; ``-0.0`` and NaN
    compare exactly."""
    return json.dumps([return_value,
                       [[kind, value] for kind, value in output]])


def load_expected(workloads):
    """``{(suite, name): observable}`` for ``workloads``; raises
    ``SystemExit`` when an entry is missing or was made from another
    source."""
    with open(EXPECTED_PATH) as handle:
        stored = json.load(handle)
    table = {}
    for workload in workloads:
        key = f"{workload.suite}/{workload.name}"
        entry = stored.get(key)
        if entry is None or \
                entry["source_sha256"] != source_digest(workload.source):
            raise SystemExit(
                f"perfbench: the expected output of {key} is missing or "
                f"stale; regenerate expected.json (see {__file__})")
        table[(workload.suite, workload.name)] = entry["observable"]
    return table


def main():
    from repro.ir import run_module
    from repro.lang import compile_source
    from repro.workloads import load_suite, suite_names

    stored = {}
    for suite in suite_names():
        for workload in load_suite(suite):
            result = run_module(compile_source(workload.source,
                                               module_name=workload.name))
            stored[f"{suite}/{workload.name}"] = {
                "source_sha256": source_digest(workload.source),
                "observable": observable(result.return_value,
                                         result.output),
            }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(stored)} reference outputs to {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
