"""Record perfbench/reference.json: every workload's item records, once.

    python3 perfbench/record_reference.py

Runs each workload's items once at the default seed and writes their
records.  It refuses to overwrite an existing reference: the reference is
recorded from a known-good commit, and no benchmark run rewrites it.
"""

import json
import sys

from worker import REFERENCE, import_program

DEFAULT_SEED = 2024


def main():
    if REFERENCE.exists():
        print(f"{REFERENCE} exists; delete it first to record it again",
              file=sys.stderr)
        return 1
    import_program()
    import workloads

    cfg = workloads.sample_config(DEFAULT_SEED)
    reference = {}
    for workload in workloads.WORKLOADS:
        reference[workload] = {}
        for name, compute, summarise in workloads.setup(workload, cfg):
            reference[workload][name] = summarise(compute())[0]
            print(f"{workload}: {name}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
