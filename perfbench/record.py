"""Regenerate ``references.json``: the digest of every catalogued unit.

Usage (from the repository root)::

    python3 perfbench/record.py

Runs every unit of every catalogue index below ``CATALOGUE_SIZE``, at
each scale, under the c engine, and stores its simulated-result
digest.  Rerun it only when a change is meant to alter simulated
results; a speed change must leave the file as it is.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCES, prepare_environment


def main() -> int:
    prepare_environment()
    from workloads import CATALOGUE_SIZE, SCALES, WORKLOADS

    from repro.engine import effective_engine

    if effective_engine() != "c":
        raise SystemExit("perfbench: references must be recorded under the c engine")
    references = {}
    for scale_name, scale in SCALES.items():
        for workload in WORKLOADS.values():
            digests = references.setdefault(scale_name, {}).setdefault(workload.name, {})
            for index in range(CATALOGUE_SIZE):
                for unit_id, params in workload.units(scale, index):
                    result = workload.run(unit_id, params, scale)
                    if result.fallback:
                        raise SystemExit(f"perfbench: {unit_id} fell back off the c engine")
                    digests[unit_id] = result.digest
            print(f"{scale_name} {workload.name}: {len(digests)} units", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
