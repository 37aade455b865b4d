"""Regenerate ``oracle.json``: serial-oracle fingerprints for the default seed.

    python3 perfbench/oracle.py

Runs each fleet workload at its benchmark size under the default seed
through ``SerialFleetExecutor`` -- the reference path every fast fleet
path must match byte for byte -- and stores the SHA-256 of the aggregate
fingerprint and of each class aggregate.  The uniform fleet takes about
ten minutes on one core.  Rerun only when a workload's size or spec, or
the program's simulated semantics, change on purpose.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet import SerialFleetExecutor, run_fleet  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    ORACLE_PATH,
    WORKLOADS,
    FleetWorkload,
    oracle_entry,
)


def main() -> int:
    record = {}
    for name, workload in WORKLOADS.items():
        if not isinstance(workload, FleetWorkload):
            continue
        spec = workload.setup(DEFAULT_SEED)["spec"]
        record[name] = oracle_entry(spec, run_fleet(spec, SerialFleetExecutor()))
        print(f"{name}: {record[name]['fingerprint']}", flush=True)
    ORACLE_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
