"""End-to-end SQL benchmark of the MM-DBMS.

Usage::

    python3 sqlbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed run: the workload's end-to-end metrics, with
the program at its defaults.  ``--trace 1`` is the separate traced run:
the per-layer metrics, from spans recorded around each layer's public
entry points (see ``tracing.py``); its spans are written to
``.bench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
whose answers disagree with the sqlite3 oracle reports
``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
if not (SOURCE / "repro").is_dir():
    # Never fall back to an installed copy: measure this checkout or none.
    sys.exit(f"sqlbench: no program source at {SOURCE}")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SOURCE))

# The workloads define their own configuration; settings inherited from
# the environment would silently change what is measured.
for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]

from workloads import WORKLOADS, measure  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        from tracing import traced_run

        session, metrics = traced_run(args.workload, args.seed, args.seconds)
    else:
        session, metrics = measure(args.workload, args.seed, args.seconds)
    for message in session.errors:
        print(f"error: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        raw = session.raw_metrics.get(name)
        wall = f"   (wall clock {raw[0]:.6f})" if raw and raw[0] != value else ""
        print(f"{name:40s} {value:14.6f} {unit}{wall}")
    if session.raw_metrics:
        print(f"host clock scale {session.clock.scale():.4f} "
              f"({len(session.clock.samples)} samples)")
    correct = session.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
