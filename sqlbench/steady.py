"""Steadiness check: do repeated runs of the same code agree?

Usage::

    python3 sqlbench/steady.py --runs 10 [--sets 2] [--workloads oltp olap]

Runs every workload ``--runs`` times per set, each run in a fresh
process with its own seed, rotating the workload order from one run to
the next so that drift on the host does not fall on one workload.  For
each end-to-end metric it prints the median, the quartiles and the
spread (inter-quartile range over the median, the rule the bounds in
``BENCHMARK.json`` are set against) next to the metric's bound.  With
``--sets 2`` it also prints how far the second set's median moved from
the first's, and whether the share of failed operations is the same.
Exit code 1 when a spread other than ``setup_s``'s exceeds its bound, a
median moved by more than its bound in the worse direction, or a run
failed or was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values):
    """(q1, median, q3, (q3 - q1) / median), as the bounds are set."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=100,
                        help="first seed; each run takes the next one")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    names = args.workloads
    results = {s: {w: [] for w in names} for s in range(args.sets)}
    seed = args.seed
    ok = True
    for index in range(args.runs * args.sets):
        order = names[index % len(names):] + names[:index % len(names)]
        if index % 2:
            order.reverse()
        for workload in order:
            result = run_once(workload, seed, args.seconds)
            seed += 1
            if not result["correct"]:
                ok = False
            results[index % args.sets][workload].append(result)
            print(f"run {index + 1} {workload} done", file=sys.stderr)

    report = {}
    for workload in names:
        print(f"\n== {workload}")
        print(f"{'metric':22s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}" +
              (f" {'shift':>8s}" if args.sets == 2 else ""))
        shares = {
            Fraction(r["failed"], r["attempted"])
            for s in range(args.sets) for r in results[s][workload]
        }
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = [r["metrics"][name]["value"] for r in results[0][workload]]
            q1, med, q3, width = spread(first)
            line = (f"{name:22s} {q1:12.5g} {med:12.5g} {q3:12.5g} "
                    f"{width:8.3f} {bound:6.2f}")
            flag = ""
            if name != "setup_s" and width > bound:
                flag, ok = " WIDE", False
            elif name != "setup_s" and width > bound / 3:
                flag = " (over a third of the bound)"
            entry = {"median": med, "q1": q1, "q3": q3, "spread": width,
                     "values": first}
            if args.sets == 2:
                second = [r["metrics"][name]["value"]
                          for r in results[1][workload]]
                med2 = statistics.median(second)
                shift = (med2 - med) / med
                worse = shift if metric["better"] == "lower" else -shift
                line += f" {shift:+8.3f}"
                entry.update(median2=med2, shift=shift, values2=second)
                if worse > bound:
                    flag, ok = flag + " MOVED", False
            print(line + flag)
            report.setdefault(workload, {})[name] = entry
        if len(shares) != 1:
            print(f"failed share differs between runs: {shares}")
            ok = False
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
