"""Print every metric of every workload; fail on a wrong report.

    python3 bench/report.py                  # one invocation per workload
    python3 bench/report.py --seconds 40     # as long as one benchmark run

Runs run.py on each workload, untraced and then traced, and passes its rows
through: the environment, every invocation with its report hash, every
end-to-end metric, the span table and every per-layer metric, each by name
and unit.  Ends with one row of end-to-end metrics per workload.  Exits 1
when any report hash, restriction or claim status is wrong, or when a
traced run finds an expected layer never called.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, WORKLOADS, declared_metrics


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)  # the rows; the last is the JSON result
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics("end_to_end")
    rows = []
    ok = True
    for name in WORKLOADS:
        results = [bench(name, args.seed, args.seconds, trace) for trace in (0, 1)]
        ok &= all(r is not None and r["correct"] and not r["failed"] for r in results)
        metrics = results[0]["metrics"] if results[0] else {}
        cells = [f"{metrics[m]['value']:.4f}" if m in metrics else "-" for m in declared]
        attempted = sum(r["attempted"] for r in results if r)
        failed = sum(r["failed"] for r in results if r)
        rows.append([name, *cells, f"{failed}/{attempted}"])

    header = ["workload", *(f"{m} ({unit})" for m, unit in declared.items()), "failed/attempted"]
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).rjust(w) for cell, w in zip(row, widths)))
    print("all reports correct" if ok else "SOME REPORTS ARE WRONG")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
