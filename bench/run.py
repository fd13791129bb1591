"""Benchmark of the ``verify`` CLI, end to end and layer by layer.

    python3 bench/run.py --workload census-10k --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src``.
With ``--trace 0`` the CLI runs in fresh processes, serially, one after the
other until ``--seconds`` would be exceeded (at least once), and the
end-to-end metrics are medians over those invocations.  With ``--trace 1``
it runs once untraced and once under ``tracer.py`` for the per-layer
metrics.  Every report is checked (see ``check``).  Human-readable rows come
first; the last line of stdout is the JSON result.  The metric names and
units are those listed in BENCHMARK.json.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_SOURCE = ROOT / "src" / "leinster" / "cli.py"
SETUP_REPEATS = 3  # per cycle


@dataclass(frozen=True)
class Workload:
    command: str  # verify subcommand
    flag: str  # its size flag
    bound: int  # the size at seed 0, whose report hash is pinned
    low: int  # the smallest size another seed may pick, 2% below
    sha256: str  # pinned hash of the seed-0 JSON report, elapsed_ms zeroed
    spans: tuple[str, ...]  # spans that must record calls when traced

    def bound_for(self, seed: int) -> int:
        if seed == 0:
            return self.bound
        return random.Random(f"{self.command}:{seed}").randint(self.low, self.bound)

    def cli_args(self, bound: int) -> list[str]:
        return [self.command, self.flag, str(bound), "--format", "json"]


WORKLOADS = {
    # structural path at scale: twist enumeration and the product/dedup loop
    "census-10k": Workload(
        "census",
        "--bound",
        10000,
        9800,
        "88d15fd82c0768f6514466133dc46c2c4aa871d2c08aaaf221f0928eda5af6f8",
        (
            "claims.split_metacyclic_specs",
            "claims.census_universe",
            "squarefree.enumerate_squarefree",
            "squarefree.canonical_twist",
            "squarefree.split_metacyclic_normal_orders",
            "analysis.analyze_split_metacyclic",
            "analysis.analyze_descriptor",
            "analysis.analyze_coprime_product",
            "analysis.analyze",
            "groups.normal_subgroups",
            "groups.closure",
            "constructors.build",
            "cli.render",
        ),
    ),
    # engine re-validation: normal_subgroups and closures, no sylow
    "pqrs-2500": Workload(
        "pqrs",
        "--bound",
        2500,
        2450,
        "e05d65bcf442a531c816f9399d552bbd0fe0de05e1b7b5acde10dfdb1efb52fe",
        (
            "claims.analyze_pqrs_order",
            "squarefree.enumerate_squarefree",
            "squarefree.realize",
            "analysis.analyze_descriptor",
            "squarefree.split_metacyclic_normal_orders",
            "analysis.analyze",
            "groups.normal_subgroups",
            "groups.closure",
            "constructors.build",
            "cli.render",
        ),
    ),
    # engine used otherwise: sylow, element orders, quotients; the scanners
    "theorems-300": Workload(
        "theorems",
        "--corpus-bound",
        300,
        294,
        "f1a565b88474f75c91bc5ddbdec96f8a3d62b0bcb99c8660f34d52e650ac9b29",
        (
            "claims.corpus_groups",
            "groups.normal_subgroups",
            "groups.closure",
            "groups.element_order",
            "groups.sylow",
            "groups.quotient",
            "groups.center",
            "groups.derived_subgroup",
            "groups.direct_product",
            "constructors.build",
            "analysis.analyze",
            "numtheory.scan_equation",
            "numtheory.scan_equation_bruteforce",
            "claims.split_metacyclic_specs",
            "claims.census_universe",
            "cli.render",
        ),
    ),
}

# theorem claims whose counts grow with the corpus bound: claim id -> evidence key
CORPUS_COUNTS = {
    "thm-prime-index-abelian": "instances_checked",
    "thm-normal-complement": "instances_checked",
    "thm-cyclic-quotient": "quotients_checked",
}

_ELAPSED = re.compile(rb'"elapsed_ms": \d+')


def canonical(report: bytes) -> bytes:
    """The report with every elapsed_ms zeroed, byte for byte otherwise."""
    return _ELAPSED.sub(b'"elapsed_ms": 0', report)


def report_hash(report: bytes) -> str:
    return hashlib.sha256(canonical(report)).hexdigest()


def pinned_report(name: str) -> dict:
    return json.loads((BENCH / "expected" / f"{name}.json").read_bytes())


def restricted(name: str, bound: int, got: dict) -> dict:
    """The pinned seed-0 report cut down to a lower bound.

    Each claim's result for a smaller bound is a restriction of the pinned
    one.  The counts the pinned report cannot determine (census universe
    size, property-suite instances) must be positive, no larger than pinned,
    and are then taken from ``got``."""
    exp = pinned_report(name)
    claims = exp["claims"]
    got_claims = got["claims"]
    command = WORKLOADS[name].command
    if command == "census":
        ev = claims[0]["evidence"]
        ev["hits"] = [h for h in ev["hits"] if h["order"] <= bound]
        got_size = got_claims[0]["evidence"]["universe_size"] if got_claims else 0
        if 0 < got_size <= ev["universe_size"]:
            ev["universe_size"] = got_size
    elif command == "pqrs":
        ev = claims[0]["evidence"]
        ev["per_order"] = [d for d in ev["per_order"] if d["order"] <= bound]
        ev["orders_checked"] = len(ev["per_order"])
        ev["total_groups"] = sum(d["groups"] for d in ev["per_order"])
    else:
        for claim, got_claim in zip(claims, got_claims):
            key = CORPUS_COUNTS.get(claim["claim_id"])
            got_count = got_claim["evidence"][key] if key else 0
            if key and 0 < got_count <= claim["evidence"][key]:
                claim["evidence"][key] = got_count
    if command in ("census", "pqrs"):
        claims[0]["claim_id"] = f"{command}-{bound}"
        claims[0]["evidence"]["bound"] = bound
    return exp


def check(name: str, bound: int, exit_code: int, report: bytes) -> tuple[str, list[str]]:
    """Hash of the report and the reasons it is wrong (none if it is right).

    At the pinned bound the hash must equal the pinned one; at a lower bound
    the report must equal the pinned report restricted to that bound.  Every
    claim must be verified and the CLI must exit 0."""
    digest = report_hash(report)
    problems = [f"exit code {exit_code}"] if exit_code != 0 else []
    workload = WORKLOADS[name]
    try:
        doc = json.loads(canonical(report))
        problems += [f"{c['claim_id']} is {c['status']}" for c in doc["claims"] if c["status"] != "verified"]
        if bound == workload.bound:
            if digest != workload.sha256:
                problems.append(f"hash differs from the pinned {workload.sha256[:16]}")
        elif doc != restricted(name, bound, doc):
            problems.append(f"report differs from the pinned report restricted to {bound}")
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        problems.append(f"report is malformed: {exc!r}")
    return digest, problems


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes


def invoke(argv: list[str]) -> Invocation:
    """Run ``python3 <argv>`` in the checkout and wait for it to end; the
    CPU time and peak RSS are the child's own, from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, out
    )


def invoke_cli(args: list[str]) -> Invocation:
    return invoke(["-m", "leinster.cli", *args])


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def claim_metric(claim_id: str) -> str:
    """claims.<claim id>.elapsed_s, without a size suffix and with ':' as '.'."""
    return f"claims.{re.sub(r'-[0-9]+$', '', claim_id).replace(':', '.')}.elapsed_s"


def environment() -> str:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"env python {sys.version.split()[0]} numpy {numpy} "
        f"nproc {len(os.sched_getaffinity(0))} loadavg {load}"
    )


class Run:
    """Counts and prints the checked invocations of one benchmark run."""

    def __init__(self, name: str, bound: int):
        self.name = name
        self.bound = bound
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, inv: Invocation, report: bytes, exit_code: int | None = None) -> None:
        self.attempted += 1
        code = inv.exit_code if exit_code is None else exit_code
        digest, problems = check(self.name, self.bound, code, report)
        self.failed += bool(problems)
        print(
            f"{label} wall_s {inv.wall_s:.4f} cpu_s {inv.cpu_s:.4f} "
            f"peak_rss_mb {inv.peak_rss_mb:.1f} sha256 {digest} "
            + ("ok" if not problems else "FAILED: " + "; ".join(problems)),
            flush=True,
        )

    def setup(self, label: str) -> float:
        """Wall time of ``verify list-claims``: start-up and imports."""
        inv = invoke_cli(["list-claims"])
        ok = inv.exit_code == 0 and b"census-<bound>" in inv.stdout
        self.attempted += 1
        self.failed += not ok
        print(f"{label} wall_s {inv.wall_s:.4f} " + ("ok" if ok else "FAILED"), flush=True)
        return inv.wall_s


def measure_end_to_end(run: Run, args: list[str], seconds: float) -> dict:
    """Cycles of SETUP_REPEATS set-up runs and one workload invocation until
    the next cycle would end after ``seconds`` (at least one cycle), so both
    are sampled across the same stretch of time."""
    deadline = time.perf_counter() + seconds
    run.setup("setup 0")  # untimed: warms the file cache and, if written, the bytecode
    setups: list[float] = []
    runs: list[Invocation] = []
    cycle_s = 0.0
    while not runs or time.perf_counter() + cycle_s <= deadline:
        start = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            setups.append(run.setup(f"setup {len(setups) + 1}"))
        inv = invoke_cli(args)
        run.record(f"run {len(runs) + 1}", inv, inv.stdout)
        runs.append(inv)
        cycle_s = max(cycle_s, time.perf_counter() - start)
    print(f"error_rate {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} failed)")
    return {
        "wall_s": metric(statistics.median(r.wall_s for r in runs), "s"),
        "cpu_s": metric(statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def measure_layers(run: Run, args: list[str]) -> dict:
    plain = invoke_cli(args)
    run.record("untraced", plain, plain.stdout)
    traced = invoke([str(BENCH / "tracer.py"), "--expect", ",".join(WORKLOADS[run.name].spans), "--", *args])
    try:
        result = json.loads(traced.stdout)
    except ValueError:
        result = {"exit": traced.exit_code, "report": "", "layers": {}, "spans": {}}
    # a tracer failure (e.g. an expected span never called) fails the run
    run.record("traced", traced, result["report"].encode(), result["exit"] or traced.exit_code)
    print(f"{'span':<48} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for span, (calls, total, self_s) in sorted(result["spans"].items(), key=lambda kv: -kv[1][2]):
        if calls:
            print(f"{span:<48} {calls:>10} {total:>10.4f} {self_s:>10.4f}")
    metrics = dict(result["layers"])
    if run.failed == 0:  # both reports passed the check, so they parse
        for claim in json.loads(plain.stdout)["claims"]:
            metrics[claim_metric(claim["claim_id"])] = metric(claim["elapsed_ms"] / 1000, "s")
    metrics["trace.overhead_s"] = metric(traced.wall_s - plain.wall_s, "s")
    return metrics


def select(produced: dict, declared: dict[str, str], failed: bool) -> dict:
    """The declared metrics, in declared order.  A claim this workload does
    not run reads 0, and so does every metric a failed run could not
    produce; any other missing metric is a benchmark bug."""
    out = {}
    for name, unit in declared.items():
        out[name] = produced.get(name, metric(0.0, unit))
        if name not in produced and not failed and not re.fullmatch(r"claims\..*\.elapsed_s", name):
            raise RuntimeError(f"metric {name} was not produced")
        if out[name]["unit"] != unit:
            raise RuntimeError(f"metric {name} has unit {out[name]['unit']}, not {unit}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not CLI_SOURCE.is_file():
        print(f"run.py: {CLI_SOURCE} not found; run from a checkout of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    bound = workload.bound_for(args.seed)
    cli_args = workload.cli_args(bound)
    print(environment())
    print(f"workload {args.workload} seed {args.seed} command verify {' '.join(cli_args)}", flush=True)
    run = Run(args.workload, bound)
    if args.trace:
        produced, section = measure_layers(run, cli_args), "per_layer"
    else:
        produced, section = measure_end_to_end(run, cli_args, args.seconds), "end_to_end"
    metrics = select(produced, declared_metrics(section), run.failed > 0)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
