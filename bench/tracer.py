"""Traced in-process run of the ``verify`` CLI, for the per-layer metrics.

Usage (``leinster`` must be importable, e.g. ``PYTHONPATH=src``):

    python3 bench/tracer.py --expect SPAN[,SPAN...] -- <verify arguments>

Every public function of each ``leinster`` module except LEAF_FUNCTIONS, the
private primitives in PRIVATE_SPANS and ``GroupTable.element_order`` are
wrapped in a span that counts calls and accumulates total and self time.
Names are rebound in every ``leinster`` module that holds the original
function object, because ``claims`` and ``analysis`` import engine functions
by name.  The CLI then runs in this process with its report captured.

Prints one JSON object: the CLI exit code, the report text, the per-layer
metrics ({name: {"value", "unit"}}) and every span as [calls, total_s,
self_s].  Exits 3, after printing, when a span named in --expect recorded no
call, so a renamed function cannot make its layer read as free.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time

# span name -> (module, attribute) for private functions that are layers
PRIVATE_SPANS = {
    "groups.closure": ("groups", "_closure_ids"),
    "claims.split_metacyclic_specs": ("claims", "_split_metacyclic_specs"),
    "cli.render": ("cli", "_render"),
}

# Integer helpers called millions of times per run: wrapping them would cost
# more than the layers they serve, so their time counts as their callers'
# self time.
LEAF_FUNCTIONS = frozenset(
    f"numtheory.{name}"
    for name in (
        "divisor_sum",
        "divisors",
        "factorize",
        "is_perfect",
        "is_prime",
        "is_squarefree",
        "mult_order",
        "order_divides",
        "order_is_exactly",
        "prime_factors",
    )
)

# the structural path: reports built from exact formulas, no Cayley table
STRUCTURAL = (
    "analysis.analyze_split_metacyclic",
    "analysis.analyze_descriptor",
    "analysis.analyze_coprime_product",
)

# (span, stats) reported as <span>.<stat>; the rest are derived below
SPAN_STATS = (
    ("groups.normal_subgroups", ("calls", "total_s", "self_s")),
    ("groups.closure", ("calls", "total_s")),
    ("groups.element_order", ("calls", "total_s")),
    ("groups.sylow", ("calls", "total_s", "self_s")),
    ("groups.quotient", ("calls", "total_s")),
    ("constructors.build", ("calls", "total_s")),
    ("claims.split_metacyclic_specs", ("total_s", "self_s")),
    ("squarefree.canonical_twist", ("calls", "total_s")),
    ("squarefree.enumerate_squarefree", ("calls", "self_s")),
    ("claims.census_universe", ("self_s",)),
    ("analysis.analyze", ("calls",)),
    ("squarefree.split_metacyclic_normal_orders", ("calls", "total_s")),
    ("numtheory.scan_equation", ("total_s",)),
    ("numtheory.scan_equation_bruteforce", ("total_s",)),
    ("cli.render", ("total_s",)),
)


class Span:
    __slots__ = ("calls", "total_s", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0  # open calls; total_s counts only the outermost


class Tracer:
    """Spans and counters of one run, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, int] = {}
        # time covered by child spans, one entry per open span plus the root
        self._child_s = [0.0]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def active(self, name: str) -> bool:
        span = self.spans.get(name)
        return span is not None and span.active > 0

    def wrap(self, name: str, fn, on_result=None):
        span = self.spans.setdefault(name, Span())
        child_s = self._child_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span.calls += 1
            span.active += 1
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span.active -= 1
                span.self_s += dt - child_s.pop()
                if not span.active:
                    span.total_s += dt
                child_s[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced


def _leinster_modules() -> list:
    import leinster

    for info in pkgutil.iter_modules(leinster.__path__):
        importlib.import_module(f"leinster.{info.name}")
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("leinster.")]


def instrument(tracer: Tracer) -> dict:
    """Wrap the layer functions and rebind every reference to them.

    Returns the original functions by span name."""
    modules = _leinster_modules()
    by_short = {m.__name__.split(".", 1)[1]: m for m in modules}
    originals: dict[str, object] = {}
    for short, mod in by_short.items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and getattr(obj, "__module__", None) == mod.__name__
                and inspect.isfunction(inspect.unwrap(obj))
            ):
                originals[f"{short}.{attr}"] = obj
    for leaf in LEAF_FUNCTIONS:
        del originals[leaf]  # KeyError on rename
    for span, (short, attr) in PRIVATE_SPANS.items():
        originals[span] = getattr(by_short[short], attr)  # AttributeError on rename

    def count_under(counter: str, parent: str):
        def hook(_result) -> None:
            if tracer.active(parent):
                tracer.count(counter)

        return hook

    def count_len(counter: str):
        return lambda result: tracer.count(counter, len(result))

    hooks = {
        "groups.normal_subgroups": count_len("normal_found"),
        "groups.closure": count_under("closure_in_normal", "groups.normal_subgroups"),
        "claims.split_metacyclic_specs": count_len("specs_out"),
        "analysis.report_from_orders": count_under("census_reports_built", "claims.census_universe"),
        "claims.census_universe": count_len("census_universe_size"),
        "cli.render": lambda text: tracer.count("report_bytes", len(text.encode())),
    }
    # keyed by identity; ``originals`` keeps every key's object alive
    wrapped = {id(fn): tracer.wrap(span, fn, hooks.get(span)) for span, fn in originals.items()}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    group_table = by_short["groups"].GroupTable
    group_table.element_order = tracer.wrap("groups.element_order", group_table.element_order)
    return originals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, originals: dict) -> dict:
    """The per-layer metrics, {name: {"value": v, "unit": u}}."""
    spans, counters = tracer.spans, tracer.counters
    units = {"calls": "count", "total_s": "s", "self_s": "s"}
    out = {}

    def put(name: str, value, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for span, stats in SPAN_STATS:
        for stat in stats:
            put(f"{span}.{stat}", getattr(spans[span], stat), units[stat])
    put(
        "groups.normal_subgroups.seed_yield",
        _ratio(counters.get("normal_found", 0), counters.get("closure_in_normal", 0)),
        "ratio",
    )
    put("claims.split_metacyclic_specs.specs_out", counters.get("specs_out", 0), "count")
    info = originals["squarefree.enumerate_squarefree"].cache_info()
    put(
        "squarefree.enumerate_squarefree.cache_hit_ratio",
        _ratio(info.hits, info.hits + info.misses),
        "ratio",
    )
    built = counters.get("census_reports_built", 0)
    put("claims.census.reports_built", built, "count")
    put(
        "claims.census.dedup_keep_ratio",
        _ratio(counters.get("census_universe_size", 0), built),
        "ratio",
    )
    put("analysis.structural.calls", sum(spans[s].calls for s in STRUCTURAL), "count")
    put("analysis.structural.self_s", sum(spans[s].self_s for s in STRUCTURAL), "s")
    put("cli.report_bytes", counters.get("report_bytes", 0), "bytes")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", default="", help="comma-separated span names")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    originals = instrument(tracer)
    from leinster import cli  # the instrumented module

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(cli_args)

    silent = [s for s in args.expect.split(",") if s and not (s in tracer.spans and tracer.spans[s].calls)]
    print(
        json.dumps(
            {
                "exit": code,
                "report": captured.getvalue(),
                "layers": layer_metrics(tracer, originals),
                "spans": {
                    name: [s.calls, s.total_s, s.self_s]
                    for name, s in sorted(tracer.spans.items())
                },
            }
        )
    )
    if silent:
        print(f"tracer: expected spans recorded no call: {', '.join(silent)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
