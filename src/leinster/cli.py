"""Command-line entry point: ``verify <command>``.

Emits a JSON or text report of claim results; exit code 0 means every
executed claim verified, 1 means at least one claim failed, 2 means the
command never got as far as running a claim (bad usage or capacity) or its
report could not be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .claims import (
    cmd_census,
    cmd_verify_p2qr,
    cmd_verify_pqrs,
    cmd_verify_theorems,
    list_claim_ids,
)
from .errors import CapacityError, InputError


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--out", metavar="FILE", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="verify computed claims about Leinster groups",
    )
    parser.add_argument("--version", action="version", version=f"verify {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("census", help="list all Leinster groups up to a bound")
    p.add_argument("--bound", type=int, required=True)
    _common_flags(p)

    p = subs.add_parser(
        "pqrs", help="check all groups of squarefree 4-prime order up to a bound"
    )
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, metavar="K")
    _common_flags(p)

    p = subs.add_parser(
        "p2qr", help="search candidate families of order p^2*q*r for Leinster groups"
    )
    p.add_argument("--prime-bound", type=int, required=True)
    _common_flags(p)

    p = subs.add_parser("theorems", help="run every registered claim")
    p.add_argument("--corpus-bound", type=int, default=200)
    _common_flags(p)

    p = subs.add_parser("list-claims", help="list the registered claim ids")
    _common_flags(p)

    return parser


def _render(claims: list, fmt: str) -> str:
    if fmt == "json":
        doc = {"tool_version": __version__, "claims": [c.to_json() for c in claims]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = []
    for c in claims:
        lines.append(f"{c.claim_id}: {c.status} ({c.elapsed_ms} ms)")
        lines.append(f"  {c.statement}")
        for key in sorted(c.evidence):
            val = c.evidence[key]
            if isinstance(val, list) and len(val) > 6:
                val = f"[{len(val)} entries]"
            lines.append(f"  {key}: {val}")
    n_ok = sum(1 for c in claims if c.status == "verified")
    lines.append(f"{n_ok}/{len(claims)} claims verified")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path, code: int) -> int:
    """Write the report and return code, or 2 if the report cannot be written."""
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write the report to {out_path or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)

    if args.command == "pqrs" and args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.out == "":
        print("error: --out needs a file name", file=sys.stderr)
        return 2
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        print(f"error: --out directory does not exist: {args.out}", file=sys.stderr)
        return 2
    if args.out and os.path.isdir(args.out):
        print(f"error: --out names a directory: {args.out}", file=sys.stderr)
        return 2

    if args.command == "list-claims":
        if args.format == "json":
            return _emit(json.dumps({"claims": list_claim_ids()}, indent=2) + "\n", args.out, 0)
        return _emit("\n".join(list_claim_ids()) + "\n", args.out, 0)

    try:
        if args.command == "census":
            claims = [cmd_census(args.bound)]
        elif args.command == "pqrs":
            claims = [cmd_verify_pqrs(args.bound, jobs=args.jobs)]
        elif args.command == "p2qr":
            claims = [cmd_verify_p2qr(args.prime_bound)]
        elif args.command == "theorems":
            claims = cmd_verify_theorems(args.corpus_bound)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    code = 0 if all(c.status == "verified" for c in claims) else 1
    return _emit(_render(claims, args.format), args.out, code)


if __name__ == "__main__":
    sys.exit(main())
