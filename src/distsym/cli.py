"""Command-line front end.

Subcommands: chartable, xi, cells, distinguished, oracle, verify.  Output
defaults to plain text tables; --json switches to the documented schemas.
All numbers print exactly (integers, or a/b for rationals).  Every size
argument has a fixed upper bound, checked while the arguments are parsed,
so no accepted call does more work than `chartable 12`; a size out of
range exits 2 before any computation.

Exit codes: 0 success, 1 internal model violation (the offending object is
serialized to stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cells as cells_mod
from . import oracle as oracle_mod
from .verify import MODEL_VIOLATIONS, run_verification
from .wchar import bipartitions, character_table
from .xi import check_route_a, xi_all
from .xi import xi as xi_fn

# Each bound is the largest size whose cold `python -m distsym.cli ... --json`
# run costs no more than `chartable 12` (2-core x86-64, CPython 3.11.7).
# chartable 12 prints the 1165 x 1165 table of W_12: about 8-9 s, 420 MiB
# and 34 MB of JSON.
CHARTABLE_MAX_N = 12
# xi 10 evaluates xi, and checks route A's closed form, on W_20: about
# 3.4-4.7 s and 110 MiB (xi 8: 0.8 s).  The decompositions alone reach n = 21
# (scripts/rank_scan.py), but the printed character needs every class.
XI_MAX_N = 10
# cells --rank 42 reaches n = 21, the largest unipotent cuspidal case the
# symbol side checks: about 5-6.5 s and 155 MiB (rank 30: 0.7-0.9 s).
# distinguished --n n reports rank 2n, so it shares this bound.
CELLS_MAX_RANK = 42
# For --max-n N the oracle's subgroup-orders claim streams all of W_{2N}
# once: W_6 (46080 elements) takes about 0.35 s, so --max-n 3 --include-w6
# runs in about 0.5 s (CPython 3.11), while W_8 (about 1e7 elements) would
# run for over a minute by extrapolation.
ORACLE_MAX_N = 3


def _bounded(minimum: int, maximum: int):
    """An argparse type: an integer from minimum to maximum."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    parse.__name__ = "integer"
    return parse


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_chartable(args) -> int:
    n = args.n
    classes = bipartitions(n)
    table = character_table(n)
    if args.json:
        payload = {
            "n": n,
            "classes": [str(c) for c in classes],
            "rows": {
                str(bp): {str(c): v for c, v in zip(classes, char.values)}
                for bp, char in table.items()
            },
        }
        _emit_json(payload)
        return 0
    keys = [str(c) for c in classes]
    width = max(len(k) for k in keys) + 2
    head = max(len(str(bp)) for bp in table) + 2
    print(" " * head + "".join(k.rjust(width) for k in keys))
    for bp, char in table.items():
        row = "".join(str(v).rjust(width) for v in char.values)
        print(str(bp).ljust(head) + row)
    return 0


def _xi_payload(result, names: dict) -> dict:
    return {
        "route": result.route,
        "character": dict(zip(names.values(), result.character.values)),
        "decomposition": {names[bp]: coeff for bp, coeff in result.decomposition.items()},
    }


def _cmd_xi(args) -> int:
    n = args.n
    route = args.route.upper()
    # every class and irreducible of W_2n, formatted once
    names = {c: str(c) for c in bipartitions(2 * n)}
    if route == "ALL":
        results = xi_all(n)
        agreement = {"agree": True, "routes_compared": ["A", "B", "C"]}
        shown = {name: _xi_payload(r, names) for name, r in results.items()}
        base = results["A"]
    else:
        base = xi_fn(n, route)
        agreement = {"agree": True, "routes_compared": [route]}
        shown = {route: _xi_payload(base, names)}
    if route in ("A", "ALL"):
        # the character printed for route A is the one this check certifies
        check_route_a(base)
    if args.json:
        _emit_json({"n": n, "routes": shown, "agreement": agreement})
        return 0
    print(f"xi_{n} on W_{2 * n}  (routes: {', '.join(agreement['routes_compared'])}, agree: yes)")
    print("character:")
    for name, v in zip(names.values(), base.character.values):
        print(f"  {name:<16} {v}")
    print("decomposition:")
    for bp, coeff in base.decomposition.items():
        print(f"  {'+' if coeff > 0 else '-'} {names[bp]}")
    return 0


def _print_rank_report(payload: dict) -> None:
    print(f"rank {payload['rank']}: {len(payload['cells'])} cells, "
          f"{payload['count']} distinguished symbols, "
          f"cuspidal {'present' if payload['cuspidal_present'] else 'absent'}")
    for entry in payload["cells"]:
        terms = " ".join(
            f"{'+' if t['sign'] > 0 else '-'}({t['symbol']})" for t in entry["terms"]
        )
        print(f"  Z = {entry['Z']}  (d = {entry['d']})")
        print(f"    cell: {terms}")
        print(f"    constituents: {', '.join(entry['constituents'])}")
    print(f"  union: {', '.join(payload['union'])}")


def _cmd_report(args) -> int:
    rank = args.rank if args.command == "cells" else 2 * args.n
    payload = cells_mod.rank_report(rank).to_json()
    if args.json:
        _emit_json(payload)
    else:
        _print_rank_report(payload)
    return 0


def _cmd_oracle(args) -> int:
    rows = oracle_mod.verify_claims(max_n=args.max_n, include_w6=args.include_w6)
    if args.json:
        _emit_json(
            {"checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows]}
        )
    else:
        for name, ok, detail in rows:
            print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    return 0 if all(ok for _, ok, _ in rows) else 1


def _cmd_verify(args) -> int:
    report = run_verification()
    if args.json:
        _emit_json(report.to_json())
    else:
        for c in report.checks:
            tag = {"pass": "PASS", "fail": "FAIL"}.get(c.status, "NOTED")
            print(f"{tag}  {c.name}  [{c.detail}]")
        passed = sum(1 for c in report.checks if c.status == "pass")
        noted = sum(1 for c in report.checks if c.status == "discrepancy-documented")
        failed = sum(1 for c in report.checks if c.status == "fail")
        print(f"{passed} passed, {noted} documented discrepancies, {failed} failed")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distsym",
        description="Exact character arithmetic and distinguished Lusztig symbols "
        "for the symplectic symmetric space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chartable", help="character table of W_n")
    p.add_argument("n", type=_bounded(0, CHARTABLE_MAX_N))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_chartable)

    p = sub.add_parser("xi", help="the virtual module at parameter n")
    p.add_argument("n", type=_bounded(1, XI_MAX_N))
    p.add_argument("--route", default="all", choices=["A", "B", "C", "all"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_xi)

    p = sub.add_parser("cells", help="cells of the even-strip special symbols")
    p.add_argument("--rank", type=_bounded(0, CELLS_MAX_RANK), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("distinguished", help="distinguished symbols at rank 2n")
    p.add_argument("--n", type=_bounded(1, CELLS_MAX_RANK // 2), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_report)

    p_oracle = sub.add_parser("oracle", help="brute-force group checks")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p = oracle_sub.add_parser("verify", help="run all oracle claims")
    p.add_argument("--max-n", type=_bounded(0, ORACLE_MAX_N), default=2)
    p.add_argument("--include-w6", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("verify", help="run the reference fixture suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MODEL_VIOLATIONS as exc:
        print(json.dumps({"error": type(exc).__name__, **exc.payload}), file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
