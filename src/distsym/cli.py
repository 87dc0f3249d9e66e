"""Command-line front end.

Subcommands: chartable, xi, cells, distinguished, oracle, verify.  Output
defaults to plain text tables; --json switches to the documented schemas.
All numbers print exactly (integers, or a/b for rationals).  Every size
argument has a fixed upper bound, checked while the arguments are parsed,
so every accepted call ends in seconds (README.md tables the cost of each
bound); a size out of range exits 2 before any computation.

Exit codes: 0 success, 1 internal model violation (the offending object is
serialized to stderr) or stdout closed by its reader before the output was
written (nothing is printed), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import cells as cells_mod
from . import oracle as oracle_mod
from .verify import DOCUMENTED, FAIL, MODEL_VIOLATIONS, PASS, run_verification
from .wchar import bipartitions, character_table
from .xi import xi_all
from .xi import xi as xi_fn

# Each bound is the largest size whose cold `python -m distsym.cli ... --json`
# run cost no more than `chartable 12` did when the bounds were set; the
# README's bound table holds the measured cost of each.  chartable 12 prints
# the 1165 x 1165 table of W_12 as 34 MB of JSON.
CHARTABLE_MAX_N = 12
# xi 10 evaluates xi, and checks it against its closed form, on W_20, the
# costliest accepted call.  The decompositions alone reach n = 21
# (scripts/rank_scan.py), but the printed character needs every class.
XI_MAX_N = 10
# cells --rank 42 reaches n = 21, the largest unipotent cuspidal case the
# symbol side checks.  distinguished --n n reports rank 2n, so it shares
# this bound.
CELLS_MAX_RANK = 42
# For --max-n N the oracle's subgroup-orders claim streams all of W_{2N}
# once: W_6 has 46080 elements, and W_8, with 10321920, would run for over
# a minute.
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


_escape = json.encoder.encode_basestring_ascii


def _dumps(value, newline: str = "\n") -> str:
    """The bytes of json.dumps(value, indent=2), written directly.

    json.dumps runs its pure-Python encoder whenever indent is set; this
    writer builds each container in one join and escapes strings with the
    C function json itself uses.  It takes what the payloads hold: dicts
    with str keys (_escape rejects any other key), lists, tuples, str, int,
    bool and None; anything else raises TypeError.  newline is the line
    break plus the indent of value.  Inside a container a plain int is
    formatted by the f-string, which prints it as int.__repr__ does.
    """
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            f"{v if type(v) is int else _escape(v) if type(v) is str else _dumps(v, inner)}"
            for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{_escape(k)}: "
            f"{v if type(v) is int else _escape(v) if type(v) is str else _dumps(v, inner)}"
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(payload: dict) -> None:
    print(_dumps(payload))


def _cmd_chartable(args) -> int:
    n = args.n
    # each class formatted once; the table's rows run over the same
    # bipartitions, in the same order, so these name the rows too
    names = [str(c) for c in bipartitions(n)]
    chars = [char.values for char in character_table(n).values()]
    if args.json:
        payload = {
            "n": n,
            "classes": names,
            "rows": {name: dict(zip(names, values)) for name, values in zip(names, chars)},
        }
        _emit_json(payload)
        return 0
    width = max(len(k) for k in names) + 2
    print(" " * width + "".join(k.rjust(width) for k in names))
    for name, values in zip(names, chars):
        print(name.ljust(width) + "".join(str(v).rjust(width) for v in values))
    return 0


def _xi_payload(result, names: dict) -> dict:
    return {
        "route": result.route,
        "character": dict(zip(names.values(), result.character.values)),
        "decomposition": {names[key]: coeff for key, coeff in result.decomposition.items()},
    }


def _cmd_xi(args) -> int:
    n = args.n
    results = xi_all(n) if args.route == "all" else {args.route: xi_fn(n, args.route)}
    agreement = {"agree": True, "routes_compared": list(results)}
    # every class and irreducible of W_2n, formatted once
    names = {c: str(c) for c in bipartitions(2 * n)}
    # reading each character checks it against the closed form of xi_n
    shown = {name: _xi_payload(r, names) for name, r in results.items()}
    base = next(iter(results.values()))
    if args.json:
        _emit_json({"n": n, "routes": shown, "agreement": agreement})
        return 0
    print(f"xi_{n} on W_{2 * n}  (routes: {', '.join(agreement['routes_compared'])}, agree: yes)")
    print("character:")
    for name, v in zip(names.values(), base.character.values):
        print(f"  {name:<16} {v}")
    print("decomposition:")
    for key, coeff in base.decomposition.items():
        print(f"  {'+' if coeff > 0 else '-'} {names[key]}")
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
            tag = {PASS: "PASS", FAIL: "FAIL"}.get(c.status, "NOTED")
            print(f"{tag}  {c.name}  [{c.detail}]")
        passed = sum(1 for c in report.checks if c.status == PASS)
        noted = sum(1 for c in report.checks if c.status == DOCUMENTED)
        failed = sum(1 for c in report.checks if c.status == FAIL)
        print(f"{passed} passed, {noted} documented discrepancies, {failed} failed")
    return 0 if report.ok else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process.  parse_args leaves it unchanged and
    returns a fresh namespace, and each handler looks up its helpers when
    it runs, so every call of main can share it."""
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
        code = args.fn(args)
        # flushed here, a closed stdout raises below, not at interpreter exit
        sys.stdout.flush()
    except MODEL_VIOLATIONS as exc:
        print(json.dumps({"error": type(exc).__name__, **exc.payload}), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # as in the SIGPIPE note of Python's signal docs: what is still
        # buffered goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
