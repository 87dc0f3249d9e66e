"""The benchmark's workloads and their correctness checks.

Every workload runs in a fresh interpreter (see child.py), so the
``lru_cache``s of distsym start cold, as they do for each ``distsym`` CLI
invocation.  Calls go through module attributes looked up at call time,
so that tracing.py can wrap the public functions of each layer from
outside.  A workload returns the raw outputs of its calls; the checks
against golden values run afterwards, outside the timed region, and yield
``(name, ok, detail)`` rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
import sys

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is the
# seconds-long variant the benchmark's own tests run.
SIZES = {
    "full": {
        "xi-w10": {"n": 5},
        "cells-r28": {"max_n": 14},
        "small-cli": {"xi": 3, "chartable": 6, "rank": 12, "distinguished": 6,
                      "oracle": ["--max-n", "2", "--include-w6"]},
    },
    "smoke": {
        "xi-w10": {"n": 2},
        "cells-r28": {"max_n": 4},
        "small-cli": {"xi": 1, "chartable": 2, "rank": 4, "distinguished": 2,
                      "oracle": ["--max-n", "1"]},
    },
}

def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``distsym <argv>`` in-process; return its exit code and stdout."""
    cli = sys.modules["distsym.cli"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def small_cli_calls(size: dict, seed: int) -> list[list[str]]:
    """The small-cli argument lists, in an order set by the seed."""
    calls = [["verify"], ["oracle", "verify", *size["oracle"]]]
    calls += [["xi", str(n), "--json"] for n in range(1, size["xi"] + 1)]
    calls += [["chartable", str(n), "--json"] for n in range(1, size["chartable"] + 1)]
    calls += [["cells", "--rank", str(r), "--json"] for r in range(1, size["rank"] + 1)]
    calls += [["distinguished", "--n", str(n), "--json"]
              for n in range(1, size["distinguished"] + 1)]
    random.Random(seed).shuffle(calls)
    return calls


def run(name: str, size: dict, seed: int) -> dict:
    """The timed part of a workload: make its calls and return their outputs."""
    if name == "xi-w10":
        n = size["n"]
        code, stdout = cli_call(["xi", str(n), "--json"])
        # distsym.xi is the function; the module has to come from importlib.
        xi_mod = importlib.import_module("distsym.xi")
        wchar = importlib.import_module("distsym.wchar")
        cells = importlib.import_module("distsym.cells")
        route_b = xi_mod.xi(n, "B")
        return {
            "calls": [(["xi", str(n), "--json"], code, stdout)],
            "api_character": {str(c): route_b.character.at(c)
                              for c in wchar.bipartitions(2 * n)},
            "pairing": wchar.inner_product(route_b.character, route_b.character),
            "distinguished_count": cells.distinguished(n).count,
        }
    if name == "cells-r28":
        cells = importlib.import_module("distsym.cells")
        order = list(range(1, size["max_n"] + 1))
        random.Random(seed).shuffle(order)
        reports = {n: cells.distinguished(n) for n in order}
        return {"reports": {n: (r.count, r.cuspidal_present) for n, r in reports.items()}}
    if name == "small-cli":
        return {"calls": [(argv, *cli_call(argv)) for argv in small_cli_calls(size, seed)]}
    raise ValueError(f"unknown workload {name!r}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call_checks(calls, digests: dict) -> list[tuple[str, bool, str]]:
    rows = []
    for argv, code, stdout in calls:
        key = " ".join(argv)
        rows.append((f"exit code of {key}", code == 0, f"exit {code}"))
        got = _digest(stdout)
        rows.append((f"stdout digest of {key}", got == digests.get(key), got))
    return rows


def check(name: str, out: dict, golden: dict) -> list[tuple[str, bool, str]]:
    """Compare a workload's outputs with its golden values."""
    if name == "xi-w10":
        rows = _call_checks(out["calls"], golden["digests"])
        stdout = out["calls"][0][2]
        terms = golden["terms"]
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return rows + [("xi stdout is JSON", False, str(exc))]
        for route in ("A", "B", "C"):
            decomp = payload["routes"].get(route, {}).get("decomposition", {})
            ok = len(decomp) == terms and all(v in (1, -1) for v in decomp.values())
            rows.append((f"route {route} has {terms} terms of +-1", ok, f"{len(decomp)} terms"))
        rows.append(("routes agree", payload.get("agreement", {}).get("agree") is True, ""))
        cli_char = payload["routes"].get("A", {}).get("character")
        rows.append(("CLI route A character equals API route B character",
                     cli_char == out["api_character"], ""))
        rows.append(("pairing <xi, xi>", out["pairing"] == terms, str(out["pairing"])))
        rows.append(("distinguished count", out["distinguished_count"] == terms,
                     str(out["distinguished_count"])))
        return rows
    if name == "cells-r28":
        rows = []
        cuspidal = set(golden["cuspidal_n"])
        for n, (count, present) in sorted(out["reports"].items()):
            expected = golden["counts"][n - 1]
            rows.append((f"count at n={n}", count == expected, f"{count} vs {expected}"))
            rows.append((f"cuspidal flag at n={n}", present == (n in cuspidal), str(present)))
        return rows
    if name == "small-cli":
        rows = _call_checks(out["calls"], golden["digests"])
        for argv, _, stdout in out["calls"]:
            if argv == ["verify"]:
                summary = re.search(r"(\d+) documented discrepancies, (\d+) failed\s*$", stdout)
                noted, failed = summary.groups() if summary else ("?", "?")
                rows.append(("verify reports 0 failed", failed == "0", failed))
                rows.append((f"verify reports {golden['verify_noted']} documented",
                             noted == str(golden["verify_noted"]), noted))
        return rows
    raise ValueError(f"unknown workload {name!r}")


def stdout_bytes(out: dict) -> int:
    """Bytes the CLI calls of a workload printed."""
    return sum(len(stdout.encode()) for _, _, stdout in out.get("calls", ()))
