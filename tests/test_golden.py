"""Golden output for each --json schema, one small input each, and for
scripts/sp4_walkthrough.py.

Each command runs in a fresh interpreter, and its stdout must equal the
stored file byte for byte.  Every command but verify runs under
PYTHONHASHSEED 0 and 1, so its output cannot depend on string hashing.
verify runs under seed 0 only: some of its details still print Python
sets, whose order follows the hash seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "chartable": ["chartable", "2", "--json"],
    "xi": ["xi", "2", "--route", "all", "--json"],
    "cells": ["cells", "--rank", "6", "--json"],
    "distinguished": ["distinguished", "--n", "2", "--json"],
    "verify": ["verify", "--json"],
    "oracle": ["oracle", "verify", "--max-n", "1", "--json"],
}


def _stdout(seed: str, *argv: str) -> bytes:
    """The stdout of a fresh interpreter run, which must exit 0 silently."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_matches_golden(name):
    for seed in ("0",) if name == "verify" else ("0", "1"):
        stdout = _stdout(seed, "-m", "distsym.cli", *COMMANDS[name])
        assert stdout == (GOLDEN / f"{name}.json").read_bytes(), seed


def test_sp4_walkthrough_matches_golden():
    # the walkthrough prints decomposition terms and cells by name
    for seed in ("0", "1"):
        stdout = _stdout(seed, str(ROOT / "scripts" / "sp4_walkthrough.py"))
        assert stdout == (GOLDEN / "sp4_walkthrough.txt").read_bytes(), seed
