"""Golden output for each --json schema, one small input each.

Each command runs in a fresh interpreter with PYTHONHASHSEED=0, because
some verify details still print Python sets, and its stdout must equal the
stored file byte for byte.
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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_matches_golden(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "distsym.cli", *COMMANDS[name]],
        env=env, capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()
