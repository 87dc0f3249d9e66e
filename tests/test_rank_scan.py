import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from distsym.symbols import Symbol

ROOT = Path(__file__).resolve().parent.parent


def scan(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rank_scan.py"), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_a_bound_below_one_exits_two(max_n):
    proc = scan("--max-n", max_n)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_every_row_checks_the_three_routes():
    proc = scan("--max-n", "3")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert "A = B = C" in header and "<xi,xi>" in header
    assert [row.split()[:9] for row in rows] == [
        ["1", "2", "2", "3", "3", "yes", "3", "yes", "3"],
        ["2", "4", "4", "7", "7", "no", "7", "yes", "7"],
        ["3", "6", "8", "16", "16", "yes", "16", "yes", "16"],
    ]


def test_skip_xi_is_gone():
    proc = scan("--skip-xi")
    assert proc.returncode == 2
    assert "unrecognized arguments: --skip-xi" in proc.stderr


def load_scan():
    """The script as a module, so that a test can patch what it calls."""
    spec = importlib.util.spec_from_file_location("rank_scan", ROOT / "scripts" / "rank_scan.py")
    rank_scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rank_scan)
    return rank_scan


@pytest.mark.parametrize("max_n,flag", [(1, False), (2, True)])
def test_a_wrong_cuspidal_flag_exits(monkeypatch, capsys, max_n, flag):
    # rank 2 = 1*2 has the cuspidal 0,1,2|-; rank 4 has none
    rank_scan = load_scan()
    real = rank_scan.distinguished
    monkeypatch.setattr(rank_scan, "distinguished",
                        lambda n: real(n)._replace(cuspidal_present=flag))
    monkeypatch.setattr(sys, "argv", ["rank_scan.py", "--max-n", str(max_n)])
    with pytest.raises(SystemExit, match=f"n = {max_n}: cuspidal flag {flag}"):
        rank_scan.main()


@pytest.mark.parametrize(
    "patch,message",
    [
        # the union at rank 2 starts with 0,1|2 = symbol_of(1, (), (2,))
        (lambda union: union[1:], "n = 1: 0,1|2 is in the even labels only"),
        # 1,2|0 = symbol_of(1, (1, 1), ()) has rank 2 but no even label
        (lambda union: (*union, Symbol.parse("1,2|0")), "n = 1: 1,2|0 is in the union only"),
    ],
)
def test_a_union_off_the_even_labels_exits(monkeypatch, patch, message):
    rank_scan = load_scan()
    real = rank_scan.distinguished
    monkeypatch.setattr(rank_scan, "distinguished",
                        lambda n: real(n)._replace(union=patch(real(n).union)))
    monkeypatch.setattr(sys, "argv", ["rank_scan.py", "--max-n", "1"])
    with pytest.raises(SystemExit, match=re.escape(message)):
        rank_scan.main()
