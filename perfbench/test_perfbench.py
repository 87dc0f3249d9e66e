"""Tests of the benchmark itself, at the seconds-long smoke sizes.

    python3 -m pytest perfbench
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import distsym.cli  # noqa: E402,F401  workloads reach the CLI through sys.modules
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())["smoke"]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("xi-w10", "0"), ("cells-r28", "1"),
                                            ("small-cli", "1")])
def test_smoke_run_passes_and_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    named = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "1":
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9


TAMPER = {
    "xi-w10": lambda g: g.update(terms=g["terms"] + 1),
    "cells-r28": lambda g: g["counts"].__setitem__(0, g["counts"][0] + 1),
    "small-cli": lambda g: g["digests"].__setitem__("distinguished --n 1 --json", "0" * 64),
}


@pytest.mark.parametrize("workload", sorted(TAMPER))
def test_wrong_golden_value_fails_the_run(workload):
    out = workloads.run(workload, workloads.SIZES["smoke"][workload], seed=5)
    golden = copy.deepcopy(GOLDEN[workload])
    TAMPER[workload](golden)
    rep = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mib": 1.0, "setup_s": 0.1, "ref_s": [0.1]}
    good = run.summarize([{**rep, "checks": workloads.check(workload, out, GOLDEN[workload])}],
                         [rep], False, SPEC)
    bad = run.summarize([{**rep, "checks": workloads.check(workload, out, golden)}],
                        [rep], False, SPEC)
    # This process does not pin PYTHONHASHSEED, and the text output of
    # `distsym verify` prints sets, so only the difference is compared here;
    # the smoke runs above check that the pinned children pass every check.
    assert not bad["correct"] and bad["failed"] > good["failed"]
    assert bad["attempted"] == good["attempted"]


def test_metric_names_are_valid_unique_and_mapped_to_layers():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    layers = json.loads((HERE / "layers.json").read_text())
    mapped = [n for layer in layers.values() for n in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "small-cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
