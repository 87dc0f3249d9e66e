"""The distsym benchmark.

    python3 perfbench/run.py --workload xi-w10 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; it measures the code under
``src/``.  Each repetition of a workload runs in a fresh interpreter
(child.py), so every ``lru_cache`` starts cold, as in one ``distsym`` CLI
invocation.  One discarded warm-up child compiles the ``.pyc`` files,
then a few set-up-only children and the repetitions follow, until
``--seconds`` is spent (at least MIN_REPS repetitions).

Every time is reported at reference speed: each child also times the
fixed computation in reference.py just before and after its workload,
and its times are scaled by NOMINAL_S over that yardstick's mean.  This
cancels most of the drift in speed of a shared machine (see
reference.py); the raw wall times are printed on the line before the
result.  ``wall_s`` and ``cpu_s`` cover the workload's calls, ``setup_s``
is interpreter start plus ``import distsym, distsym.cli`` (median over
set-up-only children and repetitions), and ``peak_rss_mib`` is the
child's own ``ru_maxrss``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians
over the repetitions.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics, medians over the traced
ones; the spans of the last traced repetition are written to
``.perfbench_out/``.  Which end-to-end metric each per-layer metric
should move is in layers.json.  ``--smoke`` runs tiny sizes, for the
benchmark's own tests.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` count the golden-value checks of all repetitions, and
``metrics`` maps each metric name to its value and unit.  The line before
it records the Python version, commit, nproc and seed of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
SETUP_SAMPLES = 5
DEADLINE_S = 150  # stop starting repetitions here; a run must end within 180 s
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def child_env() -> dict:
    """The pinned environment of every child."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DISTSYM_MAX_RANK", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(spec: dict, env: dict, timeout: float) -> dict:
    """Run one child and return its result, or raise RuntimeError."""
    spec = {**spec, "t0": time.clock_gettime(time.CLOCK_MONOTONIC)}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]} | "
                           f"{proc.stdout.strip()[-500:]}")
    return json.loads(lines[-1])


def commit() -> str:
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scale(rep: dict) -> float:
    """The factor that puts a child's times at the reference speed."""
    return NOMINAL_S / statistics.fmean(rep["ref_s"])


def summarize(reps: list[dict], setups: list[dict], trace: bool, spec: dict) -> dict:
    """Combine child results into the benchmark's result object."""
    rows = [row for rep in reps for row in rep["checks"]]
    failed = [row for row in rows if not row[1]]
    plain = [rep for rep in reps if "layers" not in rep]
    wall = statistics.median(rep["wall_s"] * scale(rep) for rep in plain)
    if trace:
        traced = [rep for rep in reps if "layers" in rep]
        metrics = {name: statistics.median(
                       rep["layers"][name] * (scale(rep) if name.endswith("_s") else 1)
                       for rep in traced)
                   for name in traced[0]["layers"]}
        metrics["cli.stdout_bytes"] = statistics.median(rep["stdout_bytes"] for rep in traced)
        metrics["trace.overhead_s"] = statistics.median(
            rep["wall_s"] * scale(rep) for rep in traced) - wall
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(rep["cpu_s"] * scale(rep) for rep in plain),
            "peak_rss_mib": statistics.median(rep["peak_rss_mib"] for rep in plain),
            "setup_s": statistics.median(s["setup_s"] * scale(s) for s in setups),
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted, named = set(metrics), set(units)
    bad = sorted(n for n in emitted | named if not NAME_RE.fullmatch(n))
    if emitted != named or bad:
        raise RuntimeError(f"metrics emitted {sorted(emitted - named)} but not named, "
                           f"named {sorted(named - emitted)} but not emitted; bad names {bad}")
    for row in failed[:20]:
        print(f"check failed: {row[0]} [{row[2]}]", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "distsym" / "__init__.py").is_file():
        print(f"no distsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    env = child_env()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    base = {"workload": args.workload, "scale": "smoke" if args.smoke else "full",
            "seed": args.seed, "traced": False,
            "spans_path": str(out_dir / f"spans-{args.workload}-seed{args.seed}.json")}
    began = time.perf_counter()
    try:
        spawn({**base, "setup_only": True}, env, DEADLINE_S)  # warm-up: writes the .pyc files
        setups = [spawn({**base, "setup_only": True}, env, DEADLINE_S)
                  for _ in range(SETUP_SAMPLES)]
        reps: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            left = DEADLINE_S + 25 - (time.perf_counter() - began)
            reps.append(spawn({**base, "traced": traced}, env, left))
            setups.append(reps[-1])
            elapsed = time.perf_counter() - start
            per_rep = elapsed / len(reps)
            if time.perf_counter() - began + per_rep > DEADLINE_S:
                break
            if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
                break
        if args.trace and len(reps) < 2:
            raise RuntimeError("no time left for a traced repetition")
        result = summarize(reps, setups, bool(args.trace), spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    meta = {"python": platform.python_version(), "commit": commit(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "repetitions": len(reps), "setup_samples": len(setups),
            "rep_wall_s": [round(rep["wall_s"], 4) for rep in reps],
            "rep_speed_scale": [round(scale(rep), 4) for rep in reps]}
    print(json.dumps({"run": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
