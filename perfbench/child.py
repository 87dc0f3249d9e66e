"""One fresh interpreter running one repetition of a benchmark workload.

run.py starts it as ``python perfbench/child.py '<spec json>'``.  The spec
holds ``t0`` (CLOCK_MONOTONIC just before the spawn), ``workload``,
``scale``, ``seed``, ``traced`` and ``spans_path``; with ``setup_only``
the child exits right after the timed import.  Around the workload the
child times reference.reference(), the yardstick run.py scales times by.
The child prints one JSON object as its last line of stdout.
"""

import time

import distsym
import distsym.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s(resource) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(spec: dict) -> int:
    import json
    import resource
    from pathlib import Path

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not Path(distsym.__file__).resolve().is_relative_to(src):
        print(f"distsym was imported from {distsym.__file__}, not from {src}")
        return 2
    setup_s = READY - spec["t0"]
    from reference import reference

    ref_before = _seconds(reference)
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "ref_s": [ref_before]}))
        return 0

    import tracing
    import workloads

    name, scale = spec["workload"], spec["scale"]
    golden = json.loads((here / "golden.json").read_text())[scale][name]
    tracer = tracing.Tracer() if spec["traced"] else None
    if tracer:
        tracer.install()
    cpu0 = _cpu_s(resource)
    start = time.perf_counter()
    try:
        out, error = workloads.run(name, workloads.SIZES[scale][name], spec["seed"]), None
    except Exception as exc:  # reported as a failed check, not a crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s(resource) - cpu0
    # ru_maxrss is in KiB on Linux.  RUSAGE_SELF: this child only.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ref_after = _seconds(reference)

    if out is None:
        checks = [("workload ran", False, error)]
    else:
        try:
            checks = workloads.check(name, out, golden)
        except (KeyError, TypeError, ValueError) as exc:
            checks = [("outputs have the expected form", False, repr(exc))]
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mib": rss_mib,
              "ref_s": [ref_before, ref_after], "stdout_bytes": workloads.stdout_bytes(out or {})}
    if tracer:
        result["layers"] = tracer.summary(wall_s)
        coverage = result["layers"]["trace.span_coverage"]
        checks.append(("named spans cover >= 90% of traced wall time", coverage >= 0.9,
                       f"{coverage:.3f}"))
        tracer.write(spec["spans_path"], name, start)
    result["checks"] = [list(row) for row in checks]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import json
    import sys

    sys.exit(main(json.loads(sys.argv[1])))
