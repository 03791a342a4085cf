"""Benchmark entry point for mepnim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve-4444 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it measures the workload for about ``--seconds`` seconds
with no instrumentation and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed amount of the workload once plainly and twice
under the outside-in tracer, and reports the per-layer metrics.  Both modes
check the library's outputs.  Metric names and units come from
BENCHMARK.json; the last line of standard output is the result object, and
the line before it records the environment the numbers were taken in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("evolve-4444", "sweep-exp1", "large-games")
SETUP_SAMPLES = 5  # graph builds; the import happens once per process
REFERENCE_LOOP = 2_000_000


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop, recorded next to every result so
    machine drift is visible.  Nothing is normalised by it."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x ^= i
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mepnim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None, sizes=None, out_dir=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mepnim" / "__init__.py").is_file():
        print(f"mepnim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    t0 = time.perf_counter()
    import workloads  # imports mepnim and numpy

    import_s = time.perf_counter() - t0
    sizes = sizes or workloads.DEFAULT

    env = environment()
    env["reference_loop_s"] = reference_loop_s()
    if args.trace:
        out_dir = out_dir or ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        values, checks = workloads.run_traced(args.workload, args.seed, sizes, spans_path=spans)
        detail = {"spans": str(spans)}
    else:
        build_s = []
        for _ in range(SETUP_SAMPLES):
            games = None  # free the previous graphs, so peak memory holds one set
            t0 = time.perf_counter()
            games = workloads.setup(args.workload, sizes)
            build_s.append(time.perf_counter() - t0)
        values, checks = workloads.run_timed(args.workload, games, args.seed, args.seconds, sizes)
        values["setup_s"] = import_s + statistics.median(build_s)
        values["peak_rss_mb"] = peak_rss_mb()
        detail = {"import_s": import_s, "build_s": build_s}
    env["loadavg_end"] = os.getloadavg()
    detail.update({k.lstrip("_"): v for k, v in values.items() if k.startswith("_")})

    missing = set(units) - set(values)
    if missing:
        print(f"benchmark did not produce {sorted(missing)}", file=sys.stderr)
        return 3
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": env, "detail": detail}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
