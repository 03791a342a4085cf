"""Run the benchmark on two checkouts in alternating pairs and summarise.

Run from anywhere, with two checkouts of the repository (for example a
``git clone`` of the parent commit and one of the change):

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --pairs 10 --workloads large-games --first-seed 11 --out BENCH_6.json

Each pair runs the command in the change's ``BENCHMARK.json`` once in each
checkout, with the same seed and ``--seconds`` set to its ``run_seconds``;
the side that runs first alternates from pair to pair, and pair i uses seed
``first_seed + i``.  The output records, per workload and end-to-end
metric, each side's per-pair values, median and quartiles (inclusive
method), and the pairs the change won (ties count for neither side), with
the failed and attempted output checks of every run.  Each run's metrics go
to standard error as it ends, to four significant digits (``verify_s`` is
tens of microseconds).  The report is written after each workload.  A run
that exits non-zero stops the tool: it prints the tail of that run's
standard error, writes the report with the finished workloads and the
current one's runs so far, and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def revision(checkout: Path) -> str:
    """The checkout's commit, or its path when it is not a git checkout."""
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else str(checkout)


STDERR_TAIL = 20  # lines of a failed run's standard error to show


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run: its environment line and result line."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(metrics: list[dict], results: dict[str, list[dict]], seeds: list[int]) -> dict:
    """Per end-to-end metric: each side's spread and the change's wins."""
    out = {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **{side: spread(values[side]) for side in SIDES},
            "change_wins": wins,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the quartiles need two runs per side")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    report = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "revisions": {side: revision(checkouts[side]) for side in SIDES},
        "workloads": {},
        "environments": [],
    }
    for workload in workloads:
        results = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                try:
                    env, result = run_once(checkouts[side], spec["command"], workload, seed, spec["run_seconds"])
                except subprocess.CalledProcessError as failure:
                    tail = "\n".join(failure.stderr.splitlines()[-STDERR_TAIL:])
                    print(f"{' '.join(failure.cmd)} exited with status {failure.returncode}; its stderr ends:\n{tail}", file=sys.stderr)
                    report["workloads"][workload] = {
                        "failed_run": {"side": side, "seed": seed, "returncode": failure.returncode, "stderr_tail": tail},
                        "seeds": seeds[: i + 1],
                        "results": results,
                    }
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
                    return 1
                results[side].append(result)
                report["environments"].append({"workload": workload, "side": side, **env})
                print(workload, seed, side, {k: float(f"{v['value']:.4g}") for k, v in result["metrics"].items()}, file=sys.stderr)
        report["workloads"][workload] = summarise(spec["end_to_end"], results, seeds)
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # keep what is done so far
    return 0


if __name__ == "__main__":
    sys.exit(main())
