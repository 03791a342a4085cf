"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import mepnim  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = workloads.Sizes(
    small_heaps=(3, 3, 3),
    large_games=(((3, 3, 3), workloads.TUPLE), ((4, 4, 4), workloads.MULTISET)),
    check_passes=1,
    games_per_graph=4,
    batch_per_graph=4,
    evolve_block=2,
    trace_evolve_runs=2,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(workload, trace, capsys, tmp_path):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        sizes=TINY, out_dir=tmp_path,
    )
    assert code == 0
    result = last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_formula_makes_checks_fail(workload):
    games = workloads.setup(workload, TINY)
    _, checks = workloads.run_timed(workload, games, 3, 0.01, TINY, formula=workloads.wrong_formula())
    assert checks.failed > 0
    assert checks.failed / checks.attempted > 0


def test_tracer_restores_every_module_attribute():
    modules = [getattr(mepnim, name) for name in ("evolution", "experiments", "fitness", "game", "genetics", "oracle", "play", "expr")]
    before = [dict(vars(m)) for m in modules]
    with pytest.raises(RuntimeError):
        with Tracer(mepnim):
            assert mepnim.evolution.graph_fitness is not before[0]["graph_fitness"]
            raise RuntimeError("leave the traced block early")
    after = [dict(vars(m)) for m in modules]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_traced_counters_repeat_exactly():
    first, checks = workloads.run_traced("evolve-4444", 5, TINY)
    second, _ = workloads.run_traced("evolve-4444", 5, TINY)
    assert checks.failed == 0
    assert {k: first[k] for k in workloads.EXACT} == {k: second[k] for k in workloads.EXACT}
    assert first["evolution.runs"] == TINY.trace_evolve_runs


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "evolve-4444", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
