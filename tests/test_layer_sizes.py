import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_sizes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("layer_sizes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smallest_size_in_a_child_process(capsys):
    assert load_tool().main(["--states", "70"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["70"]
    row = report["70"]
    assert (row["heaps"], row["mode"], row["states"], row["edges"]) == ([4, 4, 4, 4], "multiset", 70, 350)
    assert list(row["seconds"]) == ["build", "label", "verify", "fitness"]
    assert all(s >= 0 for s in row["seconds"].values())
    assert row["total_s"] == pytest.approx(sum(row["seconds"].values()))
    # the mean seconds of one game of the xor formula against a seeded
    # random player, outside the steps and their sum
    assert 0 < row["play_game_s"] < 1
    # the same for the oracle's classifier, made once in the timing
    assert 0 < row["oracle_play_game_s"] < 1
    assert row["peak_rss_mb"] > 1
    # the mean seconds of one graph_fitness call over a seeded batch: its
    # first pass, and its third, once the graph is warm
    assert 0 < row["fitness_first_batch_s"] < 1
    assert 0 < row["fitness_batch_s"] < 1


@pytest.mark.parametrize(
    "states,message",
    [("71", "no game of 71 states"), ("70,x", "comma-separated integers"), ("", "comma-separated integers")],
)
def test_unknown_size_refused(states, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main(["--states", states])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
