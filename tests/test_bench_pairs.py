import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_refused_before_any_run(pairs, tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "run_once", lambda *args: pytest.fail("a benchmark ran"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", pairs, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_failed_run_shows_its_stderr_and_keeps_the_pairs_so_far(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    spec = {
        "command": ["python3", "run.py"],
        "run_seconds": 1,
        "workloads": [{"name": "first"}, {"name": "second"}],
        "end_to_end": [{"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.25}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []

    def fake_run(argv, cwd, capture_output, text, check=False):
        assert capture_output and text
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 128, "", "not a git repository")
        assert check
        runs.append(argv)
        if len(runs) == 7:  # second workload, second pair, first side
            raise subprocess.CalledProcessError(1, argv, "", "line 1\nTraceback\nValueError: boom\n")
        result = {"failed": 0, "attempted": 3, "metrics": {"speed": {"value": float(len(runs))}, "verify_s": {"value": 5.3e-05}}}
        return subprocess.CompletedProcess(argv, 0, json.dumps({"python": "3"}) + "\n" + json.dumps(result) + "\n", "")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    code = tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", "2", "--first-seed", "5", "--out", str(out)])
    assert code == 1
    assert len(runs) == 7
    err = capsys.readouterr().err
    assert "exited with status 1" in err and "ValueError: boom" in err
    assert "'verify_s': 5.3e-05" in err  # four significant digits, not rounded to 0.0001
    report = json.loads(out.read_text())
    assert report["workloads"]["first"]["metrics"]["speed"]["change"]["runs"] == [2.0, 3.0]
    second = report["workloads"]["second"]
    assert second["failed_run"] == {"side": "change", "seed": 6, "returncode": 1, "stderr_tail": "line 1\nTraceback\nValueError: boom"}
    assert second["seeds"] == [5, 6]
    assert [r["metrics"]["speed"]["value"] for r in second["results"]["parent"]] == [5.0]
    assert [r["metrics"]["speed"]["value"] for r in second["results"]["change"]] == [6.0]
