import importlib.util
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
