"""``scripts/demo_pipeline.py``, the README's first walkthrough, runs end to end."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "demo_pipeline.py"


def test_demo_pipeline_runs(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("demo_pipeline", SCRIPT)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(["--workdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "two runs byte-identical: ok" in out and "== eval-retriever ==" in out
    assert (tmp_path / "results.json").exists()
