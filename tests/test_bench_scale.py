"""The size-sweep script, run as a user runs it, on its smallest row."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_plate30_row_reproduces_the_committed_total_error(tmp_path):
    out = tmp_path / "scale.json"  # the default output is the committed file
    subprocess.run([sys.executable, "scripts/bench_scale.py", "--rows",
                    "plate30", "--out", str(out)], cwd=REPO, check=True,
                   capture_output=True, timeout=300)
    (row,) = json.loads(out.read_text(encoding="utf-8"))["rows"]
    committed = {r["total_error"] for r in json.loads(
        (REPO / "BENCH_scale.json").read_text(encoding="utf-8"))["rows"]
        if r["row"] == "plate30"}
    assert row["row"] == "plate30" and row["seed"] == 11
    assert committed == {row["total_error"]} == {0.0008436953698997377}
