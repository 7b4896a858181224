"""README's library example, run as a reader would paste it."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_readme_python_block_runs_and_prints_the_canonical_total_error():
    (code,) = re.findall(r"^```python\n(.*?)^```$",
                         (REPO / "README.md").read_text(encoding="utf-8"),
                         re.DOTALL | re.MULTILINE)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "total_error   4.234278e-03" in done.stdout.splitlines()
