"""``tools/report_bytes.py`` compares two checkouts' report bytes.

One cheap config runs with this checkout on both sides: the reports are
deterministic, so every file reads ``same`` and the script exits 0.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_checkout_reports_same_bytes():
    proc = subprocess.run(
        [sys.executable, "tools/report_bytes.py", "--only", "oracle-check",
         "a=.", "b=."], cwd=ROOT, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["same"]
    assert lines[1].endswith(" oracle-check/oracle.csv")
    assert lines[-1] == "1 same, 0 differ"
