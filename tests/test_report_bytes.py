"""``tools/report_bytes.py`` compares two checkouts' report bytes.

One cheap config runs with this checkout on both sides: the reports are
deterministic, so every file reads ``same`` and the script exits 0.  Under a
``DIFF`` table the script names each changed column with its largest
change.
"""

import importlib.util
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


def test_dual_entry_hashes_the_dual_search():
    # no run kind reaches minimize_dual, so its entry writes its own CSV:
    # a header and one row per y and claim, each with six coefficients
    proc = subprocess.run(
        [sys.executable, "tools/report_bytes.py", "--only", "dual", "a=.",
         "b=."], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("same ") and lines[1].endswith(" dual/dual.csv")
    assert lines[-1] == "1 same, 0 differ"
    hashes = _report_bytes().report_hashes(ROOT, {"dual": ("minimize_dual",
                                                           200, 4)})
    _, text = hashes["dual/dual.csv"]
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert header[-1] == "coeffs" and len(rows) == 4
    assert [(r[0], r[1]) for r in rows] == [("0.5", "claim"), ("0.5", "free"),
                                            ("2", "claim"), ("2", "free")]
    assert all(len(r[-1].split()) == 6 for r in rows)


def _report_bytes():
    spec = importlib.util.spec_from_file_location(
        "report_bytes", ROOT / "tools" / "report_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_column_changes_name_each_changed_column():
    column_changes = _report_bytes().column_changes
    ref = "rho,u,note,z\n0,1.5,ok,-0\n0.5,2.0,ok,nan\n"
    new = "rho,u,note,z\n0,1.5000000000000002,ok,0\n0.5,2.5,no,nan\n"
    assert column_changes("s/sweep.csv", ref, new) == [
        "     u: largest change 0.5 absolute, 0.2 relative (2 of 2 rows)",
        "     note: text changed",
        "     z: same numbers, other text"]
    assert column_changes("s/sweep.csv", ref, ref + "1,1,ok,1\n") == [
        "     columns or row counts differ"]
    dat = "# title\n# rho price\n0 1\n0.4 1.25\n"
    assert column_changes("s/prices.dat", dat,
                          dat.replace("1.25", "1")) == [
        "     price: largest change 0.25 absolute, 0.2 relative "
        "(1 of 2 rows)"]
