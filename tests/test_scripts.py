"""The scripts under scripts/, run at small sizes in a subprocess."""
import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_flagship_report(tmp_path):
    trace = tmp_path / "trace.csv"
    doc = json.loads(run_script("flagship_report.py", "--samples", 16, "--trace-csv", trace))
    assert doc["in_critical_cone"] is True
    assert doc["curvature_correction"] == pytest.approx(2.0, abs=1e-12)
    assert doc["second_subderivative"] == pytest.approx(2.0, abs=1e-12)
    assert isinstance(doc["oracle_estimate"], float)
    rows = read_csv(trace)
    assert rows[0] == ["t", "min_quotient", "at_w_quotient"]
    assert [float(r[0]) for r in rows[1:]] == [1e-2, 1e-3, 1e-4]
    assert all(float(r[1]) <= float(r[2]) for r in rows[1:])


def test_residual_orders(tmp_path):
    curves = tmp_path / "curves.csv"
    out = run_script("residual_orders.py", "--trials", 3, "--n", 4, "--csv", curves)
    slopes = [float(m) for m in re.findall(r"slope:\s+median (-?\d+\.\d+)", out)]
    assert slopes == [pytest.approx(2.0, abs=0.1), pytest.approx(3.0, abs=0.1)]
    rows = read_csv(curves)
    assert rows[0] == ["instance", "t", "first_order_remainder", "prediction_remainder"]
    assert len(rows) == 1 + 3 * 4  # three trials, four grid levels each
