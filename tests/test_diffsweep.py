"""tools/diffsweep.py, pointed at this checkout on both sides."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_diffsweep_of_a_checkout_against_itself_finds_no_mismatch():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "diffsweep.py"), str(ROOT),
         str(ROOT), "--configs", "2", "--seeds", "1"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    counts = dict(field.split("=") for field in result.stdout.split())
    # 2 random configs x 4 policies x 2 thermal modes x (synthetic, trace),
    # and fleet, overload, churn and the train protocol at seed 1.
    assert counts["runs"] == "36" and counts["mismatches"] == "0"
