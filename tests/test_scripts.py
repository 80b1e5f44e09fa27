"""The example scripts run to completion with their closing checks passing."""

import os
import pathlib
import subprocess
import sys

import ramforge

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(pathlib.Path(ramforge.__file__).parents[1])


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_ramification_survey_script():
    lines = run_script("ramification_survey.py")
    assert lines[-1] == (
        "  every cover passed the degree, fiber, and Hurwitz identities"
    )


def test_tower_demo_script():
    lines = run_script("tower_demo.py")
    cert = lines[lines.index("certificate:") + 1 :]
    assert [line.split(":")[0].strip() for line in cert] == [
        "composite_equals_steps",
        "composite_degree",
        "branch_locus_subset",
        "wild_when_nontrivial",
        "special_places_to_infinity",
        "chain_e_multiplicative",
        "f_beta_separable",
    ]
    assert all(line.split(": ", 1)[1].startswith("ok (") for line in cert)


def test_kernel_timings_script():
    lines = run_script("kernel_timings.py", "--degrees", "2,40", "--repeat", "1", "--number", "2")
    rows = [line.split() for line in lines[2:-1]]
    assert [row[:2] for row in rows] == [[p, n] for p in ("3", "5", "13", "17") for n in ("2", "40")]
    assert all((row[2] == "-") == (row[0] == "17") for row in rows)
    assert lines[-1] == "  both paths returned the same gcd on every pair"
