"""The scripts under scripts/ run end to end at small arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,line,header", [
    ("constants_table.py", ["--sigmas", "1", "--epsilons", "0.3"], 0,
     ["schedule", "sigma", "gamma1", "gamma2", "C1", "C2"]),
    ("envelope_comparison.py", ["--k-max-exp", "3"], 2,
     ["k", "envelope", "baseline", "ratio"]),
])
def test_script_runs(script, args, line, header):
    out = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[line].split() == header


def test_output_digests_blank_the_output_dir():
    # one line per output file and worker count; with output_dir blanked,
    # the two worker counts' reports hash alike
    config = str(SCRIPTS.parent / "configs" / "smoke.json")
    out = subprocess.run([sys.executable, str(SCRIPTS / "output_digests.py"), config],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = [line.split("  ") for line in out.stdout.splitlines()]
    assert [(c, w, name) for _, c, w, name in lines] == [
        (config, f"workers={w}", name) for w in (1, 2)
        for name in ("report.json", "trajectory_0.csv")]
    digests = [d for d, *_ in lines]
    assert digests[:2] == digests[2:] and all(len(d) == 64 for d in digests)
