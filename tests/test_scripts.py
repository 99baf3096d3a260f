"""The scripts under scripts/ run end to end at small arguments."""

import json
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


def test_output_digests_take_a_workload_name_and_seed(tmp_path, monkeypatch):
    # NAME@SEED runs the benchmark workload that perfbench/workloads.py
    # generates: its digests are those of the same document read from a file
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    import workloads

    doc = tmp_path / "highdim.json"
    doc.write_text(json.dumps(workloads.generate("highdim-d1200", 3)))
    out = subprocess.run([sys.executable, str(SCRIPTS / "output_digests.py"),
                          "highdim-d1200@3", str(doc)], capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = [line.split("  ") for line in out.stdout.splitlines()]
    names = ["coverage.csv", "report.json", "trajectory_0.csv", "trajectory_1.csv"]
    assert [(c, w, name) for _, c, w, name in lines] == [
        (c, f"workers={w}", name) for c in ("highdim-d1200@3", str(doc)) for w in (1, 2)
        for name in names]
    digests = [d for d, *_ in lines]
    assert digests[:8] == digests[8:] and digests[:4] == digests[4:8]


def test_output_digests_fail_and_name_the_files_when_worker_counts_differ(monkeypatch, capsys):
    # a config whose outputs at 2 workers differ from those at 1 makes the
    # script exit 1 and name each file that differs, or that only one run wrote
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPTS / "output_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    runs = {1: [("coverage.csv", "a"), ("report.json", "b"), ("trajectory_0.csv", "c")],
            2: [("coverage.csv", "a"), ("report.json", "x"), ("trajectory_1.csv", "c")]}
    monkeypatch.setattr(script, "digests", lambda config, workers, root: runs[workers])
    monkeypatch.setattr(sys, "argv", ["output_digests.py", "some.json"])
    assert script.main() == 1
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 6
    assert out.err == ("some.json: outputs differ between 1 and 2 workers: "
                       "report.json, trajectory_0.csv, trajectory_1.csv\n")
    runs[2] = runs[1]
    assert script.main() == 0
    assert capsys.readouterr().err == ""


def test_output_digests_run_the_standard_set_with_no_config(monkeypatch):
    # every entry of the standard set loads and parses; nothing is run
    import importlib.util

    from stoplab.harness import parse_config

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPTS / "output_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    ran = []
    monkeypatch.setattr(script, "digests",
                        lambda config, workers, root: ran.append((config, workers)) or [])
    monkeypatch.setattr(sys, "argv", ["output_digests.py"])
    assert script.main() == 0
    assert ran == [(c, w) for c in script.STANDARD for w in script.WORKERS]
    names = [Path(c).name for c in script.STANDARD if c.startswith("scripts/digest_configs/")]
    assert len(names) == 5 and "diverge-prefix.json" in names
    for config in script.STANDARD:
        parse_config(script.load(config))
