#!/usr/bin/env python3
"""Print a sha256 for every output file of each config, run at 1 and 2 workers.

A config is a JSON file or ``NAME@SEED``, the benchmark workload NAME
(``perfbench/workloads.py``) generated at SEED.  Each config runs through
``run_experiment`` once with ``STOPLAB_WORKERS=1`` and once with 2, into a
temporary directory.  In ``report.json`` the config's
``output_dir`` is blanked (set to "") before hashing, as it names that
directory; every other byte is hashed as written.  Run it in two checkouts
and diff the outputs to check that a change leaves every output byte as it
was:

    python3 scripts/output_digests.py configs/default.json configs/smoke.json cov-wide@7

With no CONFIG it runs the standard set, ``STANDARD``: the two committed
configs, the four workloads at seed 5 and the documents under
``scripts/digest_configs/`` (zero noise, a least-squares and a Huber
problem, and two runs that diverge, one in the ensemble and one in the
supermartingale check's prefix).  A path is read from the working
directory, else from the repository root.

The exit status is 1, with the files named on standard error, when a
config's outputs at 1 and 2 workers differ: results must be bitwise the
same for any worker count.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))

import workloads
from stoplab.harness import parse_config, run_experiment

WORKERS = (1, 2)
STANDARD = ["configs/default.json", "configs/smoke.json",
            *(f"{name}@5" for name in ("cov-wide", "lsq-d64", "highdim-d1200", "checks-all")),
            *sorted(f"scripts/digest_configs/{p.name}"
                    for p in (ROOT / "scripts" / "digest_configs").glob("*.json"))]


def load(config: str) -> dict:
    """The document of ``config``: a JSON file, or NAME@SEED for a benchmark workload."""
    for path in (Path(config), ROOT / config):
        if path.is_file():
            return json.loads(path.read_text())
    name, _, seed = config.partition("@")
    return workloads.generate(name, int(seed))


def digests(config: str, workers: int, root: Path) -> list[tuple[str, str]]:
    """(file name, sha256) of each output file of ``config`` at ``workers`` workers."""
    raw = load(config)
    outdir = root / f"w{workers}"
    raw["output_dir"] = str(outdir)
    os.environ["STOPLAB_WORKERS"] = str(workers)
    run_experiment(parse_config(raw))
    out = []
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = data.replace(json.dumps(str(outdir)).encode(), b'""')
        out.append((path.name, hashlib.sha256(data).hexdigest()))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", metavar="CONFIG",
                        help="JSON files or NAME@SEED (default: the standard set)")
    args = parser.parse_args()
    status = 0
    for config in args.configs or STANDARD:
        with tempfile.TemporaryDirectory() as tmp:
            runs = [dict(digests(config, workers, Path(tmp))) for workers in WORKERS]
        for workers, run in zip(WORKERS, runs):
            for name, digest in run.items():
                print(f"{digest}  {config}  workers={workers}  {name}")
        differ = sorted(name for name in runs[0].keys() | runs[1].keys()
                        if runs[0].get(name) != runs[1].get(name))
        if differ:
            print(f"{config}: outputs differ between {WORKERS[0]} and {WORKERS[1]} workers: "
                  f"{', '.join(differ)}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
