#!/usr/bin/env python3
"""Print a sha256 for every output file of each config, run at 1 and 2 workers.

Each config runs through ``run_experiment`` once with ``STOPLAB_WORKERS=1``
and once with 2, into a temporary directory.  In ``report.json`` the config's
``output_dir`` is blanked (set to "") before hashing, as it names that
directory; every other byte is hashed as written.  Run it in two checkouts
and diff the outputs to check that a change leaves every output byte as it
was:

    python3 scripts/output_digests.py configs/default.json configs/smoke.json
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stoplab.harness import parse_config, run_experiment

WORKERS = (1, 2)


def digests(config: str, workers: int, root: Path) -> list[tuple[str, str]]:
    """(file name, sha256) of each output file of ``config`` at ``workers`` workers."""
    raw = json.loads(Path(config).read_text())
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
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    args = parser.parse_args()
    for config in args.configs:
        with tempfile.TemporaryDirectory() as tmp:
            for workers in WORKERS:
                for name, digest in digests(config, workers, Path(tmp)):
                    print(f"{digest}  {config}  workers={workers}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
