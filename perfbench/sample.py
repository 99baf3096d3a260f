"""Benchmark samples: a fresh interpreter sets up once, then forks one child per verdict.

Usage: python3 perfbench/sample.py CONFIG SPAWN_MONOTONIC DEADLINE_MONOTONIC RESULT_JSON

``SPAWN_MONOTONIC`` is ``time.monotonic()`` read by the parent just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux), so
``setup_s`` covers interpreter start, ``import stoplab`` and config parsing,
which is what every CLI invocation pays.  Only the standard library and
stoplab's public harness API are imported before then.

Each verdict then runs in a child forked from the set-up process: a fresh
process whose first ``run_experiment`` call is timed, without paying the
import again.  Children are forked one after another until
``DEADLINE_MONOTONIC`` (at least one).  Right after set-up, and between
children, this process times the reference kernel (``reference.py``) on the
same vCPU, in wall and CPU time, so the parent can rescale set-up and each
verdict to a nominal machine speed.
"""

import json
import os
import sys
import time
import traceback
from pathlib import Path


def _verdict(raw: dict) -> dict:
    import hashlib
    import resource

    from stoplab.harness import parse_config, run_experiment

    cfg = parse_config(raw)
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ru0 = [resource.getrusage(w) for w in who]
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    verdict_s = time.perf_counter() - t0
    ru1 = [resource.getrusage(w) for w in who]
    cpu_s = sum((b.ru_utime - a.ru_utime) + (b.ru_stime - a.ru_stime)
                for a, b in zip(ru0, ru1))
    outdir = Path(report.output_dir)
    return {
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": ru1[0].ru_maxrss / 1024.0,
        "checks": [[c["name"], bool(c["pass"])] for c in report.checks],
        "csv_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(outdir.glob("*.csv"))},
    }


def _fork_verdict(raw: dict, out_path: str):
    """Run one verdict in a forked child; its result dict, or None if it failed."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            with open(out_path, "w") as f:
                json.dump(_verdict(raw), f)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    with open(out_path) as f:
        return json.load(f)


def main(config_path: str, spawn_t: float, deadline: float, out_path: str) -> int:
    from stoplab.harness import parse_config

    with open(config_path) as f:
        raw = json.load(f)
    parse_config(raw)
    setup_s = time.monotonic() - spawn_t

    import reference

    result = {
        "setup_s": setup_s,
        "reference_setup": reference.measure(),
        "stoplab_file": sys.modules["stoplab"].__file__,
        "verdicts": [],
    }
    ref_before = reference.measure()
    while True:
        started = time.monotonic()
        verdict = _fork_verdict(raw, out_path + ".child")
        ref_after = reference.measure()
        if verdict is not None:
            verdict.update(reference_before=ref_before, reference_after=ref_after)
        result["verdicts"].append(verdict)
        ref_before = ref_after
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    Path(out_path + ".child").unlink(missing_ok=True)
    with open(out_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), sys.argv[4]))
