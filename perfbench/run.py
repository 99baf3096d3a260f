#!/usr/bin/env python3
"""stoplab benchmark: time-to-verdict on four shaped workloads.

Run one workload (from the root of a stoplab checkout):

    python3 perfbench/run.py --workload cov-wide --seed 1 --seconds 28 --trace 0

Compare two result sets (directories of result records this script wrote):

    python3 perfbench/run.py --compare .perfbench/parent .perfbench/change

With ``--trace 0`` fresh interpreters each import stoplab from ``./src``
and parse the generated config (one ``setup_s`` sample), then fork one child
per verdict (``sample.py``) until ``--seconds`` is used up; at least three
interpreters run, and the end-to-end metrics are medians, with wall and
CPU times rescaled to a nominal machine speed (``reference.py``).  With
``--trace 1`` one traced child (``trace.py``) gives the per-layer metrics.
The last line of standard output is the result: ``correct``,
``attempted``/``failed`` (check records expected/missing-or-failed) and
``metrics``.  The full record, with every sample, the gates and provenance,
goes to ``--out``.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

MIN_PROCESSES = 3     # set-up processes per untraced run, at least
SETUP_PROCESSES = 4   # each set-up process gets a quarter of the run
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Context:
    """Where a run reads the program and writes its scratch files."""

    root: Path          # checkout root; the program is root/src/stoplab
    work: Path          # scratch for configs, outputs and spans
    env: dict           # environment for every child
    config_sha256: dict = field(default_factory=dict)  # config file -> sha256
    nproc: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))
    # Every child runs on this one vCPU: on a shared host each vCPU's speed
    # drifts on its own, and the reference kernel only tracks the vCPU it
    # runs on.
    cpu: int = field(default_factory=lambda: max(os.sched_getaffinity(0)))

    @classmethod
    def create(cls, root: Path) -> "Context":
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["STOPLAB_WORKERS"] = "1"
        for var in THREAD_VARS:
            env[var] = "1"
        return cls(root=root, work=root / ".perfbench" / "work", env=env)


def _benchmark_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def write_config(ctx: Context, tag: str, cfg: dict) -> Path:
    """Write a generated config where the program will read it."""
    d = ctx.work / tag
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    doc = dict(cfg, output_dir=str((d / "out").relative_to(ctx.root)))
    path = d / "config.json"
    data = workloads.canonical(doc)
    path.write_bytes(data)
    ctx.config_sha256[str(path.relative_to(ctx.root))] = hashlib.sha256(data).hexdigest()
    return path


def _run_child(ctx: Context, argv: list, env=None, capture_stderr=False):
    """Run one child in its own process group; (exit code, stderr), or (None, None)
    on timeout.  The whole group is killed if the child is cut short, so no
    forked verdict or worker outlives it."""
    proc = subprocess.Popen(argv, cwd=ctx.root, env=env or ctx.env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE if capture_stderr else None,
                            text=True, start_new_session=True)
    try:
        os.sched_setaffinity(proc.pid, {ctx.cpu})
    except ProcessLookupError:
        pass
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        return proc.returncode, err
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def run_setup_process(ctx: Context, config_path: Path, deadline: float, workers: int = 1):
    """One fresh interpreter and the verdicts it forks (see sample.py); None on failure."""
    out = config_path.parent / "sample.json"
    out.unlink(missing_ok=True)
    env = dict(ctx.env, STOPLAB_WORKERS=str(workers))
    spawn = time.monotonic()
    code, _ = _run_child(ctx, [sys.executable, str(BENCH_DIR / "sample.py"),
                               str(config_path), repr(spawn), repr(deadline), str(out)],
                         env=env)
    if code != 0 or not out.is_file():
        return None
    return json.loads(out.read_text())


def score_checks(expected: Counter, checks) -> tuple:
    """(attempted, failed, exact) for one report's check records.

    Every expected record that is missing or did not pass counts as failed;
    ``exact`` also requires no unexpected records.
    """
    attempted = sum(expected.values())
    if checks is None:
        return attempted, attempted, False
    passed = Counter(name for name, ok in checks if ok)
    failed = attempted - sum(min(n, passed[c]) for c, n in expected.items())
    exact = failed == 0 and Counter(name for name, _ in checks) == expected
    return attempted, failed, exact


class Gates:
    """Named correctness gates; any failure makes the run incorrect."""

    def __init__(self):
        self.results = {}

    def check(self, name: str, ok: bool, detail=None):
        self.results[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results.values())


def _same_digests(a, b) -> bool:
    return a is not None and b is not None and bool(a) and a == b


def measure_untraced(ctx: Context, cfg: dict, seconds: float, gates: Gates,
                     min_processes: int = MIN_PROCESSES) -> dict:
    """Set-up processes, each forking verdicts, for ``seconds``; medians of the e2e metrics.

    Each of the (at least ``min_processes``) set-up processes gets an equal
    slice of the run; a new one starts only while a set-up and one verdict
    still fit.
    """
    path = write_config(ctx, "untraced", cfg)
    expected = workloads.expected_checks(cfg)

    end = time.monotonic() + seconds
    processes = []
    while True:
        started = time.monotonic()
        proc = run_setup_process(ctx, path, min(started + seconds / SETUP_PROCESSES, end))
        processes.append(proc)
        wall = time.monotonic() - started
        one = wall if proc is None else (
            proc["setup_s"] + (wall - proc["setup_s"]) / len(proc["verdicts"]))
        if len(processes) >= min_processes and time.monotonic() + one > end:
            break
    good = [p for p in processes if p]
    verdicts = [v for p in good for v in p["verdicts"]]
    attempted = failed = 0
    for i, v in enumerate(verdicts):
        a, f, exact = score_checks(expected, v and v["checks"])
        attempted, failed = attempted + a, failed + f
        gates.check(f"checks_exact[{i}]", exact)
    ok = [v for v in verdicts if v]
    gates.check("processes_completed", len(good) == len(processes),
                f"{len(good)}/{len(processes)}")
    gates.check("verdicts_completed", len(ok) == len(verdicts) > 0,
                f"{len(ok)}/{len(verdicts)}")
    digests = [v["csv_sha256"] for v in ok]
    gates.check("csv_identical_across_repeats",
                bool(digests) and all(_same_digests(d, digests[0]) for d in digests))
    src = str(ctx.root / "src")
    gates.check("program_from_checkout", all(p["stoplab_file"].startswith(src) for p in good))
    metrics, raw = {}, {}
    if ok:
        def rescaled(v, key, clock="wall_s"):
            return reference.at_nominal_speed(
                v[key], v["reference_before"], v["reference_after"], clock=clock)

        metrics = {
            "verdict_s": statistics.median(rescaled(v, "verdict_s") for v in ok),
            # Medians of set-up and of the reference timed after each one:
            # set-up drifts across minutes, and single pairs track it poorly.
            "setup_s": reference.at_nominal_speed(
                statistics.median(p["setup_s"] for p in good),
                {"wall_s": statistics.median(p["reference_setup"]["wall_s"] for p in good)}),
            "cpu_s": statistics.median(rescaled(v, "cpu_s", clock="cpu_s") for v in ok),
            "peak_rss_mb": statistics.median(v["peak_rss_mb"] for v in ok),
        }
        raw = {"verdict_s": statistics.median(v["verdict_s"] for v in ok),
               "setup_s": statistics.median(p["setup_s"] for p in good),
               "cpu_s": statistics.median(v["cpu_s"] for v in ok)}
    # An unattempted run (no verdict at all) still counts its checks as failed.
    if not verdicts:
        attempted = failed = sum(expected.values())
    return {"processes": processes, "metrics": metrics, "raw_metrics": raw,
            "attempted": attempted, "failed": failed,
            "csv_sha256": digests[0] if digests else None}


def import_times(ctx: Context) -> dict:
    """Cumulative import seconds of stoplab.cli and stoplab.mcstats (-X importtime)."""
    code, err = _run_child(ctx, [sys.executable, "-X", "importtime", "-c",
                                 "import stoplab.cli"], capture_stderr=True)
    if code != 0:
        raise RuntimeError(f"import stoplab.cli failed:\n{err}")
    cumulative = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    return {"cli.import_s": cumulative["stoplab.cli"],
            "mcstats.import_s": cumulative["stoplab.mcstats"]}


def measure_traced(ctx: Context, name: str, cfg: dict, gates: Gates) -> dict:
    """Per-layer metrics from one traced child plus the gates around it."""
    untraced = measure_untraced(ctx, cfg, 0.0, gates, min_processes=1)
    path = write_config(ctx, "traced", cfg)
    out = path.parent
    code, _ = _run_child(ctx, [sys.executable, str(BENCH_DIR / "trace.py"),
                               str(path), str(out)])
    trace_file = out / "trace.json"
    traced = json.loads(trace_file.read_text()) if code == 0 and trace_file.is_file() else None
    gates.check("traced_child_completed", traced is not None)
    expected = workloads.expected_checks(cfg)
    a, f, exact = score_checks(expected, traced and traced["checks"])
    gates.check("traced_checks_exact", exact)
    attempted, failed = untraced["attempted"] + a, untraced["failed"] + f
    result = {"untraced": untraced, "traced": traced, "attempted": attempted,
              "failed": failed, "metrics": {}}
    if traced is None:
        return result
    m = dict(traced["metrics"])
    gates.check("traj_steps_equal_R_times_K", m["sgdm.traj_steps"] == cfg["R"] * cfg["K"],
                m["sgdm.traj_steps"])
    gates.check("traced_csv_equals_untraced",
                _same_digests(traced["csv_sha256"], untraced["csv_sha256"]))
    if name == "cov-wide":
        proc = run_setup_process(ctx, write_config(ctx, "workers2", cfg), 0.0, workers=2)
        two = proc and proc["verdicts"][0]
        a, f, exact = score_checks(expected, two and two["checks"])
        attempted, failed = attempted + a, failed + f
        gates.check("workers_1_vs_2_csv_identical",
                    _same_digests(two and two["csv_sha256"], untraced["csv_sha256"]),
                    two and two["csv_sha256"])
        result["workers2"] = two
    m.update(import_times(ctx))
    result.update(metrics=m, attempted=attempted, failed=failed)
    return result


def _git(ctx: Context, *args):
    try:
        r = subprocess.run(["git", *args], cwd=ctx.root, capture_output=True,
                           text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(ctx: Context, seed: int, cfg: dict) -> dict:
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    top = _git(ctx, "rev-parse", "--show-toplevel")
    own = top is not None and Path(top).resolve() == ctx.root.resolve()
    sha = _git(ctx, "rev-parse", "HEAD") if own else None
    status = _git(ctx, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": ctx.nproc,
        "pinned_cpu": ctx.cpu,
        "cpu_count": os.cpu_count(),
        "thread_env": {v: ctx.env.get(v) for v in THREAD_VARS + ("STOPLAB_WORKERS",)},
        "seed": seed,
        "generated_config_sha256": workloads.config_sha256(cfg),
        "config_files_sha256": ctx.config_sha256,
        "platform": platform.platform(),
    }


def measure(ctx: Context, name: str, cfg: dict, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record including the result line."""
    gates = Gates()
    started = time.time()
    warm, _ = _run_child(ctx, [sys.executable, "-c", "import stoplab.harness"])
    if warm != 0:
        raise RuntimeError("import stoplab.harness failed in the checkout")
    if trace:
        body = measure_traced(ctx, name, cfg, gates)
    else:
        body = measure_untraced(ctx, cfg, seconds, gates)
    spec = _benchmark_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in body["metrics"]]
    gates.check("all_metrics_emitted", not missing, missing)
    gates.check("no_failed_checks", body["failed"] == 0, body["failed"])
    result = {
        "correct": gates.ok,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {d["name"]: {"value": body["metrics"][d["name"]], "unit": d["unit"]}
                    for d in declared if d["name"] in body["metrics"]},
    }
    return {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "started_at": started, "wall_s": time.time() - started,
        "checks_failed_frac": body["failed"] / body["attempted"],
        "gates": gates.results, "body": body, "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=_benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; results are not comparable")
    parser.add_argument("--out", default=".perfbench/results",
                        help="directory for full result records")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of result records")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so children are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.compare:
        return compare.main(*args.compare, _benchmark_spec())
    if not args.workload:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "stoplab" / "harness.py").is_file():
        print(f"no stoplab source under {root / 'src'}; run from a stoplab checkout",
              file=sys.stderr)
        return 2
    ctx = Context.create(root)
    cfg = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    record = measure(ctx, args.workload, cfg, args.seconds, bool(args.trace))
    record["provenance"] = provenance(ctx, args.seed, cfg)
    record["config"] = cfg
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(record['started_at'] * 1e3)}"
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
