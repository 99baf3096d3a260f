"""Traced run: spans around calls into each stoplab layer, recorded from outside.

Usage: python3 perfbench/trace.py CONFIG OUT_DIR

The tracer replaces stoplab's public layer functions, in every stoplab module
namespace that holds them, with wrappers that record a span (id, name, parent,
start, end, units) in memory; nothing inside ``src/`` changes.  The child then
runs, in one process:

* ``run.verdict``: ``run_experiment`` on the workload config;
* ``run.ensemble``: the same config with ``checks: []``;
* ``run.ensemble_norules``: also with ``rules: []``;
* ``run.probes``: one call of each check layer the verdict did not reach
  (branching, MGF, tail), at the workload's problem and a dimension-capped
  size, so every layer metric exists on every workload.

Spans are written to ``OUT_DIR/spans.jsonl`` at the end, and the layer
metrics derived from them to ``OUT_DIR/trace.json``.

The tracing overhead then comes from ``OVERHEAD_PAIRS`` pairs of verdicts,
one untraced and one traced, each in a child forked from this process, the
order alternating between pairs.  Each verdict is rescaled to nominal
machine speed by the reference kernel (``reference.py``) timed around it,
and the overhead is the ratio of the two sides' medians.
"""

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder that patches functions by identity."""

    def __init__(self):
        self.spans = []          # [id, name, parent_id, start_ns, end_ns, units]
        self._stack = [None]
        self._undo = []

    def _open(self, name, units):
        rec = [len(self.spans), name, self._stack[-1], 0, 0, units]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name, 1)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap_function(self, fn, name, units=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name, units(args, kwargs) if units else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)
        return traced

    def wrap_generator(self, fn, name, units):
        """Each ``next()`` on the returned generator is one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = tracer._open(name, 0)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(rec)
                rec[5] = units(item)
                yield item
        return traced

    def replace(self, target, replacement):
        """Point every stoplab module global bound to ``target`` at ``replacement``."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "stoplab" and not modname.startswith("stoplab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is target:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, val))
                    hits += 1
        return hits

    def patch_method(self, cls, attr, name):
        fn = getattr(cls, attr)
        setattr(cls, attr, self.wrap_function(fn, name))
        self._undo.append((cls, attr, fn))

    def restore(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()


def _points(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    shape = getattr(x, "shape", (1,))
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


def _draws(args, kwargs):
    n = args[2] if len(args) > 2 else kwargs.get("n")
    return 1 if n is None else int(n)


def _step_units(item):
    # StepRecords carry one traj-step per row of x_curr; the FinalRecord none.
    return item.x_curr.shape[0] if hasattr(item, "theta") else 0


def install(tracer: Tracer):
    """Wrap every layer boundary the metrics read; fail loudly on a missing one."""
    from stoplab import (concentration, harness, lyapunov, martingale, mcstats,
                         noise, objectives, series, sgdm)

    functions = [
        (sgdm.derive_seeds, "sgdm.derive_seeds", None),
        (noise.sample, "noise.sample", _draws),
        (objectives.grad, "objectives.grad", _points),
        (objectives.eval_objective, "objectives.eval", _points),
        (lyapunov.step_residuals, "lyapunov.step_residuals", None),
        (lyapunov.envelope_constants, "lyapunov.envelope_constants", None),
        (series.gamma1, "series.gamma1", None),
        (series.gamma2, "series.gamma2", None),
        (martingale.check_supermartingale, "martingale.branch_check", None),
        (mcstats.bootstrap_upper_quantile, "mcstats.bootstrap", None),
        (concentration.mgf_check, "concentration.mgf",
         lambda a, k: (a[0] if a else k["cfg"]).n_samples),
        (concentration.weighted_square_tail_check, "concentration.tail",
         lambda a, k: len(a[0]) * int(a[3] if len(a) > 3 else k["n_runs"])),
        (harness.parse_config, "harness.parse_config", None),
    ]
    for fn, name, units in functions:
        if not tracer.replace(fn, tracer.wrap_function(fn, name, units)):
            raise RuntimeError(f"trace hook {name} is not referenced by any stoplab module")
    gen = sgdm.stream_ensemble
    if not tracer.replace(gen, tracer.wrap_generator(gen, "sgdm.stream_next", _step_units)):
        raise RuntimeError("trace hook sgdm.stream_next is not referenced")
    tracer.patch_method(martingale.MartingaleTracker, "update", "martingale.tracker")
    tracer.patch_method(martingale.MartingaleTracker, "finish", "martingale.tracker")


def run_probes(cfg, report, reached: set):
    """Call each check layer the verdict did not reach, through the wrappers.

    Sizes are the workload's own option values capped so one noise block
    stays near 16 MB at the workload's dimension; the layer metrics these
    feed are per call or per unit, so the cap changes no unit cost.
    """
    import numpy as np
    from stoplab import concentration, lyapunov, martingale, sgdm

    dim = cfg.objective.dim
    opts = cfg.options
    cap = 2_000_000 // dim
    sigma = cfg.noise.sigma_certificate
    if "martingale.branch_check" not in reached:
        env = lyapunov.envelope_constants(cfg.sched, sigma, report.summary["E0"],
                                          float(opts["gamma_tol"]))
        n = max(1000, min(int(opts["n_branches"]), cap))
        k = int(max(opts["supermartingale_ks"]))
        martingale.check_supermartingale(
            cfg.objective, cfg.noise, cfg.sched, cfg.x0, cfg.base_seed, k,
            env.B / env.gamma2, n, gamma2_value=env.gamma2, B=env.B)
    if "concentration.mgf" not in reached:
        phi = cfg.x0 - cfg.objective.minimizer
        if not np.any(phi):
            phi = np.eye(dim)[0]
        n = max(1000, min(int(opts["mgf_n_samples"]), 1 << 17, cap))
        concentration.mgf_check(concentration.MgfCheckConfig(
            lambda_grid=opts["mgf_lambdas"], n_samples=n, noise=cfg.noise,
            phi_vector=phi, seed=cfg.base_seed))
    if "concentration.tail" not in reached:
        c_len = int(opts["tail_c_len"])
        c = np.asarray(sgdm.a_coeff(cfg.sched, np.arange(1, c_len + 1)))
        n = max(10, min(int(opts["tail_n_runs"]), cap // c_len))
        concentration.weighted_square_tail_check(c, cfg.noise, opts["tail_omegas"], n,
                                                 seed=cfg.base_seed)


def layer_metrics(spans) -> dict:
    """Per-layer numbers from the spans of one traced child.

    A span's self time is its duration minus its children's; "residue" is the
    self time of a root, i.e. harness code between the wrapped layer calls.
    """
    kids = defaultdict(list)
    for s in spans:
        kids[s[2]].append(s)
    roots = {s[1]: s for s in kids[None]}

    def dur(s):
        return (s[4] - s[3]) * 1e-9

    def below(root, name):
        out, todo = [], [root]
        while todo:
            for c in kids[todo.pop()[0]]:
                todo.append(c)
                if c[1] == name:
                    out.append(c)
        return out

    def total(group):
        return sum(dur(s) for s in group), sum(s[5] for s in group)

    def mean_s(group):
        return sum(dur(s) for s in group) / len(group)

    def residue(root):
        return dur(root) - sum(dur(c) for c in kids[root[0]])

    V = roots["run.verdict"]
    E = roots["run.ensemble"]
    N = roots["run.ensemble_norules"]
    stream = [c for c in kids[V[0]] if c[1] == "sgdm.stream_next"]
    stream_t, steps = total(stream)
    inner = [c for s in stream for c in kids[s[0]]]
    noise_t, draws = total([c for c in inner if c[1] == "noise.sample"])
    grad_t, grad_pts = total([c for c in inner if c[1] == "objectives.grad"])
    eval_t, eval_pts = total([c for c in inner if c[1] == "objectives.eval"])
    resid_t, _ = total([c for c in kids[V[0]] if c[1] == "lyapunov.step_residuals"])
    track_t, _ = total([c for c in kids[V[0]] if c[1] == "martingale.tracker"])
    steps_E = total([c for c in kids[E[0]] if c[1] == "sgdm.stream_next"])[1]
    steps_N = total([c for c in kids[N[0]] if c[1] == "sgdm.stream_next"])[1]

    everywhere = [V, roots.get("run.probes")]

    def all_below(name):
        return [s for r in everywhere if r for s in below(r, name)]

    branch = all_below("martingale.branch_check")
    branch_self = [dur(s) - sum(dur(c) for c in kids[s[0]] if c[1] == "mcstats.bootstrap")
                   for s in branch]
    mgf_t, mgf_n = total(all_below("concentration.mgf"))
    tail_t, tail_n = total(all_below("concentration.tail"))
    ns = 1e9
    return {
        "sgdm.traj_steps": steps,
        "sgdm.stream_ns_per_traj_step": stream_t * ns / steps,
        "noise.sample_ns_per_draw": noise_t * ns / draws,
        "objectives.grad_ns_per_point": grad_t * ns / grad_pts,
        "objectives.eval_ns_per_point": eval_t * ns / eval_pts,
        "sgdm.recurrence_ns_per_traj_step":
            (stream_t - noise_t - grad_t - eval_t) * ns / steps,
        "sgdm.derive_seeds_ms": mean_s(below(V, "sgdm.derive_seeds")) * 1e3,
        "lyapunov.step_residuals_ns_per_traj_step": resid_t * ns / steps,
        "martingale.tracker_ns_per_traj_step": track_t * ns / steps,
        "harness.rules_ns_per_traj_step":
            residue(E) * ns / steps_E - residue(N) * ns / steps_N,
        "harness.bookkeeping_ns_per_traj_step": residue(N) * ns / steps_N,
        "lyapunov.envelope_constants_s": mean_s(below(V, "lyapunov.envelope_constants")),
        "series.gamma1_s": mean_s(below(V, "series.gamma1")),
        "series.gamma2_s": mean_s(below(V, "series.gamma2")),
        "martingale.branch_check_s": sum(branch_self) / len(branch_self),
        "mcstats.bootstrap_s": mean_s(all_below("mcstats.bootstrap")),
        "concentration.mgf_ns_per_sample": mgf_t * ns / mgf_n,
        "concentration.tail_ns_per_draw": tail_t * ns / tail_n,
        "harness.ensemble_s": dur(E),
        # Everything after the verdict's last ensemble step: the checks and
        # the artifact writes.  Taken within the verdict, so no run-to-run noise.
        "harness.checks_s": (V[4] - max(s[4] for s in stream)) * 1e-9,
    }


OVERHEAD_PAIRS = 3


def _forked_verdict_s(raw: dict, traced: bool) -> float:
    """Wall seconds of one ``run_experiment`` call in a forked child."""
    from stoplab import harness

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            if traced:
                install(Tracer())
            cfg = harness.parse_config(raw)
            t0 = time.perf_counter()
            harness.run_experiment(cfg)
            os.write(write_fd, repr(time.perf_counter() - t0).encode())
            code = 0
        except BaseException:
            import traceback
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{'traced' if traced else 'untraced'} verdict child failed")
    return float(data)


def tracing_overhead(raw: dict) -> dict:
    """Median traced and untraced verdict times over alternating forked pairs."""
    import reference

    raw_s = {False: [], True: []}
    nominal_s = {False: [], True: []}
    before = reference.measure()
    for i in range(OVERHEAD_PAIRS):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t = _forked_verdict_s(raw, traced)
            after = reference.measure()
            raw_s[traced].append(t)
            nominal_s[traced].append(reference.at_nominal_speed(t, before, after))
            before = after
    return {
        "harness.verdict_traced_s": statistics.median(raw_s[True]),
        "harness.verdict_untraced_s": statistics.median(raw_s[False]),
        "harness.trace_overhead_frac":
            statistics.median(nominal_s[True]) / statistics.median(nominal_s[False]) - 1.0,
    }


def main(config_path: str, out_dir: str) -> int:
    import hashlib

    from stoplab import harness

    out = Path(out_dir)
    raw = json.loads(Path(config_path).read_text())
    cfg = harness.parse_config(raw)
    ensemble = dict(raw, checks=[], output_dir=str(out / "ensemble"))
    norules = dict(ensemble, rules=[], output_dir=str(out / "ensemble_norules"))

    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("run.verdict") as v:
            report = harness.run_experiment(cfg)
        reached = {s[1] for s in tracer.spans[v[0]:]}
        for root, doc in (("run.ensemble", ensemble), ("run.ensemble_norules", norules)):
            parsed = harness.parse_config(doc)
            with tracer.span(root):
                harness.run_experiment(parsed)
        with tracer.span("run.probes"):
            run_probes(cfg, report, reached)
    finally:
        tracer.restore()

    metrics = layer_metrics(tracer.spans)
    metrics["harness.checks_run"] = len(report.checks)
    metrics.update(tracing_overhead(dict(raw, output_dir=str(out / "overhead"))))
    with open(out / "spans.jsonl", "w") as f:
        for s in tracer.spans:
            f.write(json.dumps({"id": s[0], "name": s[1], "parent": s[2],
                                "start_ns": s[3], "end_ns": s[4], "units": s[5]}) + "\n")
    outdir = Path(report.output_dir)
    (out / "trace.json").write_text(json.dumps({
        "metrics": metrics,
        "checks": [[c["name"], bool(c["pass"])] for c in report.checks],
        "csv_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(outdir.glob("*.csv"))},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
