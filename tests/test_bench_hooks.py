"""The benchmark's layer hooks must find every boundary they wrap.

``perfbench/trace.py`` wraps stoplab's public layer functions from outside
and raises when one of them is gone; a refactor that drops or renames a
hooked name fails here instead of only in the benchmark's smoke test.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _load_trace():
    # loaded by path: ``import trace`` would find the standard library module
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if name == "stoplab" or name.startswith("stoplab.")
            for attr, val in vars(mod).items() if callable(val)}


def test_trace_hooks_install_and_restore():
    from stoplab import martingale, sgdm

    trace = _load_trace()
    assert inspect.isgeneratorfunction(sgdm.stream_ensemble)
    # the call the benchmark's probes make
    inspect.signature(martingale.check_supermartingale).bind(
        None, None, None, np.zeros(1), 0, 1, 1.0, 1000, gamma2_value=1.0, B=1.0)
    tracer = trace.Tracer()
    before = _bindings()
    methods = dict(vars(martingale.MartingaleTracker))
    try:
        trace.install(tracer)
        assert tracer._undo
    finally:
        tracer.restore()
    after = _bindings()
    assert all(after[key] is val for key, val in before.items())
    assert vars(martingale.MartingaleTracker)["update"] is methods["update"]
    assert vars(martingale.MartingaleTracker)["finish"] is methods["finish"]


def test_trace_units_count_trajectory_steps():
    # the trace counts a record's traj-steps as its x_curr rows and an
    # objective call's points as the rows of its input: both must be R
    from stoplab import noise, objectives, sgdm

    trace = _load_trace()
    tracer = trace.Tracer()
    try:
        trace.install(tracer)
        obj = objectives.quadratic(np.array([1.0, 2.0, 3.0]))
        gauss = noise.calibrate(noise.NoiseKind.GAUSSIAN_ISOTROPIC, 3, 1.0)
        sched = sgdm.ScheduleVariant(sgdm.Variant.THEOREM_MAIN, L=3.0)
        seeds = sgdm.derive_seeds(1, 5)
        for _ in sgdm.stream_ensemble(obj, gauss, sched, 3, seeds, np.ones(3)):
            pass
    finally:
        tracer.restore()
    units = {}
    for span in tracer.spans:
        units.setdefault(span[1], []).append(span[5])
    assert sum(units["sgdm.stream_next"]) == 15
    assert units["objectives.grad"] == [5, 5, 5]
    assert set(units["objectives.eval"]) == {5}


def test_trace_spans_reach_every_check_layer(tmp_path):
    # the traced benchmark child divides by these spans: a check layer that
    # is inlined or bypassed leaves its metric without a denominator
    from stoplab import harness

    trace = _load_trace()
    cfg = harness.parse_config({
        "objective": {"kind": "quadratic", "diag": [1.0, 2.0]},
        "noise": {"kind": "gaussian-isotropic", "sigma": 1.0},
        "schedule": {"variant": "theorem-main"},
        "K": 20, "R": 4, "base_seed": 5, "x0": [2.0, -1.0], "betas": [0.05],
        "checks": list(harness.CHECKS), "output_dir": str(tmp_path),
        "options": {"supermartingale_ks": [2], "n_branches": 1000,
                    "mgf_n_samples": 1000, "tail_n_runs": 200, "tail_c_len": 10},
    })
    tracer = trace.Tracer()
    try:
        trace.install(tracer)
        report = harness.run_experiment(cfg)
    finally:
        tracer.restore()
    assert report.passed
    names = {span[1] for span in tracer.spans}
    for name in ("series.gamma1", "series.gamma2", "lyapunov.envelope_constants",
                 "mcstats.bootstrap", "concentration.tail", "concentration.mgf",
                 "martingale.branch_check"):
        assert name in names, name


def test_probe_branch_check_is_one_call_with_one_bootstrap():
    # the benchmark's probe passes one int k and its own branch count; the
    # traced stream workloads read their branch and bootstrap metrics per call
    from stoplab import martingale, noise, objectives, series, sgdm

    trace = _load_trace()
    obj = objectives.quadratic(np.array([1.0, 2.0]))
    gauss = noise.calibrate(noise.NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    sched = sgdm.ScheduleVariant(sgdm.Variant.THEOREM_MAIN, L=2.0)
    value, width = series.gamma2(sched, 1.0, 1e-6)
    g2 = value + width
    tracer = trace.Tracer()
    try:
        trace.install(tracer)
        (record,) = martingale.check_supermartingale(
            obj, gauss, sched, np.array([2.0, -1.0]), 5, 3, 1.0 / g2, 1000,
            gamma2_value=g2, B=1.0)
    finally:
        tracer.restore()
    names = [span[1] for span in tracer.spans]
    assert names.count("martingale.branch_check") == 1
    assert names.count("mcstats.bootstrap") == 1
    assert record["pass"]


def test_traced_child_counts_every_trajectory_step(tmp_path, monkeypatch):
    # the benchmark's traced child end to end on the tiny cov-wide workload:
    # it counts each streamed step's trajectories (R K in all) and derives
    # every layer metric from its spans
    import json
    import math

    monkeypatch.syspath_prepend(str(TRACE.parent))  # tracing_overhead imports reference
    import workloads

    trace = _load_trace()
    raw = dict(workloads.generate("cov-wide", 3, tiny=True), output_dir=str(tmp_path / "run"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert trace.main(str(config), str(tmp_path)) == 0
    metrics = json.loads((tmp_path / "trace.json").read_text())["metrics"]
    assert metrics["sgdm.traj_steps"] == raw["R"] * raw["K"] == 1200
    assert all(math.isfinite(v) for v in metrics.values()), metrics
