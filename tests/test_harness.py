import csv
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stoplab import harness
from stoplab.errors import ConfigError, DivergenceError
from stoplab.harness import CHECKS, load_config, parse_config, run_experiment
from stoplab.cli import main
from stoplab.lyapunov import envelope_constants, step_residuals
from stoplab.martingale import MartingaleTracker
from stoplab.noise import NoiseKind, calibrate, spawn_seed
from stoplab.objectives import least_squares_random
from stoplab.sgdm import ScheduleVariant, Variant, derive_seeds, stream_ensemble
from stoplab.stopping import RuleTracker

from oracles import block_by_step


def _base_raw(tmp_path, **over):
    raw = {
        "objective": {"kind": "quadratic", "diag": [1.0, 2.0]},
        "noise": {"kind": "gaussian-isotropic", "sigma": 1.0},
        "schedule": {"variant": "theorem-main"},
        "K": 50,
        "R": 8,
        "base_seed": 11,
        "x0": [2.0, -1.0],
        "betas": [0.05],
        "rules": [],
        "checks": ["descent", "decomposition", "coverage"],
        "output_dir": str(tmp_path / "out"),
        "options": {"csv_trajectories": 2},
    }
    raw.update(over)
    return raw


def test_parse_config_happy_path(tmp_path):
    cfg = parse_config(_base_raw(tmp_path))
    assert cfg.K == 50 and cfg.R == 8
    assert cfg.objective.dim == 2
    assert cfg.checks == ("descent", "decomposition", "coverage")
    # CHECKS orders the checks, whatever order the document lists them in
    listed = parse_config(_base_raw(tmp_path, checks=["constants", "coverage", "ville", "descent"]))
    assert listed.checks == ("descent", "ville", "coverage", "constants")
    assert cfg.options["csv_trajectories"] == 2
    # unspecified options fall back to defaults
    assert cfg.options["ville_bound"] == 0.1


def test_parse_config_collects_every_violation(tmp_path):
    raw = _base_raw(
        tmp_path,
        K=0,
        R=-3,
        betas=[0.7],
        checks=["descent", "nonsense"],
    )
    raw["objective"] = {"kind": "mystery"}
    raw["bogus_key"] = 1
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    text = "\n".join(exc.value.problems)
    # one pass reports all of them, not just the first
    assert len(exc.value.problems) >= 5
    for frag in ("K", "R", "beta", "nonsense", "mystery", "bogus_key"):
        assert frag in text


# Each malformed document once escaped parse_config as a bare exception or
# was half-accepted (bools as integers, an options value of the wrong type).
_MALFORMED = {
    "betas-string": lambda raw: raw.update(betas="ab"),
    "rule-epsilon-string": lambda raw: raw.update(
        rules=[{"kind": "iterate-delta", "epsilon": "x"}]),
    "noise-sigma-string": lambda raw: raw["noise"].update(sigma="x"),
    "rules-not-a-list": lambda raw: raw.update(rules=5),
    "R-bool": lambda raw: raw.update(R=True),
    "base-seed-bool": lambda raw: raw.update(base_seed=True),
    "rule-k-max-bool": lambda raw: raw.update(rules=[{"kind": "fixed-k", "k_max": True}]),
    "rule-k-max-above-K": lambda raw: raw.update(rules=[{"kind": "fixed-k", "k_max": 51}]),
    "option-wrong-type": lambda raw: raw["options"].update(n_branches="many"),
    # x0 = [0.0] so that a bool dim coerced to 1 would have matched it
    "lsq-dim-bool": lambda raw: raw.update(
        objective={"kind": "least-squares", "dim": True, "m": 4}, x0=[0.0]),
    "lsq-m-float": lambda raw: raw.update(
        objective={"kind": "least-squares", "dim": 2, "m": 4.7}),
    "lsq-seed-bool": lambda raw: raw.update(
        objective={"kind": "least-squares", "dim": 2, "seed": False}),
    "huber-delta-string": lambda raw: raw.update(
        objective={"kind": "huberized-abs", "dim": 2, "delta": "1"}),
    "diag-bool": lambda raw: raw["objective"].update(diag=[1.0, True]),
    # 2 / L overflowed, and the descent check reported NaN
    "diag-subnormal": lambda raw: raw["objective"].update(diag=[5e-324, 5e-324]),
    # L = 1 / delta = inf, refused only by the gamma1 bracket after 2^20 terms
    "huber-delta-subnormal": lambda raw: raw.update(
        objective={"kind": "huberized-abs", "dim": 2, "delta": 1e-310}),
    "center-bool": lambda raw: raw["objective"].update(center=[0.0, False]),
    "x0-bool": lambda raw: raw.update(x0=[True, -1.0]),
    "objective-kind-list": lambda raw: raw["objective"].update(kind=["quadratic"]),
    # a list where a name is expected once escaped as TypeError (unhashable)
    "noise-kind-list": lambda raw: raw["noise"].update(kind=["gaussian-isotropic"]),
    "schedule-variant-list": lambda raw: raw["schedule"].update(variant=["theorem-main"]),
    "rule-kind-list": lambda raw: raw.update(rules=[{"kind": ["fixed-k"], "k_max": 10}]),
    # a negative certificate once gave the envelope constants of sigma = 1
    "noise-sigma-negative-none": lambda raw: raw.update(noise={"kind": "none", "sigma": -1.0}),
    "x0-infinite": lambda raw: raw.update(x0=[float("inf"), -1.0]),
    # once passed through str()
    "output-dir-not-a-string": lambda raw: raw.update(output_dir=5),
    # each once a bare OverflowError, ZeroDivisionError or ValueError from
    # the envelope's float arithmetic, with exit 1 and a traceback
    "schedule-L-huge": lambda raw: raw["schedule"].update(L=1e300),
    "schedule-L-tiny": lambda raw: raw["schedule"].update(L=1e-300),
    "diag-huge": lambda raw: raw["objective"].update(diag=[1.0, 1e300]),
    "noise-sigma-huge": lambda raw: raw["noise"].update(sigma=1e150),
    # trajectory 2^20 would stream from the supermartingale prefix's key
    "R-beyond-2^20": lambda raw: raw.update(R=(1 << 20) + 1),
    # the mgf check's scale c sigma rounded to 0: NaN estimates from
    # c = 0.485 with either kind, and "skipped" from a subnormal x0 - x*
    "mgf-scale-underflows": lambda raw: raw.update(
        objective={"kind": "least-squares", "dim": 1}, x0=[0.0], checks=["mgf"],
        noise={"kind": "gaussian-isotropic", "sigma": 5e-324}),
    "mgf-scale-underflows-none": lambda raw: raw.update(
        objective={"kind": "least-squares", "dim": 1}, x0=[0.0], checks=["mgf"],
        noise={"kind": "none", "sigma": 5e-324}),
    "mgf-direction-underflows": lambda raw: raw.update(
        objective={"kind": "quadratic", "diag": [1.0]}, x0=[5e-324], checks=["mgf"],
        noise={"kind": "gaussian-isotropic", "sigma": 0.5}),
    "noise-sigma-overflows": lambda raw: raw["noise"].update(sigma=1e300),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_parse_config_rejects_malformed_values(tmp_path, case):
    raw = _base_raw(tmp_path)
    _MALFORMED[case](raw)
    with pytest.raises(ConfigError):
        parse_config(raw)
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 2
    assert not (tmp_path / "out").exists()


def test_trajectory_keys_stop_below_the_supermartingale_prefix_key(tmp_path):
    # the prefix streams from spawn_seed(base_seed, 2^20), trajectory 2^20's key
    assert derive_seeds(11, 1, start=1 << 20)[0] == spawn_seed(11, 1 << 20)
    assert parse_config(_base_raw(tmp_path, R=1 << 20)).R == 1 << 20
    with pytest.raises(ConfigError, match=r"R must be an integer in \[1, 1048576\]"):
        parse_config(_base_raw(tmp_path, R=(1 << 20) + 1))


def test_mgf_scale_refusal_names_sigma(tmp_path):
    raw = _base_raw(tmp_path)
    _MALFORMED["mgf-scale-underflows"](raw)
    with pytest.raises(ConfigError, match=r"noise.sigma: .*mgf.* rounds to 0"):
        parse_config(raw)
    # a positive product is accepted, and so is sigma = 0 (the check is then skipped)
    for sigma in (1e-300, 0.0):
        raw["noise"] = {"kind": "none", "sigma": sigma}
        assert parse_config(raw).checks == ("mgf",)


def test_cli_run_exits_2_on_malformed_values(tmp_path, capsys):
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(_base_raw(tmp_path, betas="ab", R=True)))
    assert main(["run", str(cfgpath)]) == 2
    err = capsys.readouterr().err
    assert "betas" in err and "R must be" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["noise-kind-list", "schedule-variant-list",
                                  "rule-kind-list"])
def test_cli_run_exits_2_on_list_kinds(tmp_path, case):
    raw = _base_raw(tmp_path)
    _MALFORMED[case](raw)
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_run_exits_2_on_malformed_workers(tmp_path, monkeypatch, capsys):
    # once a ValueError traceback with exit 1, after output_dir was made
    monkeypatch.setenv("STOPLAB_WORKERS", "two")
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(_base_raw(tmp_path)))
    assert main(["run", str(cfgpath)]) == 2
    assert "STOPLAB_WORKERS must be an integer >= 1, not 'two'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Option values a check refuses (once only after output_dir was made, with
# exit code 1, the code of a failed check), and Ville bounds outside (0, 1),
# where 2.0 made the Ville check pass against a bound above 1.
_OUT_OF_RANGE = {
    "supermartingale-k-zero": {"supermartingale_ks": [1, 0]},
    "n-branches-below-1000": {"n_branches": 999},
    "gamma-tol-too-large": {"gamma_tol": 1e-3},
    "gamma-tol-too-small": {"gamma_tol": 1e-12},
    "tail-c-len-zero": {"tail_c_len": 0},
    "mgf-n-samples-zero": {"mgf_n_samples": 0},
    "ville-bound-above-1": {"ville_bound": 2.0},
    "ville-bound-zero": {"ville_bound": 0.0},
    # these once crashed after output_dir was made, gave a verdict from one
    # sample, left an enabled check without a record, checked against a bound
    # above 1, acted as sigma = 1 or died in fsum on -inf + inf
    "tail-n-runs-zero": {"tail_n_runs": 0},
    "tail-n-runs-below-100": {"tail_n_runs": 99},
    "mgf-n-samples-one": {"mgf_n_samples": 1},
    "mgf-n-samples-below-1000": {"mgf_n_samples": 999},
    "mgf-lambdas-empty": {"mgf_lambdas": []},
    "supermartingale-ks-empty": {"supermartingale_ks": []},
    "tail-omegas-empty": {"tail_omegas": []},
    "tail-omega-negative": {"tail_omegas": [-1.0]},
    # exp(3 lambda^2 / 4) overflowed with an OverflowError after output_dir was made
    "mgf-lambda-beyond-30": {"mgf_lambdas": [1.0, 31.0]},
    "csv-trajectories-negative": {"csv_trajectories": -1},
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_out_of_range_options_exit_2_before_any_output(tmp_path, case):
    raw = _base_raw(tmp_path, checks=list(CHECKS))
    raw["options"].update(_OUT_OF_RANGE[case])
    (key,) = _OUT_OF_RANGE[case]
    with pytest.raises(ConfigError, match=key):
        parse_config(raw)
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 2
    assert not (tmp_path / "out").exists()


def test_every_problem_is_listed_at_once(tmp_path, capsys):
    raw = _base_raw(tmp_path, checks=list(CHECKS))
    for case in _OUT_OF_RANGE.values():
        raw["options"].update(case)
    raw["noise"] = {"kind": "none", "sigma": -1.0}
    expected = ["noise: sigma"] + [f"options: {key}" for key in raw["options"]]
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert len(exc.value.problems) == len(expected)
    for where in expected:
        assert any(p.startswith(f"{where} must") for p in exc.value.problems), where
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 2
    err = capsys.readouterr().err
    assert all(f"config error: {where} must" in err for where in expected)
    assert not (tmp_path / "out").exists()


def test_envelope_rule_needs_a_beta(tmp_path, capsys):
    raw = _base_raw(tmp_path, betas=[], rules=[{"kind": "first-envelope-violation"}])
    with pytest.raises(ConfigError, match="needs a beta"):
        parse_config(raw)
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 2
    assert not (tmp_path / "out").exists()


def test_no_philox_key_is_made_twice(tmp_path, monkeypatch):
    # every stream a run reads has a key of its own: the supermartingale
    # bootstrap once drew its resample indices from the prefix's own stream
    from stoplab import noise
    made, real = [], noise.philox
    for name, module in list(sys.modules.items()):
        if name.startswith("stoplab."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, lambda key, reuse=None: made.append(
                        int(key)) or real(key, reuse))
    options = {"n_branches": 5000, "supermartingale_ks": [1, 2], "mgf_n_samples": 40000,
               "tail_n_runs": 100, "tail_c_len": 3, "csv_trajectories": 0}
    run_experiment(parse_config(_base_raw(tmp_path, K=5, R=4, checks=list(CHECKS),
                                          options=options)))
    # 4 trajectories, the prefix, 2 branch chunks at each of 2 ks, the
    # bootstrap, 2 MGF chunks and 1 tail chunk
    assert len(made) == 4 + 1 + 2 * 2 + 1 + 2 + 1
    assert len(set(made)) == len(made)


def test_divergence_writes_one_record_and_exits_1(tmp_path, capsys):
    # L = 1 under-reads the diag (1, 1e6) objective's smoothness: |x| passes
    # the divergence radius at step 3
    raw = _base_raw(tmp_path, objective={"kind": "quadratic", "diag": [1.0, 1e6]},
                    schedule={"variant": "theorem-main", "L": 1.0})
    rep = run_experiment(parse_config(raw))
    assert [(c["name"], c["params"], c["pass"]) for c in rep.checks] == [
        ("divergence", {"step": 3}, False)]
    assert not rep.passed
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["checks"] == rep.checks and doc["pass"] is False and doc["summary"] == {}
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 1
    assert "divergence" in capsys.readouterr().out


def _diverging_raw(tmp_path, **over):
    # L = 1 against the diag (1, 1e6) objective: |x| passes the radius at step 3
    return dict({"objective": {"kind": "quadratic", "diag": [1.0, 1e6]},
                 "noise": {"kind": "gaussian-isotropic", "sigma": 1.0},
                 "schedule": {"variant": "theorem-main", "L": 1.0}, "K": 10, "R": 6,
                 "base_seed": 1, "x0": [1.0, 1.0], "checks": ["descent"],
                 "output_dir": str(tmp_path / "out")}, **over)


def test_divergence_error_survives_a_pickle_round_trip():
    err = pickle.loads(pickle.dumps(DivergenceError(3, 1e14)))
    assert (type(err), err.step, err.norm) == (DivergenceError, 3, 1e14)
    assert str(err) == "iterate diverged at step 3 (norm 1.000e+14)"


def test_divergence_report_is_the_same_at_any_worker_count(tmp_path, monkeypatch):
    # each block of trajectories diverges with its own largest |x|; the run
    # reports the earliest step with the largest |x| over all blocks at it
    reports = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("STOPLAB_WORKERS", workers)
        outdir = tmp_path / f"w{workers}"
        rep = run_experiment(parse_config(_diverging_raw(tmp_path, output_dir=str(outdir))))
        assert [(c["name"], c["params"]) for c in rep.checks] == [("divergence", {"step": 3})]
        reports.append((outdir / "report.json").read_bytes().replace(
            json.dumps(str(outdir)).encode(), b'""'))
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_a_crashed_block_is_raised_not_read_as_a_divergence(tmp_path, monkeypatch):
    # block 0 diverges, block 1 dies: the run raises the crash and writes nothing
    import concurrent.futures

    def run_block(cfg, env, lo, hi):
        raise DivergenceError(3, 1e14) if lo == 0 else MemoryError("block lost")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        concurrent.futures.ThreadPoolExecutor)
    monkeypatch.setattr(harness, "_run_block", run_block)
    monkeypatch.setenv("STOPLAB_WORKERS", "2")
    with pytest.raises(MemoryError, match="block lost"):
        run_experiment(parse_config(_diverging_raw(tmp_path)))
    assert not (tmp_path / "out").exists()


def test_supermartingale_prefix_divergence_writes_one_record_and_exits_1(tmp_path, capsys):
    # the ensemble ends at K = 2, before the radius; the check's prefix runs
    # to k = 5 and diverges at step 3
    raw = _diverging_raw(tmp_path, K=2, R=4, checks=["descent", "supermartingale"],
                         options={"supermartingale_ks": [1, 2, 5]})
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 1
    assert "divergence" in capsys.readouterr().out
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(c["name"], c["params"], c["pass"]) for c in doc["checks"]] == [
        ("divergence", {"step": 3}, False)]
    assert doc["summary"] == {} and doc["pass"] is False


def test_rules_run_without_betas(tmp_path):
    raw = _base_raw(tmp_path, betas=[], rules=[
        {"kind": "fixed-k", "k_max": 10},
        {"kind": "iterate-delta", "epsilon": 1e-6},
        {"kind": "first-envelope-violation", "beta": 0.05},
    ])
    rep = run_experiment(parse_config(raw))
    assert rep.passed
    assert not any(c["name"] == "coverage" for c in rep.checks)
    assert not (tmp_path / "out" / "coverage.csv").exists()


def test_envelope_computed_once_per_run(tmp_path, monkeypatch):
    calls = []
    real = harness.envelope_constants

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "envelope_constants", counting)
    monkeypatch.setenv("STOPLAB_WORKERS", "1")
    run_experiment(parse_config(_base_raw(tmp_path)))
    assert len(calls) == 1


@pytest.mark.parametrize("objective,x0", [
    ({"kind": "quadratic", "diag": [1.0, 2.0]}, [2.0, -1.0]),
    ({"kind": "quadratic", "diag": list(np.linspace(1.0, 2.0, 1200))},
     list(np.linspace(-1.0, 3.0, 1200))),
    ({"kind": "least-squares", "dim": 5, "m": 12, "seed": 0}, [0.5, -1.0, 2.0, 0.25, 1.5]),
    ({"kind": "least-squares", "dim": 64, "m": 96, "seed": 3}, list(np.linspace(-2.0, 2.0, 64))),
    ({"kind": "huberized-abs", "dim": 3, "delta": 0.5}, [1.5, -1.0, 0.25]),
], ids=["quadratic-d2", "quadratic-d1200", "least-squares-d5", "least-squares-d64", "huber-d3"])
def test_envelope_E0_is_the_streams_E0(tmp_path, objective, x0):
    # a run's one E(0), which the summary and Ville's alpha read, is the
    # envelope's: it must be every trajectory's stream E(0), bit for bit
    cfg = parse_config(_base_raw(tmp_path, objective=objective, x0=x0, R=3))
    rec = next(stream_ensemble(cfg.objective, cfg.noise, cfg.sched, 2,
                               derive_seeds(cfg.base_seed, cfg.R), cfg.x0))
    assert np.all(rec.E_prev == harness._envelope(cfg).E0)


def test_coverage_only_run_skips_residuals_and_tracker(tmp_path, monkeypatch):
    raw = _base_raw(tmp_path, betas=[0.05, 0.1], checks=["descent", "decomposition", "ville",
                                                          "coverage"],
                    rules=[{"kind": "fixed-k", "k_max": 10},
                           {"kind": "first-envelope-violation", "beta": 0.1}],
                    options={"csv_trajectories": 0})
    full = run_experiment(parse_config(dict(raw, output_dir=str(tmp_path / "full"))))

    def unread(*args, **kwargs):
        raise AssertionError("a coverage-only run reads no residuals and no tracker")

    monkeypatch.setattr(harness, "step_residuals", unread)
    monkeypatch.setattr(MartingaleTracker, "update", unread)
    lean = run_experiment(parse_config(dict(raw, checks=["coverage"],
                                            output_dir=str(tmp_path / "lean"))))
    assert full.passed and lean.passed
    assert ((tmp_path / "lean" / "coverage.csv").read_bytes()
            == (tmp_path / "full" / "coverage.csv").read_bytes())
    assert lean.summary == {"E0": full.summary["E0"], "t": full.summary["t"]}


def test_ville_only_run_skips_the_rule_trackers(tmp_path, monkeypatch):
    raw = _base_raw(tmp_path, betas=[0.05, 0.1], checks=["ville", "coverage"],
                    rules=[{"kind": "iterate-delta", "epsilon": 1e-3, "k_max": 10},
                           {"kind": "first-envelope-violation", "beta": 0.1}],
                    options={"csv_trajectories": 0})
    full = run_experiment(parse_config(dict(raw, output_dir=str(tmp_path / "full"))))

    def unread(*args, **kwargs):
        raise AssertionError("a ville-only run steps no rule tracker")

    monkeypatch.setattr(RuleTracker, "update", unread)
    lean = run_experiment(parse_config(dict(raw, checks=["ville"],
                                            output_dir=str(tmp_path / "lean"))))
    assert full.passed and lean.passed
    assert lean.checks == [c for c in full.checks if c["name"] == "ville"]
    assert lean.summary == full.summary
    assert not (tmp_path / "lean" / "coverage.csv").exists()


def test_run_without_betas_skips_the_rule_trackers(tmp_path, monkeypatch):
    # with no beta a coverage check makes no record, so no rule tracker is
    # built or stepped: the records and CSVs are those of the run without rules
    raw = _base_raw(tmp_path, betas=[], checks=["ville", "coverage"],
                    rules=[{"kind": "iterate-delta", "epsilon": 1e-3, "k_max": 10},
                           {"kind": "fixed-k", "k_max": 20}],
                    options={"csv_trajectories": 1})
    full = run_experiment(parse_config(dict(raw, rules=[], output_dir=str(tmp_path / "full"))))

    def unread(*args, **kwargs):
        raise AssertionError("a run without betas steps no rule tracker")

    monkeypatch.setattr(RuleTracker, "update", unread)
    lean = run_experiment(parse_config(dict(raw, output_dir=str(tmp_path / "lean"))))
    assert [c["name"] for c in lean.checks] == ["ville"]
    assert lean.checks == full.checks and lean.summary == full.summary
    assert ((tmp_path / "lean" / "trajectory_0.csv").read_bytes()
            == (tmp_path / "full" / "trajectory_0.csv").read_bytes())


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_run_experiment_smoke_artifacts(tmp_path):
    cfg = parse_config(_base_raw(tmp_path))
    rep = run_experiment(cfg)
    assert rep.passed
    outdir = tmp_path / "out"
    doc = json.loads((outdir / "report.json").read_text())
    assert doc["schema_version"] == "1"
    assert doc["pass"] is True
    names = [c["name"] for c in doc["checks"]]
    assert set(names) >= {"descent", "decomposition", "coverage"}
    assert list(dict.fromkeys(names)) == list(cfg.checks)  # the records in table order
    # coverage rows exist for the sup statement and the adversarial rule
    with open(outdir / "coverage.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    kinds = {r["rule"] for r in rows}
    assert {"sup", "adversarial"} <= kinds
    for r in rows:
        assert 0.0 <= float(r["frequency"]) <= 1.0


def test_trajectory_csv_schema_and_roundtrip(tmp_path):
    cfg = parse_config(_base_raw(tmp_path))
    run_experiment(cfg)
    path = tmp_path / "out" / "trajectory_0.csv"
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["k", "fgap", "E", "S", "M", "residual_lemma",
                      "residual_decomp"]
    assert len(rows) == cfg.K + 1
    # row k = 0 has no step residuals; later rows round-trip exactly via repr
    assert rows[0][0] == "0" and rows[0][5] == "" and rows[0][6] == ""
    for row in rows[1:]:
        for field in row[1:]:
            v = float(field)
            assert repr(v) == field
    assert not (tmp_path / "out" / f"trajectory_{cfg.R - 1}.csv").exists()


def test_worker_count_does_not_change_results(tmp_path):
    old = os.environ.get("STOPLAB_WORKERS")
    try:
        os.environ["STOPLAB_WORKERS"] = "1"
        run_experiment(parse_config(_base_raw(tmp_path / "w1")))
        os.environ["STOPLAB_WORKERS"] = "3"
        run_experiment(parse_config(_base_raw(tmp_path / "w3")))
    finally:
        if old is None:
            os.environ.pop("STOPLAB_WORKERS", None)
        else:
            os.environ["STOPLAB_WORKERS"] = old
    for name in ("trajectory_0.csv", "trajectory_1.csv", "coverage.csv"):
        a = (tmp_path / "w1" / "out" / name).read_bytes()
        b = (tmp_path / "w3" / "out" / name).read_bytes()
        assert a == b, name
    da = json.loads((tmp_path / "w1" / "out" / "report.json").read_text())
    db = json.loads((tmp_path / "w3" / "out" / "report.json").read_text())
    assert da["checks"] == db["checks"]
    assert da["summary"] == db["summary"]


@pytest.mark.parametrize("dim", [16, 64])
def test_block_width_does_not_change_results(tmp_path, monkeypatch, dim):
    # numpy sums a (dim, 1) column pairwise but adds the rows of a wider
    # block one by one, and from d = 8 on the two orders differ in the last
    # bits.  R = 3 on 2 workers gives a block of width 1; so does a
    # single-trajectory stream.  Both must match the width-3 run bitwise.
    # d = 64 is the lsq-d64 benchmark's shape.
    m = dim + 8
    objective = {"kind": "least-squares", "dim": dim, "m": m, "seed": 5}
    raw = _base_raw(tmp_path, objective=objective, x0=[1.0] * dim, R=3, K=40,
                    rules=[{"kind": "first-envelope-violation"}],
                    checks=["descent", "decomposition", "ville", "coverage"],
                    options={"csv_trajectories": 3})
    docs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("STOPLAB_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        run_experiment(parse_config(dict(raw, output_dir=str(out))))
        docs[workers] = json.loads((out / "report.json").read_text())
    names = sorted(p.name for p in (tmp_path / "w1").glob("*.csv"))
    assert "trajectory_2.csv" in names
    for name in names:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes(), name
    assert docs["1"]["checks"] == docs["2"]["checks"]
    assert docs["1"]["summary"] == docs["2"]["summary"]

    obj = least_squares_random(dim, m, 5)
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, dim, 1.0)
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    seeds = derive_seeds(3, 3)
    x0 = np.ones(dim)
    ens = list(stream_ensemble(obj, noise, sched, 30, seeds, x0))
    keys = ("descent", "decomp", "decomp_mid", "phi_sq", "phi_next_sq", "tol")
    for i, seed in enumerate(seeds):
        solo = stream_ensemble(obj, noise, sched, 30, [int(seed)], x0)
        for a, b in zip(ens, solo):
            assert np.array_equal(a.xs[:, :, i], b.xs[:, :, 0])
            assert a.E[0, i] == b.E[0, 0]
            ra, rb = step_residuals(a, obj), step_residuals(b, obj)
            for key in keys:
                assert ra[key][0, i] == rb[key][0, 0], (a.k[0, 0], key)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_block_is_the_oracles(got, want, keys):
    for key in keys:
        if key == "covered":
            assert got[key].keys() == want[key].keys()
            for b in want[key]:
                assert len(got[key][b]) == len(want[key][b])
                assert all(map(_same_bits, got[key][b], want[key][b])), b
        elif key == "mins":
            assert got[key].keys() == want[key].keys()
            assert all(_same_bits(got[key][m], want[key][m]) for m in want[key])
        elif key == "rows":
            assert {i: [tuple(map(repr, r)) for r in rows] for i, rows in got[key].items()} == \
                   {i: [tuple(map(repr, r)) for r in rows] for i, rows in want[key].items()}
        else:
            assert _same_bits(got[key], want[key]), key


@pytest.mark.parametrize("B", [1, 2, 7, 23, 40])
def test_slab_block_matches_the_step_by_step_oracle(tmp_path, monkeypatch, B):
    # K = 23 is no multiple of 2 or 7.  The fixed-k caps stop every path on
    # the first and on the last row of the second slab, the envelope rule's
    # cap falls inside it, and with sigma 8 against an envelope at beta 0.49
    # (built at sigma 1e-3, x0 = x*) the envelope rules stop at k = 3..15
    K = 23
    raw = _base_raw(tmp_path, K=K, R=40, x0=[0.0, 0.0], betas=[0.49, 0.3],
                    noise={"kind": "gaussian-isotropic", "sigma": 8.0},
                    checks=["descent", "decomposition", "ville", "coverage"],
                    rules=[{"kind": "iterate-delta", "epsilon": 1e-3},
                           {"kind": "value-delta", "epsilon": 1e-4},
                           {"kind": "fixed-k", "k_max": min(B + 1, K)},
                           {"kind": "fixed-k", "k_max": min(2 * B, K)},
                           {"kind": "first-envelope-violation", "beta": 0.49,
                            "k_max": min(B + B // 2 + 1, K)}],
                    options={"csv_trajectories": 3})
    cfg = parse_config(raw)
    env = envelope_constants(cfg.sched, 1e-3, harness._envelope(cfg).E0, cfg.options["gamma_tol"])
    monkeypatch.setattr(harness, "_slab_rows", lambda width, dim, arrays, fixed: B)
    want = block_by_step(cfg, env, 0, cfg.R)
    _assert_block_is_the_oracles(harness._run_block(cfg, env, 0, cfg.R), want,
                                 ("covered", "rows", "mins", "sup_logN", "sup_E", "S_last"))
    # the envelope rules stop at varied steps, so the flags are not all true
    assert not want["covered"][0.49][0].all()
    # a block of the run's trajectories 30..39 is the matching slice
    tail = harness._run_block(cfg, env, 30, 40)
    assert _same_bits(tail["sup_logN"], want["sup_logN"][30:])


@pytest.mark.parametrize("B", [1, 3, 50])
def test_slab_block_matches_the_oracle_at_R1_and_coverage_only(tmp_path, monkeypatch, B):
    monkeypatch.setattr(harness, "_slab_rows", lambda width, dim, arrays, fixed: B)
    raw = _base_raw(tmp_path, R=1, betas=[0.05, 0.1], checks=["descent", "ville", "coverage"],
                    rules=[{"kind": "fixed-k", "k_max": 17}, {"kind": "first-envelope-violation"}],
                    options={"csv_trajectories": 1})
    cfg = parse_config(raw)
    env = harness._envelope(cfg)
    _assert_block_is_the_oracles(harness._run_block(cfg, env, 0, 1), block_by_step(cfg, env, 0, 1),
                                 ("covered", "rows", "mins", "sup_logN", "sup_E", "S_last"))
    lean = parse_config(dict(raw, R=6, checks=["coverage"], options={"csv_trajectories": 0}))
    got = harness._run_block(lean, env, 0, 6)
    assert set(got) == {"covered", "rows"}
    _assert_block_is_the_oracles(got, block_by_step(lean, env, 0, 6), ("covered", "rows"))


def test_run_block_holds_one_noise_block(tmp_path, monkeypatch):
    # the stream frees its spent noise block, and _slabs the step whose
    # theta views it, before the next block is drawn: a run of three 1 MiB
    # blocks peaks where a run of one does, not a block higher.  Slabs of a
    # quarter block keep the slab phase below a draw that holds two blocks.
    # The run of three also holds its R Philox generators through its first
    # two blocks, where the run of one holds one at a time; their bytes are
    # counted apart
    import tracemalloc
    from stoplab import sgdm
    R, d, m = 512, 8, 32
    block = m * d * R * 8
    monkeypatch.setattr(sgdm, "_NOISE_BYTES", block)
    monkeypatch.setattr(sgdm, "_SLAB_BYTES", block // 4)
    tracemalloc.start()
    try:
        gens = [sgdm.philox(int(seed)) for seed in derive_seeds(0, R)]
        gens_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del gens
    peaks = []
    for K in (m, 3 * m):
        cfg = parse_config(_base_raw(tmp_path, K=K, R=R, x0=[1.0] * d, checks=["ville"],
                                     objective={"kind": "quadratic", "diag": [1.0] * d},
                                     options={"csv_trajectories": 0}))
        env = harness._envelope(cfg)
        tracemalloc.start()
        try:
            harness._run_block(cfg, env, 0, R)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] - gens_bytes < block // 4, (peaks, gens_bytes)


@pytest.mark.parametrize("budget", [1 << 20, 2 << 20, 4 << 20], ids=["1MiB", "2MiB", "4MiB"])
@pytest.mark.parametrize("kind, d, R, K", [("quadratic", 2, 1000, 120),
                                           ("quadratic", 1200, 8, 40),
                                           ("least-squares", 64, 128, 40)])
@pytest.mark.parametrize("checks", [["coverage"], ["ville"], ["descent", "decomposition",
                                                              "ville", "coverage"]],
                         ids=["coverage", "ville", "all"])
def test_slab_budget_counts_the_dim_stacks(tmp_path, monkeypatch, kind, d, R, K, checks, budget):
    # a block's traced peak from the end of its one noise block's draw (the
    # stream then forms the block's schedule table; the draw's tile and the
    # R Philox generators are gone), less that noise block, fits _SLAB_BYTES
    # at every budget; K exceeds B, so no slab is cut short by K.  The
    # iterate-delta rule forms its (B, dim, R) displacements on the first
    # slab.  A budget that counts only the (B, R) rows, not the stream's
    # (B, dim, R) stacks and (dim, R) step arrays, overruns it
    import tracemalloc
    from stoplab import sgdm
    monkeypatch.setattr(sgdm, "_SLAB_BYTES", budget)
    objective = ({"kind": "quadratic", "diag": list(np.linspace(1.0, 2.0, d))}
                 if kind == "quadratic" else {"kind": kind, "dim": d, "m": 96, "seed": 3})
    cfg = parse_config(_base_raw(tmp_path, K=K, R=R, x0=[1.0] * d, checks=checks,
                                 objective=objective, options={"csv_trajectories": 0},
                                 rules=[{"kind": "iterate-delta", "epsilon": 1e-3}]))
    env = harness._envelope(cfg)
    chunk = min(sgdm._NOISE_BYTES // (8 * d * R), sgdm._NOISE_CHUNK)
    assert K <= chunk
    fixed = K * d * R * 8
    rows = []
    stream, columns = harness.stream_ensemble, sgdm.schedule_columns
    monkeypatch.setattr(harness, "stream_ensemble",
                        lambda *args: rows.append(args[-1]) or stream(*args))
    monkeypatch.setattr(sgdm, "schedule_columns",
                        lambda *args: tracemalloc.reset_peak() or columns(*args))

    def peak():
        tracemalloc.start()
        try:
            harness._run_block(cfg, env, 0, R)
            return tracemalloc.get_traced_memory()[1] - fixed
        finally:
            tracemalloc.stop()

    assert peak() <= budget
    assert rows[-1] < K
    monkeypatch.setattr(sgdm, "DIM_STACKS", 0)
    monkeypatch.setattr(sgdm, "STEP_ARRAYS", 0)
    assert peak() > budget


def test_pool_forks_one_worker_per_block(tmp_path, monkeypatch):
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the pool's workers are forked by another process")
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    monkeypatch.setenv("STOPLAB_WORKERS", "4")
    rep = run_experiment(parse_config(_base_raw(tmp_path, R=2, K=5)))
    assert rep.passed
    assert len(forks) == 2


def test_rules_appear_in_coverage(tmp_path):
    raw = _base_raw(tmp_path)
    raw["rules"] = [
        {"kind": "fixed-k", "k_max": 10},
        {"kind": "iterate-delta", "k_max": 50, "epsilon": 1e-6},
    ]
    run_experiment(parse_config(raw))
    with open(tmp_path / "out" / "coverage.csv", newline="") as fh:
        kinds = {r["rule"] for r in csv.DictReader(fh)}
    assert {"fixed-k", "iterate-delta"} <= kinds


def test_constants_check_writes_table(tmp_path):
    raw = _base_raw(tmp_path, checks=["constants"])
    rep = run_experiment(parse_config(raw))
    assert rep.passed
    with open(tmp_path / "out" / "constants.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["gamma1_lo"]) <= float(row["gamma1_hi"])
    assert float(row["gamma2_lo"]) <= float(row["gamma2_hi"])
    assert float(row["C1"]) > 0.0 and float(row["C2"]) > 0.0


def test_cli_run_and_verify(tmp_path, capsys):
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(_base_raw(tmp_path)))
    assert main(["run", str(cfgpath)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] descent" in out and "overall: PASS" in out
    assert main(["verify", "descent", str(cfgpath)]) == 0
    assert main(["report", str(tmp_path / "out")]) == 0


def test_cli_constants_and_sweep(tmp_path, capsys):
    assert main(["constants", "theorem-main", "--sigma", "1.0"]) == 0
    assert "gamma1 in [" in capsys.readouterr().out
    # once a ValueError traceback with exit 1, or the constants of sigma = 1
    for args, problem in ((["--epsilon", "0.7"], "schedule: epsilon must"),
                          (["--L", "0"], "schedule: L must"),
                          (["--tol", "0.5"], "--tol must"),
                          (["--sigma", "-1"], "--sigma must"),
                          # once constants for a negative initial energy, exit 0
                          (["--E0", "-1"], "--E0 must")):
        assert main(["constants", "proposition-eps", *args]) == 2
        captured = capsys.readouterr()
        assert problem in captured.err and captured.out == ""
    raw = _base_raw(tmp_path, checks=["descent"], K=20, R=4)
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["sweep", str(cfgpath), "--param", "noise.sigma",
                 "--values", "0.5", "1.0"]) == 0
    assert main(["sweep", str(cfgpath), "--param", "no.such.path",
                 "--values", "1"]) == 2


def test_cli_sweep_parses_every_value_before_running_any(tmp_path, capsys):
    # K = 3 once ran and wrote K=3/ before K = 1 was refused
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(_base_raw(tmp_path, checks=["descent"], K=20, R=4)))
    assert main(["sweep", str(cfgpath), "--param", "K", "--values", "3", "1"]) == 2
    captured = capsys.readouterr()
    assert "K must be an integer >= 2" in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["garbage", '{"checks": []}',
                                  '{"checks": [{"name": "descent"}], "pass": true}'],
                         ids=["not-json", "no-pass", "record-without-keys"])
def test_cli_report_refuses_a_malformed_report(tmp_path, capsys, text):
    # the first two once exited 1 with a JSONDecodeError or KeyError traceback
    (tmp_path / "report.json").write_text(text)
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"config error: {tmp_path / 'report.json'} is not a stoplab report" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("prefix, text", [(b"\xff\xfe", ""), (b"", "caf\xe9")],
                         ids=["utf16-bom", "latin-1"])
def test_cli_run_refuses_a_config_that_is_not_utf8(tmp_path, capsys, prefix, text):
    # once a UnicodeDecodeError traceback with exit 1
    raw = _base_raw(tmp_path, output_dir=str(tmp_path / "out") + text)
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_bytes(prefix + json.dumps(raw, ensure_ascii=False).encode("latin-1"))
    assert main(["run", str(cfgpath)]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_cli_usage_and_config_errors(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_base_raw(tmp_path, K=0)))
    assert main(["run", str(bad)]) == 2


def test_cli_import_loads_no_scipy_and_no_process_pool():
    # a fresh interpreter: scipy is a test dependency only, and the process
    # pool is imported only when a run asks for workers
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, stoplab.cli; print(' '.join(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.') or m in ('multiprocessing', 'concurrent.futures.process')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def test_cli_run_needs_no_scipy(tmp_path):
    # scipy blocked: importing any scipy module raises ImportError
    raw = _base_raw(tmp_path, K=20, R=8, checks=["coverage", "tail", "constants"],
                    options={"tail_n_runs": 1000, "csv_trajectories": 1})
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys; sys.modules['scipy'] = None; from stoplab.cli import main; "
            f"sys.exit(main(['run', {str(cfgpath)!r}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {c["name"] for c in report["checks"]} == {"coverage", "tail", "constants"}


# L = 1e-3 is below the objective's smoothness (2) by a factor of 2000, so
# a_k and with it log gamma2 grow as 1/L^2: at sigma = 1, log gamma2 exceeds
# 709 and gamma2 a float; at sigma = 0.05015, gamma2 is about 1.6e307 but
# C1 and C2 overflow.
@pytest.mark.parametrize("sigma,match", [(1.0, "gamma2 exceeds"), (0.05015, "C1, C2 exceed")],
                         ids=["gamma2", "C1-C2"])
def test_float_overflow_in_the_envelope_is_a_config_error(tmp_path, capsys, sigma, match):
    raw = _base_raw(tmp_path, schedule={"variant": "theorem-main", "L": 1e-3})
    raw["noise"]["sigma"] = sigma
    with pytest.raises(ConfigError, match=match) as exc:
        run_experiment(parse_config(raw))
    assert "theorem-main" in str(exc.value) and f"sigma = {sigma:g}" in str(exc.value)
    assert not (tmp_path / "out").exists()
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epsilon", [1e-17, 5e-324])
def test_epsilon_lost_to_rounding_is_a_config_error(tmp_path, capsys, epsilon):
    # 1 + epsilon == 1 makes the weight series diverge: parse_config refuses
    # the schedule, not run_experiment after parsing
    raw = _base_raw(tmp_path, schedule={"variant": "proposition-eps", "epsilon": epsilon})
    with pytest.raises(ConfigError, match="schedule: log power"):
        parse_config(raw)
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(raw))
    assert main(["run", str(cfgpath)]) == 2
    assert "rounds to 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _reject_non_finite(name):
    raise ValueError(f"report.json holds {name}")


_DROP = object()  # a drawn edit that deletes its key


def _inside(key, size=None):
    """Values ``key`` accepts, small enough for a run at tiny R and K.

    ``size`` fixes the length of a list (an objective's dimension).
    """
    if key.type == "name":
        one = st.sampled_from(key.names)
    elif key.type == "integer":
        one = st.integers(key.lo, key.lo + 8)
        if key.hi < math.inf:
            one |= st.just(key.hi)
    else:
        lo = key.lo if key.lo > -math.inf else -10.0
        hi = key.hi if key.hi < math.inf else max(lo, 0.0) + 10.0
        one = st.floats(lo, hi, exclude_min=key.open, exclude_max=key.open and key.hi < math.inf)
    if key.many:
        one = st.lists(one, min_size=size or int(key.nonempty), max_size=size or 3)
    return st.none() | one if key.optional else one


def _outside(key):
    """Values ``key`` refuses, by construction."""
    if key.type == "name":
        one = ["no-such-name", [key.names[0]]]
    elif key.type in ("string", "mapping"):
        one = [5, [] if key.type == "mapping" else {}]
    else:
        integer = key.type == "integer"
        one = [True, "1", math.inf, math.nan] + ([2.5] if integer else [])
        for end, away in ((key.lo, -math.inf), (key.hi, math.inf)):
            if math.isfinite(end):
                beyond = end + (1 if away > 0 else -1) if integer else math.nextafter(end, away)
                one.append(end if key.open else beyond)
    if key.many:
        one = [[v] for v in one] + ["x"] + ([[]] if key.nonempty else [])
    return st.sampled_from(one if key.optional else one + [None])


@st.composite
def _edits(draw):
    """Every key of every ``GRAMMAR`` section drawn in range, then up to two refused.

    Returns (section, key, value) edits, section "" being the top level and
    "rules" the first rule, and the (section, key) pairs drawn out of range
    or dropped; a refused section hides its keys, so none of them is drawn
    with it.  Schedule values and the noise's sigma are the test's own.
    """
    grammar = harness.GRAMMAR
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(sorted(harness.OBJECTIVES)))
    objective = {"kind": kind}
    for name, key in harness.OBJECTIVES[kind].items():
        if name == "dim":
            objective[name] = dim
        elif name in ("diag", "center") or draw(st.booleans()):
            objective[name] = draw(_inside(key, dim if key.many else None))
    rules = [{name: draw(_inside(key)) for name, key in grammar["rules"].items()}
             for _ in range(draw(st.integers(0, 2)))]
    edits = [("", "objective", objective), ("", "rules", rules),
             ("", "x0", draw(_inside(grammar[""]["x0"], dim))),
             ("noise", "kind", draw(_inside(grammar["noise"]["kind"])))]
    edits += [("", name, draw(_inside(grammar[""][name])))
              for name in ("K", "base_seed", "checks")]
    # R's upper end, 2^20 trajectories, is no run at tiny R
    edits.append(("", "R", draw(st.integers(grammar[""]["R"].lo, 9))))
    if draw(st.booleans()):
        edits.append(("", "betas", draw(_inside(grammar[""]["betas"]))))
    # every option is given: the defaults' Monte Carlo sizes take seconds
    edits += [("options", name, draw(_inside(key)))
              for name, key in grammar["options"].items()]

    targets = [("", name) for name in grammar[""]]
    targets += [("objective", name) for name in objective]
    targets += [(section, name) for section in ("noise", "schedule", "options")
                for name in grammar[section]]
    targets += [("rules", name) for name in grammar["rules"]] if rules else []
    bad = draw(st.lists(st.sampled_from(targets), max_size=2, unique=True))
    bad = [(section, name) for section, name in bad if ("", section) not in bad]
    for section, name in bad:
        table = harness.OBJECTIVES[kind] if section == "objective" else grammar[section or ""]
        key = table.get(name, grammar["objective"].get(name))
        refused = _outside(key)
        if key.default is harness.REQUIRED:
            refused |= st.just(_DROP)
        edits.append((section, name, draw(refused)))
    return edits, bad


def _apply(raw, edits):
    for section, name, value in edits:
        node = raw if not section else raw["rules"][0] if section == "rules" else raw[section]
        if value is _DROP:
            del node[name]
        else:
            node[name] = value


# Every document parse_config accepts either runs to a report (strict JSON:
# no infinite constant) or is refused with a ConfigError before any output is
# written; every document with a key out of range is refused, with that key
# named; no other exception escapes.
@example(variant="theorem-main", log10_L=-3.0, epsilon=0.25, c0_prime=100.0, sigma=0.05015,
         edits=([], []))
@example(variant="theorem-main", log10_L=-3.0, epsilon=0.25, c0_prime=100.0, sigma=1.0,
         edits=([], []))
# the mgf check's scale c sigma rounds to 0 (c = 0.485): once NaN estimates
@example(variant="theorem-main", log10_L=0.0, epsilon=0.25, c0_prime=100.0, sigma=5e-324,
         edits=([("", "objective", {"kind": "least-squares", "dim": 1}), ("", "x0", [0.0]),
                 ("", "checks", ["mgf"]), ("options", "mgf_n_samples", 1000)], []))
@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(["theorem-main", "proposition-eps"]),
    log10_L=st.floats(-4.0, 3.0),
    epsilon=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    c0_prime=st.floats(100.0, 1e6),
    sigma=st.floats(0.0, 10.0),
    edits=_edits(),
)
def test_every_parsed_config_runs_or_raises_config_error(
        variant, log10_L, epsilon, c0_prime, sigma, edits):
    with tempfile.TemporaryDirectory() as tmp:
        raw = _base_raw(Path(tmp), K=3, R=2,
                        checks=["descent", "decomposition", "ville", "coverage", "constants"])
        raw["noise"]["sigma"] = sigma
        raw["schedule"] = {"variant": variant, "L": 10.0**log10_L,
                           "epsilon": epsilon, "c0_prime": c0_prime}
        changes, bad = edits
        _apply(raw, changes)
        try:
            cfg = parse_config(raw)
        except ConfigError as exc:
            for section, name in bad:
                assert any(f"{name} must" in p or repr(name) in p
                           for p in exc.problems), (section, name, exc.problems)
            return
        assert not bad, bad
        try:
            rep = run_experiment(cfg)
        except ConfigError:
            assert not (Path(tmp) / "out").exists()
            return
        names = {c["name"] for c in rep.checks}
        assert names <= {*raw["checks"], "divergence"}
        if "divergence" not in names:
            # an enabled check leaves a record; only coverage may have no betas
            assert set(raw["checks"]) - ({"coverage"} if not cfg.betas else set()) <= names
        json.loads((Path(tmp) / "out" / "report.json").read_text(),
                   parse_constant=_reject_non_finite)


def test_readme_configuration_lists_every_grammar_key():
    # one table row per key, with the value text the key's errors use, and
    # no row for a key the grammar does not declare
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Configuration"):]
    section = section[:section.index("\n## ")]
    tables = {"": harness.GRAMMAR[""], "objective.": harness.GRAMMAR["objective"],
              **{f"{kind}.": keys for kind, keys in harness.OBJECTIVES.items()},
              **{f"{name}.": harness.GRAMMAR[name] for name in ("noise", "schedule", "options")},
              "rules[].": harness.GRAMMAR["rules"]}
    for prefix, keys in tables.items():
        for name, key in keys.items():
            assert f"| `{prefix}{name}` | {key.must.removeprefix('be ')} |" in section, prefix + name
    declared = {prefix + name for prefix, keys in tables.items() for name in keys}
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert rows and set(rows) <= declared, sorted(set(rows) - declared)
