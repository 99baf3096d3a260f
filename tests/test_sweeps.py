"""Long k-sweeps: same bits as the whole-range expressions, bounded memory.

The decomposition check's step condition (k <= 10^6) is its k = 1 value and
must equal the whole-range minimum bit for bit; the gamma brackets sum at
most a few thousand terms at the tolerances in use.  No check may allocate
arrays of the whole range.
"""

import tracemalloc

import pytest

from stoplab.harness import parse_config, run_experiment
from stoplab.lyapunov import envelope_constants
from stoplab.sgdm import ScheduleVariant, Variant, eta_bound_margin

from oracles import eta_margin_one_shot

MiB = 1 << 20


@pytest.mark.parametrize("sched", [
    ScheduleVariant(Variant.THEOREM_MAIN, L=1.0),
    ScheduleVariant(Variant.THEOREM_MAIN, L=2.0),
    ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=0.3),
    ScheduleVariant(Variant.PROPOSITION_EPS, L=2.0, epsilon=0.3),
])
def test_blocked_eta_margin_equals_one_shot(sched):
    assert eta_bound_margin(sched) == eta_margin_one_shot(sched)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


def test_decomposition_run_allocates_no_whole_range(tmp_path):
    # the one-shot 10^6-term margin and 2^20-term bracket chunks peaked at 38 MiB
    cfg = parse_config({
        "objective": {"kind": "quadratic", "diag": [1.0, 2.0]},
        "noise": {"kind": "gaussian-isotropic", "sigma": 1.0},
        "schedule": {"variant": "theorem-main"},
        "K": 2, "R": 2, "base_seed": 1, "x0": [2.0, -1.0], "betas": [0.05],
        "checks": ["decomposition"], "output_dir": str(tmp_path),
    })
    report = None

    def run():
        nonlocal report
        report = run_experiment(cfg)
    assert _peak_mib(run) < 4.0
    assert report.passed


def test_envelope_constants_allocate_no_whole_chunk():
    # gamma1 at 1e-8 sums 2^23 terms, gamma2 2^22; 2^20-term chunks peaked at 48 MiB
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=2.0)
    assert _peak_mib(lambda: envelope_constants(sched, 1.0, 5.0, tol=1e-8)) < 10.0
