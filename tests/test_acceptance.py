"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Tolerances are pinned here exactly as stated; reported reference values for
the critical measurement interval carry a deliberately loose +-25% band
because the originating solver's point selection is unknown, while the
library's own bisection is checked against the closed-form frontier
dt* = 1/2 + sqrt((1 + 4 mu)/8) at 2e-3.
"""

import time

import numpy as np
import pytest

from uiobeam.beamforming import ArrayConfig, beam_pattern, beamformer, half_power_width, steering_matrix
from uiobeam.config import config_from_mapping
from uiobeam.design import LmiProblem, ObserverGains, critical_dt, design, gain_point_feasible, mu_feasible
from uiobeam.dynamics import MeasurementModel, UavScenario
from uiobeam.observer import input_pinv, predict, track
from uiobeam.simulate import run_compare, run_simulate

REFERENCE_LEVELS = ((0.05, 0.21, 0.39), (0.25, 0.47, 0.60), (1.0, 0.96, 0.76))
REPORTED_CRITICAL_DT = {0.05: 0.89, 0.25: 1.01, 1.0: 1.3}


def _report(criterion, passed, detail):
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def reference_problem(mu_max, dt=0.15, alpha=0.5):
    return LmiProblem.uniform(4, dt, d_scale=0.5, h_scale=1.0, alpha=alpha, mu_max=mu_max)


def reference_scenario():
    return UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.5, 0.15)


def test_criterion_1_lmi_reproduction():
    t0 = time.perf_counter()
    ok = True
    gammas = []
    for mu_max, gamma_ref, ell in REFERENCE_LEVELS:
        prob = reference_problem(mu_max)
        solution, _ = design(prob)
        gammas.append(solution.gamma)
        ok &= solution.certified
        ok &= solution.gamma <= gamma_ref + 0.01
        ok &= gain_point_feasible(prob, ell, gamma_ref**2)  # oracle tol 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(1, ok, f"gamma*={[f'{g:.4g}' for g in gammas]} vs caps "
                   f"{[g + 0.01 for _, g, _ in REFERENCE_LEVELS]}; all three reported "
                   f"gain points feasible; runtime {elapsed:.2f}s < 10s")


def test_criterion_2_critical_dt_frontier():
    computed = {}
    for mu_max, _, _ in REFERENCE_LEVELS:
        computed[mu_max] = critical_dt(reference_problem(mu_max), (0.15, 2.0))
    ordering = computed[0.05] < computed[0.25] < computed[1.0]
    within = all(
        0.75 * computed[mu] <= REPORTED_CRITICAL_DT[mu] <= 1.25 * computed[mu]
        for mu in computed
    )
    monotone = True
    for dt in (0.5, 0.95, 1.15, 1.35):
        flags = [mu_feasible(reference_problem(mu, dt=dt), mu) for mu in (0.05, 0.25, 1.0)]
        monotone &= flags == sorted(flags)
    _report(2, ordering and within and monotone,
            f"critical dt {({m: round(v, 3) for m, v in computed.items()})} ordered, "
            f"reported values within +-25%, feasibility monotone in mu")


def test_criterion_3_exponential_convergence():
    # W == 0 trajectory pinned at the origin (X = Y = 0), so the error
    # recursion E_{k+1} = Q E_k runs scale-free and the relative comparison is
    # meaningful down to 0.61^100 ~ 1e-22 (any X != 0 would inject an
    # eps*||X|| rounding floor into the error).
    gains = ObserverGains.from_l(np.full(8, 0.39))
    y_zero = np.zeros(8)
    xhat = np.linspace(-200.0, 150.0, 8)
    e0 = np.linalg.norm(xhat)
    worst = 0.0
    for k in range(1, 101):
        xhat = predict(xhat, gains, y_zero)
        expected = (1.0 - 0.39) ** k * e0
        worst = max(worst, abs(np.linalg.norm(xhat) - expected) / expected)
    _report(3, worst <= 1e-10, f"||E_k|| = 0.61^k ||E_0|| to relative {worst:.2e} <= 1e-10")


def test_criterion_4_steady_state_bounds():
    scn = reference_scenario()
    model = MeasurementModel.scaled_identity(4, 0.5)
    ok = True
    details = []
    runs = [(f"mu<={mu_max}",) + design(reference_problem(mu_max))
            for mu_max, _, _ in REFERENCE_LEVELS]
    # additionally exercise the published gain points at their stated levels
    # (feasible per criterion 1, hence covered by the same guarantees)
    points = [(f"L={ell}I", gamma, ObserverGains.from_l(np.full(8, ell)))
              for _, gamma, ell in REFERENCE_LEVELS]
    for label, solution, gains in runs:
        points.append((label, solution.gamma, gains))
    for label, gamma, gains in points:
        run = track(scn, model, gains, 400, gamma=gamma, transient_cutoff=50)
        mon = run["monitor"]
        ok &= mon.state_ok and mon.input_ok
        details.append(
            f"{label}: |Z|max {mon.worst_state_err:.3g} <= {mon.state_bound:.3g}, "
            f"|W^-W|max {mon.worst_input_err:.3g} <= {mon.input_bound:.3g}"
        )
    _report(4, ok, "; ".join(details))


def test_criterion_5_pseudo_inverse_closed_form():
    rng = np.random.default_rng(31)
    worst_op = 0.0
    for _ in range(25):
        diag = 10.0 ** rng.uniform(np.log10(0.01), 1.0, size=8)
        closed = np.hstack([np.diag(1.0 / diag), np.zeros((8, 8))])
        worst_op = max(worst_op, float(np.max(np.abs(input_pinv(diag) - closed))))
    scn = reference_scenario()
    model = MeasurementModel.scaled_identity(4, 0.5)
    run = track(scn, model, ObserverGains.from_l(np.full(8, 0.39)), 200)
    diffs = np.diff(run["XHAT"], axis=0)
    closed_w = diffs / scn.b_t_diag
    scale = max(1.0, float(np.max(np.abs(np.concatenate([diffs, run["Y"] - run["XHAT"][:-1]], axis=1)))))
    worst_traj = float(np.max(np.abs(run["WHAT"] - closed_w)))
    ok = worst_op <= 1e-10 and worst_traj <= 1e-10 * scale
    _report(5, ok, f"operator gap {worst_op:.2e} <= 1e-10; trajectory gap "
                   f"{worst_traj:.2e} <= 1e-10 x residual scale {scale:.3g}")


def test_criterion_6_zero_forcing_identity():
    rng = np.random.default_rng(17)
    worst_ident = 0.0
    worst_null = 0.0
    for m_ce in (64, 128):
        cfg = ArrayConfig.at_carrier(m_ce, 4, 30.0e9)
        done = 0
        while done < 50:
            thetas = np.sort(rng.uniform(-1.2, 1.2, 4))
            if np.min(np.diff(np.sin(thetas))) < 5e-2:
                continue
            bform = beamformer(cfg, thetas)
            cross = np.abs(bform.a.T @ bform.f)
            worst_ident = max(worst_ident, float(np.max(np.abs(cross - np.eye(4)))))
            worst_null = max(worst_null, float(np.max(cross - np.diag(np.diag(cross)))))
            done += 1
    ok = worst_ident <= 1e-9 and worst_null <= 1e-8
    _report(6, ok, f"100 angle sets: ||A^T F - I||inf {worst_ident:.2e} <= 1e-9, "
                   f"nulls {worst_null:.2e} <= 1e-8")


def test_criterion_7_blockage_resilience(tmp_path):
    base = {
        "observer": {"mu_max": [0.05]},
        "blockage": {"windows": [[15.0, 18.0]]},  # one 3 s window
        "run": {"horizon": 200},
    }
    gaps = []
    for seed in range(10):
        cfg = config_from_mapping({**base, "run": {**base["run"], "seed": seed}})
        summary = run_compare(cfg, tmp_path / f"seed{seed}")
        gaps.append(summary["window_se_gap"])
    panel_ok = all(g > 0 for g in gaps)
    # paired-noise check: force truth into the prediction path
    cfg = config_from_mapping(base)
    run_compare(cfg, tmp_path / "paired", force_uio_truth=True)
    rows = (tmp_path / "paired" / "se_compare.csv").read_text().strip().split("\n")[1:]
    worst_outside = 0.0
    for row in rows:
        parts = row.split(",")
        if parts[2] == "0":
            worst_outside = max(worst_outside, abs(float(parts[3]) - float(parts[4])))
    paired_ok = worst_outside <= 1e-9
    _report(7, panel_ok and paired_ok,
            f"window-mean SE gap > 0 on all 10 seeds (min {min(gaps):.3f} bit/s/Hz); "
            f"forced-truth traces agree outside windows to {worst_outside:.2e} <= 1e-9")


def test_criterion_8_main_lobe_scaling():
    widths = {}
    for m_ce in (64, 128):
        cfg = ArrayConfig.at_carrier(m_ce, 4, 30.0e9)
        bform = beamformer(cfg, [0.25])
        grid = 0.25 + np.linspace(-0.1, 0.1, 20001)
        widths[m_ce] = half_power_width(grid, beam_pattern(cfg, [bform.f], grid)[0][:, 0])
    ratio = widths[128] / widths[64]
    ok = 0.45 <= ratio <= 0.55
    _report(8, ok, f"-3 dB width ratio 128/64 = {ratio:.4f} within 0.5 +- 10%")


def test_criterion_9_determinism(tmp_path):
    cfg_map = {"run": {"horizon": 100, "seed": 12345}}
    manifests = []
    for label in ("a", "b"):
        manifests.append(run_simulate(config_from_mapping(cfg_map), tmp_path / label))
    names = sorted(manifests[0]["files"])
    assert names == sorted(manifests[1]["files"])
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    )
    _report(9, identical, f"{len(names)} CSV bodies byte-identical across reruns")
