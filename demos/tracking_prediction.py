"""Tracking walkthrough: fly the perturbed four-UAV network for 60 s, run the
designed observer on the perturbed position reports, and show the worst
steady-state tracking and input-reconstruction errors against their
certified ceilings gamma*gamma_W and 3*gamma*gamma_W.
"""

import numpy as np

from uiobeam import LmiProblem, MeasurementModel, ObserverGains, UavScenario, design
from uiobeam.observer import track

HORIZON = 400  # 60 s at 0.15 s per step
CUTOFF = 50    # steps discarded as transient


def run_one(scn, model, gains, gamma, label):
    run = track(scn, model, gains, HORIZON, gamma=gamma, transient_cutoff=CUTOFF)
    mon = run["monitor"]
    per_uav = np.linalg.norm(run["E"][CUTOFF:].reshape(-1, 4, 2), axis=2)
    print(f"--- {label} ---")
    print(f"  sup ||W_k||            = {mon.gamma_w:8.2f} m/s")
    print(f"  worst ||Z_k||  (k>={CUTOFF})  = {mon.worst_state_err:.3e} m "
          f"<= {mon.state_bound:.3e} ? {mon.state_ok}")
    print(f"  worst ||W^-W|| (k>={CUTOFF})  = {mon.worst_input_err:.3e} m/s "
          f"<= {mon.input_bound:.3e} ? {mon.input_ok}")
    print(f"  mean per-UAV position error = {np.mean(per_uav):.3e} m")


def main():
    scn = UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.5, 0.15)
    model = MeasurementModel.scaled_identity(4, 0.5)

    print("=== certified designs (gamma minimized under each bound) ===")
    for mu_max in (0.05, 0.25, 1.0):
        prob = LmiProblem.uniform(4, 0.15, d_scale=0.5, alpha=0.5, mu_max=mu_max)
        solution, gains = design(prob)
        run_one(scn, model, gains, solution.gamma,
                f"design mu <= {mu_max} (gamma = {solution.gamma:.4g})")
    print()

    print("=== published scalar gain points run at their stated levels ===")
    for ell, gamma in ((0.39, 0.21), (0.60, 0.47), (0.76, 0.96)):
        gains = ObserverGains.from_l(np.full(8, ell))
        run_one(scn, model, gains, gamma, f"L = {ell} I (gamma = {gamma})")


if __name__ == "__main__":
    main()
