"""Design walkthrough: solve the observer feasibility blocks for the
four-UAV reference network at three performance bounds, check the three
published scalar gain points in closed form, and trace how the feasibility
frontier shrinks as the measurement interval grows.
"""

import dataclasses

import numpy as np

from uiobeam import InfeasibleError, LmiProblem, critical_dt, design, gain_point_feasible


def main():
    print("=== observer design at the reference scenario (4 UAVs, dT = 0.15 s) ===")
    for mu_max in (0.05, 0.25, 1.0):
        prob = LmiProblem.uniform(4, 0.15, d_scale=0.5, alpha=0.5, mu_max=mu_max)
        solution, gains = design(prob)
        print(
            f"mu <= {mu_max:<5}: achieved mu = {solution.mu:.3g}, "
            f"gamma = {solution.gamma:.4g}, L = {gains.l[0]:.4g} I, "
            f"Q = {gains.q[0]:.4g} I, certified = {solution.certified}"
        )
    print()
    print("The minimum-gamma gain sits at L = dT/d * I = 0.3 I: the measurement")
    print("perturbation D W then cancels the unknown drive B_T W exactly, so the")
    print("certified gain can be pushed to the solver floor.")
    print()

    print("=== published scalar gain points, checked in closed form ===")
    for ell, gamma in ((0.39, 0.21), (0.60, 0.47), (0.76, 0.96)):
        prob = LmiProblem.uniform(4, 0.15, d_scale=0.5, alpha=0.5, mu_max=1.0)
        ok = gain_point_feasible(prob, ell, gamma**2)
        print(f"L = {ell} I with gamma = {gamma}: feasible = {ok}")
    print()

    print("=== largest feasible measurement interval per bound ===")
    for mu_max in (0.05, 0.25, 1.0):
        prob = LmiProblem.uniform(4, 0.15, d_scale=0.5, alpha=0.5, mu_max=mu_max)
        dt_star = critical_dt(prob, (0.15, 2.0))
        closed = 0.5 + np.sqrt((1 + 4 * mu_max) / 8)
        print(f"mu <= {mu_max:<5}: critical dT = {dt_star:.3f} s "
              f"(closed form {closed:.3f} s)")
    print()

    print("=== decay-rate sweep at mu <= 0.25 ===")
    prob = LmiProblem.uniform(4, 0.15, d_scale=0.5, alpha=0.5, mu_max=0.25)
    for alpha in (0.5, 0.1, 0.01):
        try:
            solution, gains = design(dataclasses.replace(prob, alpha=alpha))
        except InfeasibleError as exc:
            print(f"alpha = {alpha:<5}: infeasible ({exc})")
            continue
        print(f"alpha = {alpha:<5}: gamma = {solution.gamma:.4g}, L = {gains.l[0]:.4g} I")


if __name__ == "__main__":
    main()
