"""Kinematics tests: velocity/perturbation profiles, stepping arithmetic,
the lumped-input identity and the measurement map."""

import numpy as np
import pytest

from uiobeam.dynamics import (
    MeasurementModel,
    UavScenario,
    initial_state,
    scenario_inputs,
    simulate_truth,
)
from uiobeam.errors import ShapeError


def single_uav(radius=100.0, omega=0.5, dt=0.15, **kwargs):
    return UavScenario(radii=[radius], omega=omega, phases=[0.0],
                       center=[0.0, 0.0], dt=[dt], **kwargs)


def reference_scenario(**kwargs):
    return UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.5, 0.15, **kwargs)


def velocity(scn, k):
    """Nominal velocity of every UAV at step k, one row per UAV."""
    return scenario_inputs(scn, k + 1)[0][k].reshape(-1, 2)


def perturbation(scn, k):
    """Position perturbation of every UAV at step k, one row per UAV."""
    return scenario_inputs(scn, k + 1)[1][k].reshape(-1, 2)


def test_nominal_velocity_at_start():
    np.testing.assert_allclose(velocity(single_uav(), 0)[0], [50.0, 0.0], atol=1e-12)


def test_nominal_velocity_zero_rate():
    np.testing.assert_allclose(velocity(single_uav(omega=0.0), 5)[0], [0.0, 0.0])


def test_nominal_velocity_quarter_turn():
    # dt chosen so omega*dt*k = pi/2 at k = 1
    scn = single_uav(dt=np.pi / 2 / 0.5)
    np.testing.assert_allclose(velocity(scn, 1)[0], [0.0, -50.0], atol=1e-12)


def test_perturbation_at_start():
    np.testing.assert_allclose(perturbation(single_uav(), 0)[0], [10.0, 0.0], atol=1e-12)


def test_perturbation_disabled():
    scn = single_uav(perturbation_ratio=0.0)
    np.testing.assert_allclose(perturbation(scn, 3)[0], [0.0, 0.0])


def test_perturbation_largest_radius():
    scn = single_uav(radius=250.0)
    np.testing.assert_allclose(perturbation(scn, 0)[0], [25.0, 0.0], atol=1e-12)


def test_inputs_match_per_uav_sinusoids():
    # every (step, UAV) entry of the all-steps arrays is the closed-form
    # sinusoid of that UAV at that step
    scn = UavScenario(radii=[100.0, 250.0], omega=0.5, phases=[0.3, 2.0],
                      center=[0.0, 0.0], dt=[0.15, 0.2])
    v, lam, _ = scenario_inputs(scn, 40)
    for k in (0, 17, 39):
        for i in range(2):
            arg = scn.omega * scn.dt[i] * k + scn.phases[i]
            speed = scn.radii[i] * scn.omega
            np.testing.assert_array_equal(
                v[k, 2 * i:2 * i + 2], [speed * np.cos(arg), speed * -np.sin(arg)])
            arg = scn.perturbation_rate_multiple * scn.omega * scn.dt[i] * k + scn.phases[i]
            amp = speed * scn.perturbation_ratio
            np.testing.assert_array_equal(
                lam[k, 2 * i:2 * i + 2], [amp * np.cos(arg), amp * -np.sin(arg)])


def test_step_stationary():
    scn = single_uav(omega=0.0, perturbation_ratio=0.0)
    xs, _, _ = simulate_truth(scn, MeasurementModel.scaled_identity(1, 0.5), 1)
    np.testing.assert_array_equal(xs[1], xs[0])


def test_step_arithmetic_single_uav():
    # start at [0, 100]; x moves by 0.15*50 + 10 = 17.5, y by 0.15*0 + 0
    xs, _, _ = simulate_truth(single_uav(), MeasurementModel.scaled_identity(1, 0.5), 1)
    np.testing.assert_allclose(xs[0], [0.0, 100.0], atol=1e-12)
    np.testing.assert_allclose(xs[1], [17.5, 100.0])


def test_step_truth_phase_zero_start():
    # With all phases at zero, step 0 displaces each UAV along x by
    # dT*R_i*omega + R_i*omega/5.
    radii = np.array([100.0, 150.0, 200.0, 250.0])
    scn = UavScenario(radii=radii, omega=0.5, phases=np.zeros(4),
                      center=[0.0, 0.0], dt=np.full(4, 0.15))
    xs, ws, _ = simulate_truth(scn, MeasurementModel.scaled_identity(4, 0.5), 1)
    np.testing.assert_array_equal(xs[0], initial_state(scn))
    delta = (xs[1] - xs[0]).reshape(-1, 2)
    np.testing.assert_allclose(delta[:, 0], 0.15 * radii * 0.5 + radii * 0.5 / 5.0)
    np.testing.assert_allclose(delta[:, 1], 0.0, atol=1e-12)
    assert xs.shape == (2, 8) and ws.shape == (1, 8)


def test_step_accumulates_velocity_and_perturbation():
    # X_{k+1} = X_k + B_T V_k + Lambda_k at every step, per-UAV dT included
    scn = UavScenario(radii=[100.0, 150.0, 200.0], omega=0.5, phases=[0.0, 1.0, 2.0],
                      center=[5.0, -3.0], dt=[0.1, 0.15, 0.3])
    xs, _, _ = simulate_truth(scn, MeasurementModel.scaled_identity(3, 0.5), 60)
    v, lam, _ = scenario_inputs(scn, 60)
    np.testing.assert_array_equal(xs[1:], xs[:-1] + scn.b_t_diag * v + lam)


def test_lumped_input_identity_exact():
    scn = reference_scenario()
    v, lam, w = scenario_inputs(scn, 124)
    for k in (0, 7, 123):
        np.testing.assert_array_equal(w[k], v[k] + lam[k] / scn.b_t_diag)


def test_measure_zero_d_is_exact():
    scn = reference_scenario()
    xs, _, ys = simulate_truth(scn, MeasurementModel(d=np.zeros(8)), 5)
    np.testing.assert_array_equal(ys, xs[:-1])


def test_measure_half_identity():
    scn = reference_scenario()
    xs, ws, ys = simulate_truth(scn, MeasurementModel.scaled_identity(4, 0.5), 5)
    np.testing.assert_allclose(ys, xs[:-1] + 0.5 * ws)


def test_measure_identity_d_adds_input():
    scn = reference_scenario()
    xs, ws, ys = simulate_truth(scn, MeasurementModel.scaled_identity(4, 1.0), 5)
    np.testing.assert_allclose(ys, xs[:-1] + ws)


def test_measure_dimension_mismatch():
    scn = reference_scenario()
    with pytest.raises(ShapeError):
        simulate_truth(scn, MeasurementModel(d=np.zeros(4)), 5)
    with pytest.raises(ShapeError, match="diagonal vector"):
        MeasurementModel(d=0.5 * np.eye(8))


def test_unperturbed_orbit_drift_bound():
    # Forward-Euler circle drift: |  ||u_k - u_p|| - R  | <= R (omega dt)^2 k / 2.
    scn = reference_scenario(perturbation_ratio=0.0)
    model = MeasurementModel.scaled_identity(4, 0.0)
    xs, _, _ = simulate_truth(scn, model, 120)
    step = (scn.omega * scn.dt[0]) ** 2 / 2.0
    for k in range(121):
        radii_k = np.linalg.norm(xs[k].reshape(-1, 2) - scn.center, axis=1)
        assert np.all(np.abs(radii_k - scn.radii) <= scn.radii * step * k + 1e-9)


def test_measurement_timeline_shapes():
    scn = reference_scenario()
    model = MeasurementModel.scaled_identity(4, 0.5)
    xs, ws, ys = simulate_truth(scn, model, 10)
    assert xs.shape == (11, 8) and ws.shape == (10, 8) and ys.shape == (10, 8)
    np.testing.assert_array_equal(ys[0], xs[0] + model.d * ws[0])


def test_scenario_validation():
    # the config prefixes "scenario." to each message, so each starts with
    # the field it concerns
    with pytest.raises(ShapeError, match="^dt must be positive"):
        UavScenario(radii=[100.0], omega=0.5, phases=[0.0], center=[0, 0], dt=[-0.1])
    with pytest.raises(ShapeError, match="^radii must be positive"):
        UavScenario(radii=[-1.0], omega=0.5, phases=[0.0], center=[0, 0], dt=[0.1])
    with pytest.raises(ShapeError, match="^phases needs 2 entries, one per radius, got 1"):
        UavScenario(radii=[100.0, 200.0], omega=0.5, phases=[0.0], center=[0, 0], dt=[0.1, 0.1])
    with pytest.raises(ShapeError, match="^dt needs 1 entries, one per radius, got 2"):
        UavScenario(radii=[100.0], omega=0.5, phases=[0.0], center=[0, 0], dt=[0.1, 0.1])
    with pytest.raises(ShapeError, match="^radii needs at least one entry"):
        UavScenario(radii=[], omega=0.5, phases=[], center=[0, 0], dt=[])
    with pytest.raises(ShapeError, match="^perturbation_ratio must be non-negative"):
        single_uav(perturbation_ratio=-1.0)
