"""Runtime tests: prediction step, input reconstruction through the generic
pseudo-inverse, performance output and the bound monitor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uiobeam.design import ObserverGains
from uiobeam.dynamics import MeasurementModel, UavScenario, simulate_truth
from uiobeam.errors import ShapeError
from uiobeam.observer import BoundMonitor, estimate_input, input_pinv, predict, track


def gains_scalar(ell, n=8):
    return ObserverGains.from_l(np.full(n, ell))


def test_predict_reference_gain():
    y = np.zeros(8)
    y[0] = 1.0
    out = predict(np.zeros(8), gains_scalar(0.39), y)
    expected = np.zeros(8)
    expected[0] = 0.39
    np.testing.assert_allclose(out, expected)


def test_predict_dead_beat():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(8)
    out = predict(rng.standard_normal(8), gains_scalar(1.0), y)
    np.testing.assert_array_equal(out, y)


def test_predict_fixed_point():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    out = predict(x, gains_scalar(0.39), x)
    np.testing.assert_allclose(out, x, rtol=1e-14)


def test_predict_shape_mismatch():
    with pytest.raises(ShapeError):
        predict(np.zeros(8), gains_scalar(0.5), np.zeros(6))


def test_estimate_input_stationary():
    g_pinv = input_pinv(np.full(8, 0.15))
    x = np.ones(8)
    np.testing.assert_allclose(estimate_input(g_pinv, x, x, x + 1.0), np.zeros(8), atol=1e-12)


def test_estimate_input_closed_form_scaling():
    g_pinv = input_pinv(np.full(8, 0.15))
    xhat = np.zeros(8)
    xhat_next = np.zeros(8)
    xhat_next[0] = 0.15
    w = estimate_input(g_pinv, xhat_next, xhat, np.zeros(8))
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(w, expected, rtol=1e-10)


def test_estimate_input_unit_sampling_time():
    g_pinv = input_pinv(np.ones(6))
    rng = np.random.default_rng(3)
    diff = rng.standard_normal(6)
    w = estimate_input(g_pinv, diff, np.zeros(6), rng.standard_normal(6))
    np.testing.assert_allclose(w, diff, rtol=1e-12)


def test_estimate_input_all_steps_match_single_steps():
    rng = np.random.default_rng(4)
    g_pinv = input_pinv(10.0 ** rng.uniform(-2, 1, size=6))
    xhat = rng.standard_normal((31, 6))
    ys = rng.standard_normal((30, 6))
    batched = estimate_input(g_pinv, xhat[1:], xhat[:-1], ys)
    for k in range(30):
        np.testing.assert_array_equal(
            batched[k], estimate_input(g_pinv, xhat[k + 1], xhat[k], ys[k]))
    with pytest.raises(ShapeError):
        estimate_input(g_pinv, xhat[1:], xhat[:-1], ys[:-1])


def test_estimator_invariants():
    b_t = np.array([0.1, 0.1, 2.0, 2.0])
    g = np.vstack([np.diag(b_t), np.zeros((4, 4))])
    g_pinv = input_pinv(b_t)
    assert g.shape == (8, 4) and g_pinv.shape == (4, 8)
    np.testing.assert_allclose(g_pinv @ g, np.eye(4), atol=1e-10)
    with pytest.raises(ShapeError, match="diagonal vector"):
        input_pinv(np.diag(b_t))


def test_generic_pinv_matches_diagonal_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(20):
        diag = 10.0 ** rng.uniform(-2, 1, size=8)
        closed = np.hstack([np.diag(1.0 / diag), np.zeros((8, 8))])
        assert np.max(np.abs(input_pinv(diag) - closed)) <= 1e-10


def test_performance_output_cases():
    # E = X^ - X and Z^ = H E on every step of a run
    scn = UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.5, 0.15)
    model = MeasurementModel.scaled_identity(4, 0.5)
    run = track(scn, model, gains_scalar(0.39), 20)
    np.testing.assert_array_equal(run["E"], run["XHAT"] - run["X"])
    np.testing.assert_allclose(run["Z"], run["E"], atol=1e-15)  # H = I default
    selector = np.zeros(8)
    selector[0] = 1.0
    gains_sel = ObserverGains.from_l(np.full(8, 0.39), h=selector)
    run = track(scn, model, gains_sel, 20)
    expected = np.zeros_like(run["E"])
    expected[:, 0] = run["E"][:, 0]
    np.testing.assert_allclose(run["Z"], expected)
    # a prediction that equals the truth has zero performance output: with
    # D = 0 the observer starts at Y_0 = X_0
    run = track(scn, MeasurementModel.scaled_identity(4, 0.0), gains_scalar(0.39), 20)
    np.testing.assert_array_equal(run["Z"][0], np.zeros(8))


def test_monitor_zero_input_thresholds():
    zeros = np.zeros((5, 8))
    mon = BoundMonitor.from_run(0.21, zeros, zeros, zeros, transient_cutoff=2)
    assert mon.gamma_w == 0.0
    assert mon.state_bound == 0.0 and mon.input_bound == 0.0
    assert mon.state_ok and mon.input_ok


def test_monitor_constant_input_thresholds():
    w = np.zeros((1, 8))
    w[0, 0] = 3.0
    mon = BoundMonitor.from_run(0.5, np.zeros((1, 8)), w, w, transient_cutoff=0)
    assert mon.gamma_w == 3.0
    assert mon.state_bound == pytest.approx(1.5)
    assert mon.input_bound == pytest.approx(4.5)


def test_monitor_respects_cutoff():
    # one nonzero step at k = 3, before the cutoff: it sets gamma_w but no
    # worst error
    z, w, w_hat = np.zeros((4, 8)), np.zeros((4, 8)), np.zeros((4, 8))
    z[3], w[3], w_hat[3] = 1.0, 1.0, 2.0
    mon = BoundMonitor.from_run(0.5, z, w, w_hat, transient_cutoff=10)
    assert mon.worst_state_err == 0.0 and mon.worst_input_err == 0.0
    assert mon.gamma_w > 0
    mon = BoundMonitor.from_run(0.5, z, w, w_hat, transient_cutoff=3)
    assert mon.worst_state_err == pytest.approx(np.sqrt(8))
    assert mon.worst_input_err == pytest.approx(np.sqrt(8))


def stationary_scenario():
    """omega = 0 and perturbation off: the unknown input is identically zero."""
    return UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.0, 0.15,
                                     perturbation_ratio=0.0)


def test_zero_input_exponential_decay_origin_frame():
    # with W == 0 and scalar gains, E_{k+1} = Q E_k exactly; pinning the truth
    # at the origin keeps the recursion scale-free so the relative comparison
    # holds down to 0.61^100
    gains = gains_scalar(0.39)
    xhat = np.linspace(-80.0, 120.0, 8)
    e0 = np.linalg.norm(xhat)
    q = 1.0 - 0.39
    for k in range(1, 101):
        xhat = predict(xhat, gains, np.zeros(8))
        assert np.linalg.norm(xhat) == pytest.approx(q**k * e0, rel=1e-10, abs=0)


def test_zero_input_exponential_decay_through_scenario():
    # same law through the full truth/measurement machinery; the nonzero
    # fleet positions put an eps*||X|| rounding floor under the error
    scn = stationary_scenario()
    model = MeasurementModel.scaled_identity(4, 0.0)
    run = track(scn, model, gains_scalar(0.39), 100, init="zero")
    e0 = np.linalg.norm(run["E"][0])
    q = 1.0 - 0.39
    floor = 200 * np.finfo(float).eps * np.linalg.norm(run["X"][0])
    for k in range(101):
        expected = q**k * e0
        assert abs(np.linalg.norm(run["E"][k]) - expected) <= 1e-10 * expected + floor


def test_zero_initial_error_bound_holds_for_all_k():
    # verified reference gain point: L = 0.39 I certifies gamma = 0.21
    scn = UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.5, 0.15)
    model = MeasurementModel.scaled_identity(4, 0.5)
    xs, ws, ys = simulate_truth(scn, model, 300)
    gains = gains_scalar(0.39)
    xhat = xs[0].copy()  # zero initial error
    w_sup = np.max(np.linalg.norm(ws, axis=1))
    for k in range(300):
        z = gains.h * (xhat - xs[k])
        assert np.linalg.norm(z) <= 0.21 * w_sup + 1e-9
        xhat = gains.q * xhat + gains.l * ys[k]


def test_track_deterministic_repeat():
    scn = UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.5, 0.15)
    model = MeasurementModel.scaled_identity(4, 0.5)
    a = track(scn, model, gains_scalar(0.39), 50, gamma=0.21)
    b = track(scn, model, gains_scalar(0.39), 50, gamma=0.21)
    for key in ("X", "Y", "W", "XHAT", "WHAT"):
        np.testing.assert_array_equal(a[key], b[key])


def test_track_monitor_filled():
    scn = UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.5, 0.15)
    model = MeasurementModel.scaled_identity(4, 0.5)
    run = track(scn, model, gains_scalar(0.39), 200, gamma=0.21, transient_cutoff=50)
    mon = run["monitor"]
    assert mon.gamma_w > 0
    assert mon.state_ok and mon.input_ok


@settings(max_examples=40, deadline=None)
@given(
    radii=st.lists(st.floats(50.0, 300.0), min_size=1, max_size=4),
    dt=st.floats(0.05, 0.5),
    d_diag=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    ell=st.floats(0.05, 1.5),
    init=st.sampled_from(["measurement", "zero"]),
)
def test_error_recursion_holds_on_track_output(radii, dt, d_diag, ell, init):
    # E_{k+1} = Q E_k + (L D - B_T) W_k, since X_{k+1} = X_k + B_T W_k and
    # Q + L = I; rounding in the stored positions bounds the residual
    n = len(radii)
    scn = UavScenario.evenly_phased(radii, 0.5, dt)
    d = np.array(d_diag[: 2 * n])
    gains = gains_scalar(ell, 2 * n)
    run = track(scn, MeasurementModel(d=d), gains, 40, init=init)
    e, w = run["E"], run["W"]
    predicted = e[:-1] * gains.q + w * (gains.l * d - scn.b_t_diag)
    scale = 1.0 + np.max(np.abs(run["X"])) + np.max(np.abs(run["XHAT"]))
    assert np.max(np.abs(e[1:] - predicted)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    radii=st.lists(st.floats(50.0, 300.0), min_size=1, max_size=4),
    dt=st.floats(0.05, 0.5),
    diagonals=st.lists(st.tuples(st.floats(-2.0, 2.0),  # d
                                 st.floats(0.0, 1.5),  # l
                                 st.floats(-3.0, 3.0)),  # h
                       min_size=8, max_size=8),
    init=st.sampled_from(["measurement", "zero"]),
)
def test_vector_forms_equal_the_dense_products(radii, dt, diagonals, init):
    # D, L, Q and H act through their diagonals; the elementwise products
    # must carry the bits of the dense products they stand for
    n2 = 2 * len(radii)
    d, l, h = map(np.array, zip(*diagonals[:n2]))
    scn = UavScenario.evenly_phased(radii, 0.5, dt)
    model = MeasurementModel(d=d)
    xs, ws, ys = simulate_truth(scn, model, 30)
    np.testing.assert_array_equal(ys, xs[:-1] + ws @ np.diag(d).T)
    gains = ObserverGains.from_l(l, h=h)
    run = track(scn, model, gains, 30, init=init)
    xhat = run["XHAT"]
    for k in range(30):
        np.testing.assert_array_equal(
            xhat[k + 1], np.diag(gains.q) @ xhat[k] + np.diag(gains.l) @ run["Y"][k])
    np.testing.assert_array_equal(run["Z"], run["E"] @ np.diag(h).T)


@pytest.mark.parametrize("init", ["measurement", "zero"])
@pytest.mark.parametrize("l", [[0.39] * 8, [-3.9998, 0.3, 1.7, -0.5, 0.0, 1.0, -1.25, 0.9]],
                         ids=["reference", "negative"])
def test_track_runs_the_steps_of_predict_bit_for_bit(init, l):
    # track derives Q once per call; each step must keep the bits of predict
    scn = UavScenario.evenly_phased([100.0, 150.0, 200.0, 250.0], 0.5, 0.15)
    model = MeasurementModel.scaled_identity(4, 0.5)
    gains = ObserverGains.from_l(l)
    run = track(scn, model, gains, 40, init=init)
    xhat = run["XHAT"][0]
    for k in range(40):
        xhat = predict(xhat, gains, run["Y"][k])
        np.testing.assert_array_equal(run["XHAT"][k + 1], xhat)
