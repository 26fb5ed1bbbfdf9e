"""Observer-design tests.

Independent oracles used here:
  * principal-minor characterization of 3x3 negative semidefiniteness,
    evaluated on the scalar-coordinate reduction (minor_feasible below);
  * the closed-form critical interval dt* = d + sqrt((1 + 4 mu) / 8) valid
    for alpha = 1/2, d = 1/2, h = 1, derived by maximizing the admissible
    certificate scale over the gain ratio;
  * the dense LMI check feasible() of lmi_oracle, against which the
    closed-form floor and its optimal gain are property-tested.
Derived example points (p, z, mu) were verified against the minors by hand
before being frozen.
"""

import concurrent.futures
import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmi_oracle import assemble_lmi_blocks, feasible
from uiobeam.design import (
    LmiProblem,
    LmiSolution,
    ObserverGains,
    critical_dt,
    design,
    diagonal_feasible,
    dt_interval,
    gain_point_feasible,
    mu_feasible,
    mu_floor,
    performance_blocks,
)
from uiobeam.errors import BracketError, InfeasibleError, ShapeError
from uiobeam.linalg import DEFINITENESS_TOL, check_definiteness

# the package re-exports the function design(), which shadows the module name
design_module = importlib.import_module("uiobeam.design")


def reference_problem(mu_max=1.0, alpha=0.5, dt=0.15):
    return LmiProblem.uniform(4, dt, d_scale=0.5, h_scale=1.0, alpha=alpha, mu_max=mu_max)


def minor_feasible(alpha, b, d, h, p, z, mu):
    """Oracle: all principal minors of the negated 3x3 block non-negative,
    plus the 2x2 Schur condition p*mu >= h^2."""
    a11, a22, a33 = (1.0 - alpha) * p, alpha, p
    a13, a23 = z - p, p * b - z * d
    minors = (
        a11, a22, a33,
        a11 * a22, a11 * a33 - a13**2, a22 * a33 - a23**2,
        a11 * a22 * a33 - a11 * a23**2 - a22 * a13**2,
    )
    return all(m >= -1e-9 for m in minors) and p >= 0 and mu >= 0 and p * mu >= h * h


def closed_form_critical_dt(mu):
    # alpha = 1/2, d = 1/2, h = 1 only
    return 0.5 + np.sqrt((1.0 + 4.0 * mu) / 8.0)


def test_assemble_scalar_reduction_matches_dense():
    prob = reference_problem()
    p_val, z_val = 22.68, 8.85
    m1, m2 = assemble_lmi_blocks(prob, p_val * np.eye(8), z_val * np.eye(8), 0.0441)
    block = design_module._tracking_blocks(0.5, 0.15, 0.5, p_val, z_val)
    expected_block = np.array([
        [-0.5 * p_val, 0.0, p_val - z_val],
        [0.0, -0.5, 0.5 * z_val - 0.15 * p_val],
        [p_val - z_val, 0.5 * z_val - 0.15 * p_val, -p_val],
    ])
    np.testing.assert_allclose(block, expected_block)
    # dense M1 is permutation-similar to 8 copies of the scalar block
    dense_eigs = np.sort(np.linalg.eigvalsh(m1))
    block_eigs = np.sort(np.tile(np.linalg.eigvalsh(expected_block), 8))
    np.testing.assert_allclose(dense_eigs, block_eigs, rtol=1e-10, atol=1e-10)
    assert m1.shape == (24, 24) and m2.shape == (16, 16)


def test_assemble_identity_case():
    prob = LmiProblem(alpha=0.5, b_t=np.ones(2), d=np.zeros(2), h=np.ones(2), mu_max=1.0)
    block = design_module._tracking_blocks(0.5, 1.0, 0.0, 1.0, 1.0)
    np.testing.assert_allclose(
        block, [[-0.5, 0.0, 0.0], [0.0, -0.5, -1.0], [0.0, -1.0, -1.0]]
    )
    m1, _ = assemble_lmi_blocks(prob, np.eye(2), np.eye(2), 1.0)
    dense_eigs = np.sort(np.linalg.eigvalsh(m1))
    np.testing.assert_allclose(dense_eigs, np.sort(np.tile(np.linalg.eigvalsh(block), 2)),
                               atol=1e-12)


def test_assemble_m2_boundary_psd():
    prob = reference_problem()
    _, m2 = assemble_lmi_blocks(prob, np.eye(8), np.eye(8), 1.0)
    assert check_definiteness(m2, "PSD")
    assert abs(np.linalg.eigvalsh(m2)[0]) <= 1e-10


def test_feasible_hand_verified_point():
    prob = reference_problem()
    assert feasible(prob, 22.68 * np.eye(8), 8.85 * np.eye(8), 0.0441)
    assert minor_feasible(0.5, 0.15, 0.5, 1.0, 22.68, 8.85, 0.0441)


def test_infeasible_zero_gain_point():
    prob = reference_problem()
    assert not feasible(prob, np.eye(8), np.zeros((8, 8)), 1.0)
    assert not minor_feasible(0.5, 0.15, 0.5, 1.0, 1.0, 0.0, 1.0)


def test_infeasible_when_mu_below_schur_bound():
    # p*mu >= 1 fails for every diagonal entry of P
    prob = reference_problem()
    p = np.diag(np.linspace(1.0, 4.0, 8))
    mu = 0.9 / np.max(np.diag(p))
    assert not feasible(prob, p, 0.3 * p, mu)


def test_feasible_agrees_with_minor_oracle_on_grid():
    prob = reference_problem()
    rng = np.random.default_rng(23)
    for _ in range(60):
        p_val = 10.0 ** rng.uniform(-1, 3)
        z_val = p_val * rng.uniform(-0.5, 2.0)
        mu = 10.0 ** rng.uniform(-3, 1)
        via_dense = feasible(prob, p_val * np.eye(8), z_val * np.eye(8), mu)
        via_minors = minor_feasible(0.5, 0.15, 0.5, 1.0, p_val, z_val, mu)
        # minors use a small slack; skip points within it of the boundary
        if via_dense != via_minors:
            block = design_module._tracking_blocks(0.5, 0.15, 0.5, p_val, z_val)
            assert abs(np.max(np.linalg.eigvalsh(block))) < 1e-6
            continue
        assert via_dense == via_minors


def test_design_reference_levels_and_reported_gain_points():
    for mu_max, gamma_ref, ell in ((0.05, 0.21, 0.39), (0.25, 0.47, 0.60), (1.0, 0.96, 0.76)):
        prob = reference_problem(mu_max=mu_max)
        solution, gains = design(prob)
        assert solution.certified
        assert solution.gamma <= gamma_ref + 0.01
        assert solution.mu <= mu_max
        # dense re-check (structured/dense agreement)
        assert feasible(prob, np.diag(solution.p), np.diag(solution.z), solution.mu)
        # the reported scalar gain point verifies in closed form
        assert gain_point_feasible(prob, ell, gamma_ref**2)
        # gains structure; scalar-identity solutions have radius |1 - z/p|
        np.testing.assert_array_equal(gains.q + gains.l, np.ones(8))
        radius = np.max(np.abs(gains.q))
        assert radius < 1.0
        assert radius == pytest.approx(abs(1.0 - gains.l[0]), rel=1e-12)
        assert np.min(solution.p) > 1e-10


def test_design_gamma_is_sqrt_mu():
    solution, _ = design(reference_problem(mu_max=0.25))
    assert solution.gamma == pytest.approx(np.sqrt(solution.mu), rel=0, abs=0)


def test_monotone_in_mu_at_fixed_dt():
    # dt = 1.2 sits between the mu=0.25 and mu=1 critical intervals, so
    # feasibility must switch exactly once along increasing mu.
    prob = reference_problem(dt=1.2)
    flags = [mu_feasible(prob, mu) for mu in (0.3, 0.5, 0.75, 0.9, 1.5, 3.0)]
    assert flags == sorted(flags)
    assert flags[0] is False and flags[-1] is True


def test_design_infeasible_below_bracket_floor():
    with pytest.raises(InfeasibleError) as excinfo:
        design(reference_problem(mu_max=1e-9))
    assert excinfo.value.mu_attempted == pytest.approx(1e-9)


def test_design_infeasible_at_large_dt():
    # beyond the mu=1 critical interval (~1.29 s) nothing under mu_max=1 works
    with pytest.raises(InfeasibleError) as excinfo:
        design(reference_problem(mu_max=1.0, dt=1.5))
    assert excinfo.value.mu_attempted == pytest.approx(1.0)


def test_critical_dt_matches_closed_form():
    for mu in (0.05, 0.25, 1.0):
        prob = reference_problem(mu_max=mu)
        dt_star = critical_dt(prob, (0.15, 2.0))
        assert dt_star == pytest.approx(closed_form_critical_dt(mu), abs=2e-3)


def test_critical_dt_bracket_errors():
    prob = reference_problem(mu_max=0.05)
    with pytest.raises(BracketError, match="still feasible"):
        critical_dt(prob, (0.15, 0.5))
    with pytest.raises(BracketError, match="already infeasible"):
        critical_dt(prob, (1.5, 2.0))


def test_critical_dt_rejects_non_finite_bracket():
    # an infinite high end would never close the bisection (it comes last, so
    # a build without the check fails on the NaN cases before reaching it)
    prob = reference_problem(mu_max=0.05)
    for bracket in ((np.nan, 2.0), (0.15, np.nan), (0.15, np.inf)):
        with pytest.raises(BracketError, match="must be finite"):
            critical_dt(prob, bracket)


def test_design_at_reference_decay_rates():
    prob = reference_problem(mu_max=0.25)
    for alpha in (0.5, 0.1, 0.01):
        solution, gains = design(dataclasses.replace(prob, alpha=alpha))
        assert solution.certified
        assert solution.mu <= prob.mu_max
        np.testing.assert_array_equal(gains.h, prob.h)


def test_design_infeasible_at_small_decay_rate():
    # at dt = 1.2 the admissible certificate scale is ~0.04 for alpha = 0.01
    # (needs mu >= ~24), while alpha = 0.5 is feasible under mu_max = 1
    prob = reference_problem(mu_max=1.0, dt=1.2)
    solution, _ = design(prob)
    assert solution.certified
    with pytest.raises(InfeasibleError) as excinfo:
        design(dataclasses.replace(prob, alpha=0.01))
    assert excinfo.value.mu_attempted == pytest.approx(1.0)


def test_state_matrix_is_derived_from_the_gain():
    # 1 - l rounds for l = -3.9998, so Q + L = I need not hold bit for bit:
    # Q is derived from L, never checked against it
    l = np.array([0.4, -3.9998, 7.3])
    gains = ObserverGains.from_l(l)
    np.testing.assert_array_equal(gains.q.view(np.uint64), (1.0 - l).view(np.uint64))
    np.testing.assert_array_equal(gains.h, np.ones(3))
    # each record stores a value once: gamma and Q are derived from mu and L
    assert [f.name for f in dataclasses.fields(ObserverGains)] == ["l", "h"]
    assert [f.name for f in dataclasses.fields(LmiSolution)] == ["p", "z", "mu", "certified"]


def test_gains_validation():
    # the matrices are carried as their diagonals
    with pytest.raises(ShapeError, match="vector of diagonal entries"):
        ObserverGains.from_l(0.4 * np.eye(2))
    with pytest.raises(ShapeError, match="vector of diagonal entries"):
        ObserverGains.from_l(np.full(2, 0.4), h=np.ones(3))


def test_problem_validation():
    with pytest.raises(ShapeError):
        LmiProblem.uniform(2, 0.15, alpha=1.5)
    with pytest.raises(ShapeError):
        LmiProblem.uniform(2, -0.15)
    with pytest.raises(ShapeError):
        LmiProblem.uniform(2, 0.15, mu_max=-1.0)
    with pytest.raises(ShapeError, match="^d must be a vector of diagonal entries"):
        LmiProblem(alpha=0.5, b_t=np.full(2, 0.15), d=0.5 * np.eye(2), h=np.ones(2), mu_max=1.0)
    with pytest.raises(ShapeError, match="^h shape"):
        LmiProblem(alpha=0.5, b_t=np.full(2, 0.15), d=np.full(2, 0.5), h=np.ones(3), mu_max=1.0)


def test_problem_rejects_non_finite_entries():
    for name in ("b_t", "d", "h"):
        for bad in (np.inf, np.nan):
            data = {"b_t": np.full(2, 0.15), "d": np.full(2, 0.5), "h": np.ones(2)}
            data[name][1] = bad
            with pytest.raises(ShapeError, match=f"^{name} contains non-finite"):
                LmiProblem(alpha=0.5, mu_max=1.0, **data)


def mixed_d_problem(mu_max):
    # UAV 1 carries the d = 0.7 class, whose floor is (0.55^2 - 0.5 * 0.49) / 0.5 = 0.115
    d = [0.5, 0.5, 0.7, 0.7, 0.3, 0.3, 0.5, 0.5]
    return LmiProblem(alpha=0.5, b_t=np.full(8, 0.15), d=d, h=np.ones(8), mu_max=mu_max)


def test_design_names_a_coordinate_without_candidates(monkeypatch):
    real = design_module._certificate_search

    def no_candidates_for_d07(alpha, rows, mu):
        return [None if row[1] == 0.7 else pair for row, pair in zip(rows, real(alpha, rows, mu))]

    monkeypatch.setattr(design_module, "_certificate_search", no_candidates_for_d07)
    with pytest.raises(InfeasibleError, match=r"for coordinate 2 \(UAV 1, closed-form floor 0\.115\)"):
        design(mixed_d_problem(1.0))


def test_search_runs_once_per_distinct_coordinate_in_design_only(monkeypatch):
    real = design_module._certificate_search
    rows = []

    def counting(alpha, searched, mu):
        rows.extend(map(tuple, searched.tolist()))
        return real(alpha, searched, mu)

    monkeypatch.setattr(design_module, "_certificate_search", counting)
    prob = mixed_d_problem(1.0)
    solution, _ = design(prob)
    assert solution.certified
    assert sorted(rows) == [(0.15, 0.3, 1.0), (0.15, 0.5, 1.0), (0.15, 0.7, 1.0)]
    rows.clear()
    mu_feasible(prob, 0.5)
    gain_point_feasible(prob, 0.39, 0.25)
    critical_dt(reference_problem(mu_max=0.25), (0.15, 2.0))
    assert rows == []


def test_mu_floor_reduces_to_reference_frontier():
    # alpha = d = 1/2, h = 1: mu >= floor  <=>  dt <= 1/2 + sqrt((1 + 4 mu) / 8)
    for mu in (0.05, 0.25, 1.0):
        dt_star = closed_form_critical_dt(mu)
        assert mu_floor(0.5, dt_star, 0.5, 1.0) == pytest.approx(mu, rel=1e-12)
        assert dt_interval(reference_problem(), mu)[1] == pytest.approx(dt_star)


coordinates = st.tuples(
    st.floats(0.05, 0.95),  # alpha
    st.floats(0.01, 2.0),  # b
    st.floats(-1.0, 1.5),  # d
    st.floats(0.1, 3.0),  # h
)


def scalar_problem(alpha, b, d, h, mu_max=1.0):
    return LmiProblem(alpha=alpha, b_t=[b], d=[d], h=[h], mu_max=mu_max)


@settings(max_examples=150, deadline=None)
@given(coordinates, st.floats(1e-6, 10.0), st.floats(1e-3, 10.0))
def test_closed_form_certificate_passes_dense_check(coord, excess, mu_free):
    alpha, b, d, h = coord
    mu = max(mu_floor(alpha, b, d, h) * (1.0 + excess), mu_free)
    c = h * h * (1.0 - alpha)
    ell = (mu * alpha + c * b * d) / (mu * alpha + c * d * d)
    p = h * h / mu
    assert feasible(scalar_problem(*coord), [[p]], [[ell * p]], mu)
    assert mu_feasible(scalar_problem(*coord), mu)
    assert gain_point_feasible(scalar_problem(*coord), ell, mu)


@settings(max_examples=60, deadline=None)
@given(coordinates, st.floats(1e-6, 10.0), st.floats(1e-3, 10.0), st.integers(1, 50))
def test_certified_gamma_bounds_the_exact_linf_gain(coord, excess, mu_free, horizon):
    # the error e_{k+1} = q e_k + (ell d - b) w_k seen through h has the
    # l-infinity gain g = |h (ell d - b)| / (1 - |q|), which the certified
    # gamma must bound; the bang-bang input of unit size reaches g (1 - |q|^K)
    alpha, b, d, h = coord
    mu_max = max(mu_floor(alpha, b, d, h) * (1.0 + excess), mu_free)
    assume(mu_max <= 10.0)
    solution, gains = design(scalar_problem(*coord, mu_max))
    ell, q = gains.l[0], gains.q[0]
    gain = abs(h * (ell * d - b)) / (1.0 - abs(q))
    assert gain <= solution.gamma * (1.0 + 1e-9)
    w = np.sign(h * (ell * d - b) * q ** (horizon - 1 - np.arange(horizon)))
    e = 0.0
    for w_k in w:
        e = q * e + (ell * d - b) * w_k
    assert abs(h * e) == pytest.approx(gain * (1.0 - abs(q) ** horizon), rel=1e-9, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(coordinates, st.floats(1e-3, 1.0))
def test_search_finds_nothing_below_floor(coord, fraction):
    floor = mu_floor(*coord)
    assume(floor > 1e-3)
    mu = (1.0 - 1e-3) * fraction * floor
    alpha, *row = coord
    assert design_module._certificate_search(alpha, [row], mu) == [None]
    assert not mu_feasible(scalar_problem(*coord), mu)


def search_bits(pairs):
    return [None if pair is None else np.array(pair).tobytes() for pair in pairs]


def search_one_row(alpha, b, d, h, mu):
    """Reference for the stacked certificate search: one coordinate at a
    time, one eigvalsh call per section point, through the block
    builders. The stacked search must give each row these bits."""
    p_lo = max(h * h / mu, design_module.P_FLOOR)
    ps = np.geomspace(p_lo, design_module.P_GRID_SPAN * p_lo, design_module.P_GRID_POINTS)
    half = np.sqrt(1.0 - alpha)
    z_a, z_b = ps * (1.0 - half), ps * (1.0 + half)

    def top(zs):
        return np.linalg.eigvalsh(design_module._tracking_blocks(alpha, b, d, ps, zs))[:, -1]

    for _ in range(design_module._GOLDEN_ITERS):
        z_c = z_b - design_module._INVPHI * (z_b - z_a)
        z_d = z_a + design_module._INVPHI * (z_b - z_a)
        take_left = top(z_c) < top(z_d)
        z_b = np.where(take_left, z_d, z_b)
        z_a = np.where(take_left, z_a, z_c)
    zs = 0.5 * (z_a + z_b)
    tol = design_module.INNER_TOL
    ok = (top(zs) <= tol) & (np.linalg.eigvalsh(performance_blocks(h, ps, mu))[:, 0] >= -tol)
    if not np.any(ok):
        return None
    gains = np.round(np.abs(zs[ok] / ps[ok]), 6)
    best = np.flatnonzero(ok)[np.lexsort((ps[ok], gains))[0]]
    return float(ps[best]), float(zs[best])


@settings(max_examples=12, deadline=None)
@given(
    st.floats(0.05, 0.95),  # alpha
    st.lists(st.tuples(st.floats(0.01, 2.0), st.floats(-1.0, 1.5), st.floats(0.1, 3.0)),
             min_size=1, max_size=4, unique=True),  # rows (b, d, h)
    st.floats(1.0, 10.0),  # mu over the largest floor of the drawn rows
    st.floats(1e-3, 10.0),  # mu free of the floors
    st.integers(0, 4),  # where the row below its floor goes
)
def test_stacked_search_gives_each_row_the_bits_it_gets_alone(alpha, rows, excess, mu_free,
                                                               at):
    mu = max(excess * max(mu_floor(alpha, *row) for row in rows), mu_free)
    # d = 0 puts this row's floor at h^2 b^2 / alpha = 2 mu
    b = rows[0][0]
    rows.insert(min(at, len(rows)), (b, 0.0, np.sqrt(2.0 * mu * alpha) / b))
    search = design_module._certificate_search
    alone = [search_one_row(alpha, *row, mu) for row in rows]
    assert alone[min(at, len(rows) - 1)] is None
    helpers = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            helpers.append(kwargs)
            super().__init__(*args, **kwargs)

    points = len(rows) * design_module.P_GRID_POINTS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        # a gate above the stack searches it inline
        patch.setattr(design_module, "SEARCH_LANE_MIN_POINTS", points + 1)
        assert search_bits(search(alpha, rows, mu)) == search_bits(alone)
        assert helpers == []
        # a one-point gate cuts every stack in halves, across rows too, the
        # second searched on one helper thread
        patch.setattr(design_module, "SEARCH_LANE_MIN_POINTS", 1)
        assert search_bits(search(alpha, rows, mu)) == search_bits(alone)
        assert helpers == [{"max_workers": 1, "thread_name_prefix": "uiobeam-search"}]


@settings(max_examples=150, deadline=None)
@given(coordinates, st.floats(-0.5, 2.5), st.floats(1e-2, 10.0))
def test_gain_point_agrees_with_dense_check(coord, ell, mu):
    alpha, b, d, h = coord
    margin = mu * alpha * (1.0 - alpha - (1.0 - ell) ** 2) - h * h * (1.0 - alpha) * (ell * d - b) ** 2
    assume(abs(margin) > 1e-6)
    p = h * h / mu
    prob = scalar_problem(*coord)
    assert gain_point_feasible(prob, ell, mu) == feasible(prob, [[p]], [[ell * p]], mu)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.05, 0.95),  # alpha
    st.floats(0.01, 2.0),  # b, shared: one measurement interval
    st.lists(st.tuples(st.sampled_from((-0.2, 0.3, 0.5, 0.7, 1.2)),  # d class
                       st.floats(0.1, 3.0),  # h
                       st.floats(-0.3, 0.3),  # gain offset from the closed-form optimum
                       st.floats(-0.1, 1.0)),  # log10 of p / (h^2 / mu)
             min_size=1, max_size=6),
    st.floats(1e-3, 10.0),  # mu
)
def test_stacked_certificate_agrees_with_dense_oracle(alpha, b, coords, mu):
    # random diagonal (P, Z, mu) on multi-coordinate problems with mixed d; the
    # stacked 3x3 / 2x2 verdict must equal the dense feasible() verdict
    d, h, offset, log_p = map(np.array, zip(*coords))
    c = h * h * (1.0 - alpha)
    ell = (mu * alpha + c * b * d) / (mu * alpha + c * d * d) + offset
    p_diag = h * h / mu * 10.0**log_p
    z_diag = ell * p_diag
    n = len(coords)
    prob = LmiProblem(alpha=alpha, b_t=np.full(n, b), d=d, h=h, mu_max=mu)
    m1, m2 = assemble_lmi_blocks(prob, np.diag(p_diag), np.diag(z_diag), mu)
    tol = DEFINITENESS_TOL
    scale = max(1.0, np.max(np.abs(m1)), np.max(np.abs(m2)))
    assume(abs(np.linalg.eigvalsh(m1)[-1] - tol) > 1e-9 * scale)
    assume(abs(np.linalg.eigvalsh(m2)[0] + tol) > 1e-9 * scale)
    verdict = diagonal_feasible(prob, p_diag, z_diag, mu)
    assert verdict == feasible(prob, np.diag(p_diag), np.diag(z_diag), mu)
    stacks = (design_module._tracking_blocks(alpha, b, d, p_diag, z_diag),
              performance_blocks(h, p_diag, mu))
    assert [s.shape for s in stacks] == [(n, 3, 3), (n, 2, 2)]
