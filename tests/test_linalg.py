"""Kernel tests: eigenvalue bounds, definiteness verdicts, pseudo-inverse and
Hermitian solves. Derived expected values are computed by hand from the
characteristic polynomial or closed-form inverses and frozen here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uiobeam.errors import ShapeError, SingularMatrixError
from uiobeam.linalg import (
    DEFINITENESS_TOL,
    DefinitenessReport,
    PINV_IDENTITY_TOL,
    SOLVE_RESIDUAL_TOL,
    check_definiteness,
    eig_sym_bounds,
    pinv_full_col_rank,
    solve_hermitian,
)


def test_eig_bounds_identity():
    lo, hi = eig_sym_bounds(np.eye(3))
    assert lo == pytest.approx(1.0, rel=1e-12)
    assert hi == pytest.approx(1.0, rel=1e-12)


def test_eig_bounds_hand_computed_2x2():
    # det([[1-l, 2], [2, 1-l]]) = (1-l)^2 - 4 = 0  ->  l = -1, 3
    lo, hi = eig_sym_bounds([[1.0, 2.0], [2.0, 1.0]])
    assert lo == pytest.approx(-1.0, rel=1e-10)
    assert hi == pytest.approx(3.0, rel=1e-10)


def test_eig_bounds_zero_matrix():
    assert eig_sym_bounds(np.zeros((4, 4))) == (0.0, 0.0)


def test_eig_bounds_negation_swaps():
    rng = np.random.default_rng(7)
    for n in (2, 5, 17):
        a = rng.standard_normal((n, n))
        m = a + a.T
        lo, hi = eig_sym_bounds(m)
        neg_lo, neg_hi = eig_sym_bounds(-m)
        assert neg_lo == pytest.approx(-hi, rel=1e-10, abs=1e-12)
        assert neg_hi == pytest.approx(-lo, rel=1e-10, abs=1e-12)


def test_eig_bounds_rejects_non_square_and_asymmetric():
    with pytest.raises(ShapeError):
        eig_sym_bounds(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        eig_sym_bounds([[0.0, 1.0], [0.0, 0.0]])


def test_eig_bounds_symmetrizes_tiny_asymmetry():
    m = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    lo, hi = eig_sym_bounds(m)
    assert lo == pytest.approx(-1.0, rel=1e-9)
    assert hi == pytest.approx(3.0, rel=1e-9)


def test_definiteness_identity_psd():
    report = check_definiteness(np.eye(3), "PSD")
    assert report.verdict == "PSD"
    assert report.min_eigenvalue <= report.max_eigenvalue


def test_definiteness_negative_identity_nsd():
    assert check_definiteness(-np.eye(3), "NSD").verdict == "NSD"


def test_definiteness_indefinite_2x2():
    # eigenvalues -1 and 3
    report = check_definiteness([[1.0, 2.0], [2.0, 1.0]], "PSD")
    assert report.verdict == "indefinite"


def test_definiteness_zero_matrix_takes_requested_sense():
    z = np.zeros((2, 2))
    assert check_definiteness(z, "PSD").verdict == "PSD"
    assert check_definiteness(z, "NSD").verdict == "NSD"


def test_definiteness_report_type():
    assert isinstance(check_definiteness(np.eye(2), "PSD"), DefinitenessReport)


def block_diagonal(stack):
    k, n, _ = stack.shape
    dense = np.zeros((k * n, k * n))
    for i, block in enumerate(stack):
        dense[i * n:(i + 1) * n, i * n:(i + 1) * n] = block
    return dense


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.floats(-6.0, 6.0), st.floats(-0.5, 0.5))
def test_stack_bounds_and_verdict_match_block_diagonal(k, n, seed, log_scale, shift):
    # a stack stands for its block-diagonal matrix: same bounds, same verdict
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, n, n))
    stack = 10.0**log_scale * (a + np.swapaxes(a, 1, 2) + shift * n * np.eye(n))
    dense = block_diagonal(stack)
    scale = max(1.0, float(np.max(np.abs(dense))))
    lo, hi = eig_sym_bounds(stack)
    dense_lo, dense_hi = eig_sym_bounds(dense)
    assert abs(lo - dense_lo) <= 1e-12 * scale
    assert abs(hi - dense_hi) <= 1e-12 * scale
    for sense in ("PSD", "NSD"):
        report = check_definiteness(stack, sense)
        dense_report = check_definiteness(dense, sense)
        assert (report.min_eigenvalue, report.max_eigenvalue) == (lo, hi)
        # verdicts agree unless an extreme eigenvalue sits within rounding of the tolerance
        if (min(abs(dense_lo + DEFINITENESS_TOL), abs(dense_hi - DEFINITENESS_TOL))
                > 1e-12 * scale):
            assert report.verdict == dense_report.verdict


def test_stack_with_one_asymmetric_block_raises():
    stack = np.tile(np.eye(3), (4, 1, 1))
    stack[2, 0, 1] = 1e-3
    with pytest.raises(ShapeError, match="asymmetric"):
        eig_sym_bounds(stack)
    with pytest.raises(ShapeError, match="asymmetric"):
        check_definiteness(stack, "PSD")


def test_stack_symmetry_tolerance_is_relative_to_the_whole_stack():
    # an asymmetry of 1e-10 in a unit block passes when another block sets a
    # scale of 1e3 (allowed 1e-9), and fails on its own (allowed 1e-12)
    stack = np.stack([np.eye(2), 1e3 * np.eye(2)])
    stack[0, 0, 1] = 1e-10
    assert check_definiteness(stack, "PSD").verdict == "PSD"
    with pytest.raises(ShapeError, match="asymmetric"):
        check_definiteness(stack[:1], "PSD")


def test_non_square_trailing_dimensions_raise():
    for shape in ((2, 3), (4, 2, 3), (3,)):
        with pytest.raises(ShapeError, match="square"):
            check_definiteness(np.zeros(shape), "PSD")


def test_empty_matrix_or_stack_raises():
    for shape in ((0, 0), (0, 3, 3)):
        with pytest.raises(ShapeError, match="no eigenvalues"):
            check_definiteness(np.zeros(shape), "PSD")


def test_stack_with_nan_in_one_block_raises():
    stack = np.tile(np.eye(2), (3, 1, 1))
    stack[1, 1, 1] = np.nan
    with pytest.raises(ShapeError, match="non-finite"):
        check_definiteness(stack, "NSD")


def test_pinv_unit_column():
    np.testing.assert_allclose(pinv_full_col_rank([[1.0], [0.0]]), [[1.0, 0.0]], atol=1e-14)


def test_pinv_stacked_diagonal_closed_form():
    # G = [B_T; 0] with B_T = 0.15 I_8: pinv is [(1/0.15) I_8, 0]
    b_t = 0.15 * np.eye(8)
    g = np.vstack([b_t, np.zeros((8, 8))])
    expected = np.hstack([np.eye(8) / 0.15, np.zeros((8, 8))])
    np.testing.assert_allclose(pinv_full_col_rank(g), expected, rtol=1e-12)


def test_pinv_identity():
    np.testing.assert_allclose(pinv_full_col_rank(np.eye(2)), np.eye(2), atol=1e-14)


def test_pinv_left_identity_property():
    rng = np.random.default_rng(11)
    for rows, cols in ((5, 3), (16, 8), (40, 12)):
        g = rng.standard_normal((rows, cols))
        ident = pinv_full_col_rank(g) @ g
        assert np.max(np.abs(ident - np.eye(cols))) <= PINV_IDENTITY_TOL


def test_pinv_rank_deficient_names_condition_number():
    g = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError, match="condition number"):
        pinv_full_col_rank(g)


def test_solve_hermitian_scaled_identity():
    x = solve_hermitian(2.0 * np.eye(2), np.eye(2))
    np.testing.assert_allclose(x, 0.5 * np.eye(2), atol=1e-14)


def test_solve_hermitian_hand_computed_2x2():
    # inv([[2, i], [-i, 2]]) = (1/3) [[2, -i], [i, 2]]; rhs [1, 0] -> [2/3, i/3]
    m = np.array([[2.0, 1j], [-1j, 2.0]])
    x = solve_hermitian(m, np.array([1.0, 0.0]))
    np.testing.assert_allclose(x, [2.0 / 3.0, 1j / 3.0], atol=1e-14)


def test_solve_hermitian_identity_returns_rhs():
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    np.testing.assert_allclose(solve_hermitian(np.eye(6), rhs), rhs, atol=1e-14)


def test_solve_hermitian_rejects_non_pd_and_non_hermitian():
    with pytest.raises(SingularMatrixError):
        solve_hermitian(-np.eye(3), np.ones(3))
    with pytest.raises(ShapeError):
        solve_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2))


def test_solve_hermitian_residual_bound_up_to_256():
    rng = np.random.default_rng(19)
    for n in (4, 32, 256):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = b @ b.conj().T + n * np.eye(n)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = solve_hermitian(m, rhs)
        resid = np.max(np.abs(m @ x - rhs))
        assert resid <= SOLVE_RESIDUAL_TOL * np.max(np.abs(rhs))
