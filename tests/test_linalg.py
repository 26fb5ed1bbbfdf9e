"""Kernel tests: PSD/NSD checks, pseudo-inverse and Hermitian solves.
Derived expected values are computed by hand from the characteristic
polynomial or closed-form inverses and frozen here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uiobeam.errors import ShapeError, SingularMatrixError
from uiobeam.linalg import (
    DEFINITENESS_TOL,
    PINV_IDENTITY_TOL,
    SOLVE_RESIDUAL_TOL,
    check_definiteness,
    pinv_full_col_rank,
    solve_hermitian,
)


def test_definiteness_identity_psd():
    assert check_definiteness(np.eye(3), "PSD") is True
    assert check_definiteness(np.eye(3), "NSD") is False


def test_definiteness_negative_identity_nsd():
    assert check_definiteness(-np.eye(3), "NSD") is True
    assert check_definiteness(-np.eye(3), "PSD") is False


def test_definiteness_indefinite_2x2():
    # eigenvalues -1 and 3
    m = [[1.0, 2.0], [2.0, 1.0]]
    assert not check_definiteness(m, "PSD")
    assert not check_definiteness(m, "NSD")


def test_definiteness_zero_matrix_takes_requested_sense():
    z = np.zeros((2, 2))
    assert check_definiteness(z, "PSD")
    assert check_definiteness(z, "NSD")


def test_definiteness_singular_2x2_sits_on_the_boundary():
    # det([[1-l, 1], [1, 1-l]]) = (1-l)^2 - 1 = 0  ->  l = 0, 2
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert check_definiteness(m, "PSD") is True
    assert check_definiteness(m, "NSD") is False
    assert check_definiteness(-m, "NSD") is True
    assert check_definiteness(-m, "PSD") is False


def test_definiteness_negation_swaps_senses():
    # PSD of m is NSD of -m; the cases sit far from the tolerance edge and
    # cover both verdicts, for single matrices and for stacks
    rng = np.random.default_rng(7)
    for n in (2, 5, 17):
        for k in (None, 3):
            shape = (n, n) if k is None else (k, n, n)
            a = rng.standard_normal(shape)
            at = np.swapaxes(a, -1, -2)
            for m, psd in ((a @ at + np.eye(n), True), (a + at, False)):
                assert check_definiteness(m, "PSD") is psd
                assert check_definiteness(-m, "NSD") is psd
                assert check_definiteness(-m, "PSD") is False
                assert check_definiteness(m, "NSD") is False


def test_definiteness_rejects_non_square_and_asymmetric():
    with pytest.raises(ShapeError, match="square"):
        check_definiteness(np.ones((2, 3)), "PSD")
    with pytest.raises(ShapeError, match="asymmetric"):
        check_definiteness([[0.0, 1.0], [0.0, 0.0]], "NSD")


def test_definiteness_symmetrizes_tiny_asymmetry():
    # eigenvalues 1 and 3, 1e-13 off symmetric: averaged with the transpose
    m = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
    assert check_definiteness(m, "PSD")
    assert not check_definiteness(m, "NSD")


def block_diagonal(stack):
    k, n, _ = stack.shape
    dense = np.zeros((k * n, k * n))
    for i, block in enumerate(stack):
        dense[i * n:(i + 1) * n, i * n:(i + 1) * n] = block
    return dense


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.floats(-6.0, 6.0), st.floats(-0.5, 0.5))
def test_stack_verdict_matches_block_diagonal(k, n, seed, log_scale, shift):
    # a stack stands for its block-diagonal matrix: same verdict in each sense
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, n, n))
    stack = 10.0**log_scale * (a + np.swapaxes(a, 1, 2) + shift * n * np.eye(n))
    dense = block_diagonal(stack)
    scale = max(1.0, float(np.max(np.abs(dense))))
    dense_w = np.linalg.eigvalsh(dense)
    # verdicts agree unless an extreme eigenvalue sits within rounding of the tolerance
    if abs(dense_w[0] + DEFINITENESS_TOL) > 1e-12 * scale:
        assert check_definiteness(stack, "PSD") == check_definiteness(dense, "PSD")
    if abs(dense_w[-1] - DEFINITENESS_TOL) > 1e-12 * scale:
        assert check_definiteness(stack, "NSD") == check_definiteness(dense, "NSD")


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_definiteness_tolerance_is_inclusive(n):
    # eigvalsh returns +-t exactly for these scaled identities, so each check
    # sits on its edge: at t the verdict holds, at 2t it fails
    t, eye = DEFINITENESS_TOL, np.eye(n)
    assert check_definiteness(-t * eye, "PSD")
    assert check_definiteness(t * eye, "NSD")
    assert not check_definiteness(-2 * t * eye, "PSD")
    assert not check_definiteness(2 * t * eye, "NSD")
    assert check_definiteness(np.stack([eye, -t * eye]), "PSD")
    assert not check_definiteness(np.stack([eye, -2 * t * eye]), "PSD")
    assert check_definiteness(np.stack([-eye, t * eye]), "NSD")
    assert not check_definiteness(np.stack([-eye, 2 * t * eye]), "NSD")


def test_stack_with_one_asymmetric_block_raises():
    stack = np.tile(np.eye(3), (4, 1, 1))
    stack[2, 0, 1] = 1e-3
    with pytest.raises(ShapeError, match="asymmetric"):
        check_definiteness(stack, "PSD")


def test_stack_symmetry_tolerance_is_relative_to_the_whole_stack():
    # an asymmetry of 1e-10 in a unit block passes when another block sets a
    # scale of 1e3 (allowed 1e-9), and fails on its own (allowed 1e-12)
    stack = np.stack([np.eye(2), 1e3 * np.eye(2)])
    stack[0, 0, 1] = 1e-10
    assert check_definiteness(stack, "PSD")
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
