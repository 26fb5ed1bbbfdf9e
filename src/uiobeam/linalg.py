"""Small dense linear-algebra kernel used by the observer design and the
beamformer: a yes/no PSD/NSD check of symmetric matrices, the
normal-equation pseudo-inverse and Hermitian positive-definite solves.

The symmetric routines take one matrix or a stack of shape (..., k, k); a
stack stands for the block-diagonal matrix of its blocks, so a check is
taken over the union of the block spectra.

Every tolerance that the certificate checks and the tests share is a named
constant here, so the solver and its verification cannot drift apart; every
definiteness verdict is issued at DEFINITENESS_TOL.
Everything is a pure function over immutable inputs, safe to call from
any thread; this module starts none and reads no CPU count.
"""

import numpy as np

from .errors import ShapeError, SingularMatrixError

# Maximum tolerated asymmetry |M - M^T|, relative to max(1, max|M|).
SYMMETRY_TOL = 1e-12
# Maximum tolerated deviation from M = M^H for Hermitian solves.
HERMITIAN_TOL = 1e-10
# Smallest eigenvalue of G^T G still treated as full column rank.
RANK_TOL = 1e-12
# Tolerance at which every semidefiniteness verdict is issued.
DEFINITENESS_TOL = 1e-8
# Contract of solve_hermitian: ||m x - rhs||_inf <= SOLVE_RESIDUAL_TOL * ||rhs||_inf.
SOLVE_RESIDUAL_TOL = 1e-9
# Contract of pinv_full_col_rank: ||pinv(G) G - I||_inf below this.
PINV_IDENTITY_TOL = 1e-10


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ShapeError(f"{name} must be square or a stack of square blocks, "
                         f"got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError(f"{name} contains non-finite entries")
    return m


def symmetrize_checked(m, name="matrix"):
    """Average m (or each block of a stack) with its transpose if the
    asymmetry is within SYMMETRY_TOL, otherwise raise. The tolerance is
    relative to max(1, max|M|) over the whole stack. Guards against silently
    mis-assembled certificate blocks."""
    m = _as_square(m, name)
    mt = np.swapaxes(m, -1, -2)
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    asym = float(np.max(np.abs(m - mt))) if m.size else 0.0
    if asym > SYMMETRY_TOL * scale:
        raise ShapeError(
            f"{name} is asymmetric beyond tolerance: max |M - M^T| = {asym:.3e} "
            f"(allowed {SYMMETRY_TOL * scale:.3e})"
        )
    return 0.5 * (m + mt)


def check_definiteness(m, sense):
    """True iff a symmetric matrix is PSD (smallest eigenvalue at least
    -DEFINITENESS_TOL) or NSD (largest eigenvalue at most DEFINITENESS_TOL),
    as ``sense`` ('PSD' or 'NSD') asks.

    A stack of shape (..., k, k) is checked as its block-diagonal matrix:
    PSD iff every block is, NSD iff every block is, so a certificate whose
    blocks decouple is checked without assembling the dense matrix.
    """
    if sense not in ("PSD", "NSD"):
        raise ValueError(f"sense must be 'PSD' or 'NSD', got {sense!r}")
    w = np.linalg.eigvalsh(symmetrize_checked(m))
    if not w.size:
        raise ShapeError(f"matrix of shape {np.shape(m)} has no eigenvalues")
    if sense == "PSD":
        return bool(np.min(w[..., 0]) >= -DEFINITENESS_TOL)
    return bool(np.max(w[..., -1]) <= DEFINITENESS_TOL)


def row_norms(a):
    """Euclidean norm along the last axis. One dot product per row, so each
    value is bit-identical to np.linalg.norm of that row (np.hypot and a
    summed square are not)."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(np.vecdot(a, a))


def pinv_full_col_rank(g):
    """Moore-Penrose pseudo-inverse (G^T G)^{-1} G^T of a full-column-rank G.

    Normal equations are adequate here: every G in this package is a
    well-conditioned block matrix built from the diagonal sampling-time
    matrix. Rank deficiency (smallest eigenvalue of G^T G at or below
    RANK_TOL) raises with the offending condition number.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ShapeError("matrix contains non-finite entries")
    gram = g.T @ g
    w = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if w[0] <= RANK_TOL:
        cond = float(w[-1] / w[0]) if w[0] > 0 else np.inf
        raise SingularMatrixError(
            f"matrix is not full column rank: smallest eigenvalue of G^T G is "
            f"{w[0]:.3e} <= {RANK_TOL:.0e} (condition number {cond:.3e})"
        )
    return np.linalg.solve(gram, g.T)


def solve_hermitian(m, rhs):
    """Solve m @ x = rhs for Hermitian positive-definite m, or for each matrix
    of a stack m (..., k, k) against rhs (..., k, r) (broadcast) in one
    batched factorization and solve; every matrix of the stack reaches the
    same LAPACK calls as it would alone.

    Residual contract: ||m x - rhs||_inf <= SOLVE_RESIDUAL_TOL * ||rhs||_inf
    for well-conditioned m. The Hermitian check is taken per matrix, and
    SingularMatrixError is raised when any matrix is not positive definite.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ShapeError(f"matrix must be square, got shape {m.shape}")
    rhs = np.asarray(rhs, dtype=complex)
    rows = rhs.shape[0] if rhs.ndim == 1 else rhs.shape[-2]
    if rows != m.shape[-1]:
        raise ShapeError(f"rhs leading dimension {rows} != matrix size {m.shape[-1]}")
    m_h = np.swapaxes(m.conj(), -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    gap = np.max(np.abs(m - m_h), axis=(-2, -1))
    bad = np.argwhere(gap > HERMITIAN_TOL * scale)
    if len(bad):
        at = tuple(bad[0])
        raise ShapeError(
            f"matrix is not Hermitian: max |M - M^H| = {gap[at]:.3e} "
            f"(allowed {HERMITIAN_TOL * scale[at]:.3e})"
        )
    herm = 0.5 * (m + m_h)
    # the solve can still meet an exactly singular matrix that passed Cholesky
    try:
        np.linalg.cholesky(herm)
        return np.linalg.solve(herm, rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is not positive definite") from None
