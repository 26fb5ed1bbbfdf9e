"""Online execution of a designed observer: one-step-ahead position
prediction, unknown-input reconstruction through the generic pseudo-inverse,
performance output, and the verdict on the certified bounds.

Everything works on (step, coordinate) arrays, and the diagonal matrices
Q, L, H and B_T on (2N,) vectors of their diagonals, so every product with
them is elementwise. Only the prediction loops over
steps, on whole vectors; the input estimates, the performance output and the
bound verdict are computed for all steps at once after the loop. The input
estimate at step k needs the k+1 prediction, so W^_k has one-step latency.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import simulate_truth
from .errors import ShapeError
from .linalg import pinv_full_col_rank, row_norms

# Steps discarded before the steady-state bound monitors start recording;
# ~5x the time constant of the slowest reference gain.
DEFAULT_TRANSIENT_CUTOFF = 50


def predict(xhat, gains, y):
    """Prediction step X^_{k+1} = Q X^_k + L Y_k on stacked 2N-vectors, with
    Q and L applied as their diagonals."""
    xhat = np.asarray(xhat, float)
    y = np.asarray(y, float)
    if y.shape != xhat.shape:
        raise ShapeError(f"measurement shape {y.shape} != state shape {xhat.shape}")
    return gains.q * xhat + gains.l * y


def input_pinv(b_t):
    """Reconstruction operator for the unknown input: the Moore-Penrose
    pseudo-inverse of G = [B_T; 0] (stacked over the state and output
    residuals), through the generic normal-equation path. b_t is the (2N,)
    diagonal of B_T."""
    b_t = np.asarray(b_t, float)
    if b_t.ndim != 1:
        raise ShapeError(f"B_T must be given as its diagonal vector, got shape {b_t.shape}")
    g_top = np.diag(b_t)
    return pinv_full_col_rank(np.vstack([g_top, np.zeros_like(g_top)]))


def estimate_input(g_pinv, xhat_next, xhat, y):
    """Unknown-input estimate W^_k = pinv(G) [X^_{k+1} - X^_k; Y_k - X^_k]
    (m/s), for one step (2N-vectors) or all steps at once ((horizon, 2N)
    arrays). For G = [B_T; 0] this equals B_T^{-1} (X^_{k+1} - X^_k),
    reproduced here through the generic pseudo-inverse."""
    xhat_next = np.asarray(xhat_next, float)
    xhat = np.asarray(xhat, float)
    y = np.asarray(y, float)
    if not xhat_next.shape == xhat.shape == y.shape:
        raise ShapeError("prediction/measurement arrays must share one shape")
    return np.concatenate([xhat_next - xhat, y - xhat], axis=-1) @ g_pinv.T


def _max_norm(rows):
    return float(np.max(row_norms(rows), initial=0.0))


@dataclass(frozen=True)
class BoundMonitor:
    """Verdict on the certified steady-state bounds over one run.

    gamma_w = sup_k ||W_k|| comes from ground truth; the worst ||Z^_k|| and
    ||W^_k - W_k|| are taken from step transient_cutoff onward. The certified
    inequalities are ||Z^_k|| <= gamma * gamma_w and
    ||W^_k - W_k|| <= 3 * gamma * gamma_w.
    """

    gamma: float
    transient_cutoff: int
    gamma_w: float
    worst_state_err: float
    worst_input_err: float

    @classmethod
    def from_run(cls, gamma, z, w, w_hat, transient_cutoff=DEFAULT_TRANSIENT_CUTOFF):
        """Verdict from (horizon, 2N) arrays of the performance output, the
        true input and its estimate at steps 0..horizon-1."""
        steady = slice(max(int(transient_cutoff), 0), None)
        return cls(
            gamma=float(gamma),
            transient_cutoff=int(transient_cutoff),
            gamma_w=_max_norm(w),
            worst_state_err=_max_norm(z[steady]),
            worst_input_err=_max_norm(w_hat[steady] - w[steady]),
        )

    @property
    def state_bound(self):
        return self.gamma * self.gamma_w

    @property
    def input_bound(self):
        return 3.0 * self.gamma * self.gamma_w

    @property
    def state_ok(self):
        return self.worst_state_err <= self.state_bound

    @property
    def input_ok(self):
        return self.worst_input_err <= self.input_bound


def track(scenario, model, gains, horizon, gamma=np.nan, init="measurement",
          transient_cutoff=DEFAULT_TRANSIENT_CUTOFF):
    """Run truth + observer for ``horizon`` steps and collect everything the
    harness needs.

    gamma is the certified performance level feeding the bound monitor.
    init: 'measurement' starts the observer at Y_0, 'zero' at the origin.
    Returns a dict with X/XHAT (horizon+1, 2N), Y/W/WHAT (horizon, 2N),
    E/Z (horizon+1, 2N) and the BoundMonitor verdict.
    """
    xs, ws, ys = simulate_truth(scenario, model, horizon)
    xhat = np.empty_like(xs)
    if init == "measurement":
        xhat[0] = ys[0]
    elif init == "zero":
        xhat[0] = 0.0
    else:
        raise ShapeError(f"unknown observer init {init!r}")
    q, l = gains.q, gains.l  # the steps of predict, with Q derived once
    for k in range(horizon):
        xhat[k + 1] = q * xhat[k] + l * ys[k]
    if not np.all(np.isfinite(xhat)):
        raise ShapeError("observer state contains non-finite entries")
    what = estimate_input(input_pinv(scenario.b_t_diag), xhat[1:], xhat[:-1], ys)
    errs = xhat - xs
    zs = errs * gains.h
    return {
        "X": xs, "Y": ys, "W": ws, "XHAT": xhat, "WHAT": what, "E": errs, "Z": zs,
        "monitor": BoundMonitor.from_run(gamma, zs[:-1], ws, what, transient_cutoff),
    }
