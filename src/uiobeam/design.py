"""Observer-gain synthesis via two semidefinite feasibility blocks.

For a certificate matrix P = P^T > 0, a gain factor Z and a performance
level mu = gamma^2, the tracking-error block

    M1 = [[(alpha-1) P,   0,        (P - Z)^T        ],
          [ 0,           -alpha I,  (Z D - P B_T)^T  ],
          [ P - Z,        Z D - P B_T,  -P           ]]   <= 0

together with the performance block

    M2 = [[P, H^T], [H, mu I]]  >= 0

certifies that the observer X^_{k+1} = Q X^_k + L Y_k with L = P^{-1} Z,
Q = I - L tracks the network with l-infinity gain gamma from the unknown
input to the performance output H (X^ - X). The (3,3) block is -P: with +P
the block cannot be negative semidefinite while P > 0, and the decrease
condition of the error dynamics E_{k+1} = Q E_k + (L D - B_T) W_k produces
-P under the Schur complement.

In the UAV problem B_T, D and H are all diagonal and are carried as (dim,)
vectors of their diagonals (b, d, h); so are the certificate P, Z and the
gain L, from which Q = I - L is derived. Both blocks are permutation-similar
to one independent 3x3 / 2x2 pair per state coordinate (b, d, h). The Schur
complement of M1 on its -P block gives a closed form (Boyd, El Ghaoui,
Feron, Balakrishnan, LMIs in System and Control Theory, SIAM 1994): a
coordinate is feasible iff mu >= mu_floor(alpha, b, d, h), and this floor
decides every feasibility question here. The numeric search (p grid, golden
section over z on the max-eigenvalue oracle) only picks the certificate at
the final mu (design_level gives that mu, certify_level the certificate);
one definiteness check of the (dim, 3, 3) tracking-block stack and one of
the (dim, 2, 2) performance-block stack certify it, per coordinate.

The search runs once per level: the p grids of all distinct coordinates form
one flat stack of grid points, and each golden-section iteration evaluates
both section points of the whole stack in one eigvalsh call. A stack of at
least 2 * SEARCH_LANE_MIN_POINTS points is cut in two halves: one helper
thread searches the second while the calling thread searches the first.
Smaller stacks stay on the calling thread; the size alone decides, and no
setting selects the helper. Every step is elementwise per grid point and
LAPACK takes each 3x3 block on its own, so a coordinate's certificate has
the same bits whatever rows share its stack and wherever the stack is cut.

The dense blocks (assemble_lmi_blocks, feasible) are the test oracle for
that certificate: they take dense P and Z, build B_T, D and H from the
vectors and are not assembled at run time. Both the certificate and its
oracle issue their verdicts at the one tolerance linalg.DEFINITENESS_TOL.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BracketError, InfeasibleError, ShapeError

# Bisection bracket for the performance level mu = gamma^2.
MU_BRACKET = (1e-6, 10.0)
# Width (s) to which critical_dt bisects its dt bracket.
DT_RESOLUTION = 1e-3
# Log-spaced grid over p per coordinate: [h^2/mu, P_GRID_SPAN * h^2/mu].
P_GRID_POINTS = 200
P_GRID_SPAN = 1e6
# Floor for the p grid when the performance row is inactive (h = 0).
P_FLOOR = 1e-9
# The inner search runs 10x tighter than the certification tolerance
# linalg.DEFINITENESS_TOL, so the final certificate always clears it.
INNER_TOL = 0.1 * linalg.DEFINITENESS_TOL

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 75
# Smallest number of grid points (3x3 tracking blocks per golden evaluation)
# in each half of a certificate search split onto the helper thread; a
# smaller stack is searched on the calling thread alone, because below it
# the hand-off costs more than the second CPU saves. Measured on two cores,
# two lanes against one, 30 alternating pairs per size (median time ratio,
# pairs won): 200 points (one row, as in ref-long and fleet-n64) 1.25,
# 11/30; 400 1.04, 13/30; 600 0.98, 15/30; 800 0.79, 26/30; 1600 0.71, 30/30.
SEARCH_LANE_MIN_POINTS = 400


@dataclass(frozen=True)
class LmiProblem:
    """Data of the two feasibility blocks: decay rate alpha in (0,1), the
    diagonals b_t, d, h of the sampling-time matrix B_T, the measurement
    scaling D and the performance output matrix H (one (dim,) vector each),
    and the bound mu_max on mu = gamma^2."""

    alpha: float
    b_t: np.ndarray
    d: np.ndarray
    h: np.ndarray
    mu_max: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ShapeError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.mu_max > 0:
            raise ShapeError(f"mu_max must be positive, got {self.mu_max}")
        for name in ("b_t", "d", "h"):
            v = np.asarray(getattr(self, name), float)
            object.__setattr__(self, name, v)
            if v.ndim != 1:
                raise ShapeError(f"{name} must be a vector of diagonal entries, "
                                 f"got shape {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ShapeError(f"{name} contains non-finite entries")
            if v.shape != self.b_t.shape:
                raise ShapeError(f"{name} shape {v.shape} != b_t shape {self.b_t.shape}")
        if not np.all(self.b_t > 0):
            raise ShapeError("entries of b_t must be positive")

    @classmethod
    def uniform(cls, n_uavs, dt, d_scale=0.5, h_scale=1.0, alpha=0.5, mu_max=1.0):
        """Problem with B_T = dt I, D = d_scale I, H = h_scale I of size 2N."""
        n2 = 2 * n_uavs
        return cls(alpha=alpha, b_t=np.full(n2, float(dt)), d=np.full(n2, float(d_scale)),
                   h=np.full(n2, float(h_scale)), mu_max=mu_max)

    @property
    def dim(self):
        return self.b_t.size


@dataclass(frozen=True)
class LmiSolution:
    """Certified solution: the diagonals p, z of P and Z, the achieved mu and
    the verdict of its certificate."""

    p: np.ndarray
    z: np.ndarray
    mu: float
    certified: bool

    @property
    def gamma(self):
        return float(np.sqrt(self.mu))


@dataclass(frozen=True)
class ObserverGains:
    """Diagonals of the observer gain L and of the performance output matrix
    H, one (2N,) vector each; the state matrix Q = I - L is derived from L."""

    l: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        for name in ("l", "h"):
            v = np.asarray(getattr(self, name), float)
            object.__setattr__(self, name, v)
            if v.shape != self.l.shape or v.ndim != 1:
                raise ShapeError(f"{name} must be a vector of diagonal entries like l, "
                                 f"got shape {v.shape}")

    @classmethod
    def from_l(cls, l, h=None):
        l = np.asarray(l, float)
        return cls(l=l, h=np.ones_like(l) if h is None else h)

    @property
    def q(self):
        return 1.0 - self.l


def assemble_lmi_blocks(prob, p, z, mu):
    """Dense blocks (M1, M2) at the candidate (P, Z, mu); P is checked and
    symmetrized within the kernel tolerance. Any dense (P, Z), not only
    diagonal ones, against B_T, D and H built from the problem's vectors:
    this is the oracle the per-coordinate certificate is tested against."""
    p = linalg.symmetrize_checked(p, "P")
    z = np.asarray(z, float)
    n = prob.dim
    if p.shape != (n, n) or z.shape != (n, n):
        raise ShapeError(f"P/Z shapes {p.shape}/{z.shape} != problem dimension {(n, n)}")
    zeros = np.zeros((n, n))
    eye = np.eye(n)
    pz = p - z
    zd_pb = z @ np.diag(prob.d) - p @ np.diag(prob.b_t)
    m1 = np.block([
        [(prob.alpha - 1.0) * p, zeros, pz.T],
        [zeros, -prob.alpha * eye, zd_pb.T],
        [pz, zd_pb, -p],
    ])
    h = np.diag(prob.h)
    m2 = np.block([[p, h.T], [h, mu * eye]])
    return m1, m2


def feasible(prob, p, z, mu):
    """True iff M1 is NSD and M2 is PSD at linalg.DEFINITENESS_TOL, checked on
    the dense blocks at dense P and Z. The test oracle of diagonal_feasible(),
    which design() uses."""
    m1, m2 = assemble_lmi_blocks(prob, p, z, mu)
    nsd = linalg.check_definiteness(m1, "NSD").verdict == "NSD"
    psd = linalg.check_definiteness(m2, "PSD").verdict == "PSD"
    return nsd and psd


def tracking_blocks(alpha, b, d, p, z):
    """Per-coordinate 3x3 reduction of M1: for diagonal B_T, D, P and Z the
    dense block is permutation-similar to one block per state coordinate
    (b, d) at certificate entries (p, z). Broadcasts over array arguments to
    a (..., 3, 3) stack."""
    return _tracking_blocks(alpha, b, d, p, z)


def _tracking_blocks(alpha, b, d, p, z):
    """tracking_blocks() for the certificate search's helper thread:
    bench/tracer.py times the public functions on one span stack, so only
    private ones may run off the main thread."""
    blocks = np.zeros(np.broadcast(b, d, p, z).shape + (3, 3))
    blocks[..., 0, 0] = (alpha - 1.0) * p
    blocks[..., 0, 2] = blocks[..., 2, 0] = p - z
    blocks[..., 1, 1] = -alpha
    blocks[..., 1, 2] = blocks[..., 2, 1] = z * d - p * b
    blocks[..., 2, 2] = -p
    return blocks


def performance_blocks(h, p, mu):
    """Per-coordinate 2x2 reduction [[p, h], [h, mu]] of M2, broadcast over
    array arguments to a (..., 2, 2) stack."""
    blocks = np.empty(np.broadcast(h, p, mu).shape + (2, 2))
    blocks[..., 0, 0] = p
    blocks[..., 0, 1] = blocks[..., 1, 0] = h
    blocks[..., 1, 1] = mu
    return blocks


def diagonal_feasible(prob, p_diag, z_diag, mu):
    """feasible() at P = diag(p_diag), Z = diag(z_diag), certified on the
    per-coordinate block stacks: one NSD check of the (dim, 3, 3) tracking
    stack and one PSD check of the (dim, 2, 2) performance stack."""
    m1 = linalg.check_definiteness(
        tracking_blocks(prob.alpha, prob.b_t, prob.d, p_diag, z_diag), "NSD")
    m2 = linalg.check_definiteness(performance_blocks(prob.h, p_diag, mu), "PSD")
    return m1.verdict == "NSD" and m2.verdict == "PSD"


def _golden_section(alpha, b, d, ps):
    """Golden-section search over z at every grid point (b, d, p) of a flat
    stack, within the window |z - p| <= p sqrt(1-alpha): returns the
    midpoints zs of the final brackets and lambda_max of the tracking block
    there. f_c and f_d share one eigvalsh call per iteration."""
    n = ps.size
    half = np.sqrt(1.0 - alpha)
    z_a = ps * (1.0 - half)
    z_b = ps * (1.0 + half)
    b2, d2, p2 = np.tile(b, 2), np.tile(d, 2), np.tile(ps, 2)
    for _ in range(_GOLDEN_ITERS):
        z_c = z_b - _INVPHI * (z_b - z_a)
        z_d = z_a + _INVPHI * (z_b - z_a)
        f = np.linalg.eigvalsh(_tracking_blocks(alpha, b2, d2, p2, np.concatenate([z_c, z_d])))
        take_left = f[:n, -1] < f[n:, -1]
        z_b = np.where(take_left, z_d, z_b)
        z_a = np.where(take_left, z_a, z_c)
    zs = 0.5 * (z_a + z_b)
    return zs, np.linalg.eigvalsh(_tracking_blocks(alpha, b, d, ps, zs))[:, -1]


def _certificate_search(alpha, rows, mu):
    """Search the (p, z) pair certifying each coordinate row (b, d, h) of
    ``rows`` at level mu, all rows in one stacked search.

    Per row, p runs over a log grid anchored at the M2 Schur bound p >=
    h^2/mu; for each p a golden-section search minimizes lambda_max of the
    3x3 block over z within the necessary window |z - p| <= p sqrt(1-alpha)
    (lambda_max is convex in z, so the section search is globally valid).
    Among a row's feasible grid points it prefers the smallest gain
    magnitude |z/p| (most damped, rounded so eigensolver noise cannot reorder
    equivalent gains), ties broken by smaller p (smaller certificates are
    numerically safer). Returns one (p, z) pair per row, or None for a row
    with no feasible grid point, the same bits as each row searched alone
    (see the module docstring for the stack and its halves).
    """
    rows = np.asarray(rows, float).reshape(-1, 3)
    b, d, h = np.repeat(rows, P_GRID_POINTS, axis=0).T
    p_lows = [max(h_row * h_row / mu, P_FLOOR) for h_row in rows[:, 2].tolist()]
    ps = np.concatenate([np.geomspace(p_lo, P_GRID_SPAN * p_lo, P_GRID_POINTS)
                         for p_lo in p_lows])
    if ps.size < 2 * SEARCH_LANE_MIN_POINTS:
        zs, top = _golden_section(alpha, b, d, ps)
    else:
        from concurrent.futures import ThreadPoolExecutor

        cut = ps.size // 2
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="uiobeam-search") as helper:
            second = helper.submit(_golden_section, alpha, b[cut:], d[cut:], ps[cut:])
            first = _golden_section(alpha, b[:cut], d[:cut], ps[:cut])
            zs, top = (np.concatenate(half) for half in zip(first, second.result()))
    ok = ((top <= INNER_TOL)
          & (np.linalg.eigvalsh(performance_blocks(h, ps, mu))[:, 0] >= -INNER_TOL))
    pairs = []
    for p_row, z_row, ok_row in zip(*(a.reshape(-1, P_GRID_POINTS) for a in (ps, zs, ok))):
        if not np.any(ok_row):
            pairs.append(None)
            continue
        gains = np.round(np.abs(z_row[ok_row] / p_row[ok_row]), 6)
        best = np.flatnonzero(ok_row)[np.lexsort((p_row[ok_row], gains))[0]]
        pairs.append((float(p_row[best]), float(z_row[best])))
    return pairs


def mu_floor(alpha, b, d, h):
    """Smallest mu certifying coordinate(s) (b, d, h). With gain ell = z/p the
    Schur complements of M1 and M2 leave h^2/mu <= p <= alpha (1 - alpha -
    (1 - ell)^2) / ((1 - alpha) (ell d - b)^2); the best ell gives this floor."""
    return h * h * np.maximum(0.0, (d - b) ** 2 - (1.0 - alpha) * d * d) / alpha


def mu_feasible(prob, mu):
    """Structured feasibility test at performance level mu."""
    return bool(np.all(mu_floor(prob.alpha, prob.b_t, prob.d, prob.h) <= mu))


def design_level(prob):
    """The level mu* of design(): the smallest bisected mu within
    prob.mu_max that the closed-form floor admits for every coordinate.

    Bisects mu over MU_BRACKET within (0, mu_max] against the floor; raises
    InfeasibleError when no admissible mu is feasible."""
    floors = mu_floor(prob.alpha, prob.b_t, prob.d, prob.h)
    worst = int(np.argmax(floors))
    lo, hi = MU_BRACKET
    hi = min(hi, prob.mu_max)
    if hi < lo:
        raise InfeasibleError(
            f"performance bound mu_max={prob.mu_max:g} lies below the solver "
            f"bracket floor {lo:g}; no admissible mu was searched",
            mu_attempted=prob.mu_max,
        )
    if not floors[worst] <= hi:
        raise InfeasibleError(
            f"no certificate found at mu={hi:g} (largest level attempted under "
            f"mu_max={prob.mu_max:g}): coordinate {worst} (UAV {worst // 2}) "
            f"needs mu >= {floors[worst]:.6g}",
            mu_attempted=hi,
        )
    # The floor answers every feasibility question, but mu stays the last feasible
    # midpoint of this log-bisection: the mu (and gamma) in design_records.json.
    mu_star = hi
    if floors[worst] <= lo:
        mu_star = lo
    else:
        log_lo, log_hi = np.log10(lo), np.log10(hi)
        while log_hi - log_lo > 1e-4:
            mid = 10.0 ** (0.5 * (log_lo + log_hi))
            if floors[worst] <= mid:
                log_hi = np.log10(mid)
                mu_star = mid
            else:
                log_lo = np.log10(mid)
    return mu_star


def certify_level(prob, mu):
    """The certified design at level ``mu`` (as design_level gives it): one
    stacked certificate search over the distinct coordinates (b, d, h),
    certified per coordinate with diagonal_feasible() (two stacked
    definiteness checks, no dense block). It does not read prob.mu_max.
    Gains: L = P^{-1} Z, Q = I - L, as diagonals l = z / p and q = 1 - l."""
    rows, inverse = np.unique(np.column_stack([prob.b_t, prob.d, prob.h]), axis=0,
                              return_inverse=True)
    row_pairs = _certificate_search(prob.alpha, rows, mu)
    pairs = [row_pairs[k] for k in inverse.ravel()]
    for coord, pair in enumerate(pairs):
        if pair is None:
            floor = mu_floor(prob.alpha, prob.b_t[coord], prob.d[coord], prob.h[coord])
            raise InfeasibleError(
                f"no certificate candidate found at mu={mu:g} for coordinate "
                f"{coord} (UAV {coord // 2}, closed-form floor {floor:.6g})",
                mu_attempted=mu,
            )
    p_diag, z_diag = np.array(pairs).T
    solution = LmiSolution(p_diag, z_diag, float(mu),
                           diagonal_feasible(prob, p_diag, z_diag, mu))
    gains = ObserverGains.from_l(z_diag / p_diag, h=prob.h)
    return solution, gains


def design(prob):
    """Smallest-mu certified design within prob.mu_max: the certificate of
    certify_level() at the level of design_level()."""
    return certify_level(prob, design_level(prob))


def gain_point_feasible(prob, ell, mu):
    """Check a prescribed scalar gain L = ell*I at level mu: with z = ell*p,
    every coordinate must admit p = h^2/mu (see mu_floor)."""
    b, d, h = prob.b_t, prob.d, prob.h
    a = prob.alpha
    return bool(np.all(mu * a * (1.0 - a - (1.0 - ell) ** 2)
                       >= h * h * (1.0 - a) * (ell * d - b) ** 2))


def dt_interval(prob, mu):
    """Uniform measurement intervals feasible at level mu, as (low, high):
    coordinate (d, h) needs |d - dt| <= sqrt(alpha mu / h^2 + (1 - alpha) d^2),
    so h = 0 admits every dt. low > high when no dt is feasible."""
    d, h = prob.d, prob.h
    with np.errstate(divide="ignore"):
        r = np.sqrt(prob.alpha * mu / (h * h) + (1.0 - prob.alpha) * d * d)
    return float(np.max(d - r)), float(np.min(d + r))


def critical_dt(prob, dt_bracket):
    """Largest uniform measurement interval feasible at level prob.mu_max,
    bisected against dt_interval to DT_RESOLUTION seconds. The bracket must
    be feasible at its low end and infeasible at its high end."""
    mu = prob.mu_max
    lo, hi = float(dt_bracket[0]), float(dt_bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise BracketError(f"dt bracket ends must be finite, got ({lo}, {hi})")
    if not 0 < lo < hi:
        raise BracketError(f"dt bracket must satisfy 0 < lo < hi, got ({lo}, {hi})")
    low, high = dt_interval(prob, mu)
    low = max(low, 0.0)  # a measurement interval is positive
    where = (f"feasible dt lies in [{low:.4g}, {high:.4g}] s" if low <= high
             else "no dt is feasible")
    if not low <= lo <= high:
        raise BracketError(f"dt bracket low end {lo:g} s is already infeasible at mu={mu:g}; "
                           f"{where}")
    if hi <= high:
        raise BracketError(f"dt bracket high end {hi:g} s is still feasible at mu={mu:g}; "
                           f"{where}")
    # bisected, not returned as `high`, so the reported frontier keeps its bits
    while hi - lo > DT_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if mid <= high:
            lo = mid
        else:
            hi = mid
    return lo
