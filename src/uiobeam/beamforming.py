"""Uniform-linear-array steering, zero-forcing precoding, the line-of-sight
channel (which holds the true azimuths and their steering) and link quality
evaluation.

Conventions: steering entry m is exp(j*(2pi/lambda)*d*m*sin(theta)). The
precoder F = A*(theta^) (A^T(theta^) A*(theta^))^-1 zero-forces against the
transposed steering rows, so the effective transmit-side channel row at the
true angle is a^T(theta) (a conjugation absorbed into the steering
definition); perfect angle estimates then give exactly zero inter-stream
interference. Spectral efficiency is log2(1 + SINR) per stream with matched
unit-norm combining b(theta^)/sqrt(N_U).

Each steering matrix is built once per angle set: the channel carries the
transmit and receive steering at its true angles, which every link
evaluation of that snapshot reads; a precoder builds its steering matrix
and Gram matrix once, also when it falls back to the ridge; and the pattern
grid's steering matrix is built once for all the precoders it is
evaluated on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DegenerateGeometryError, ShapeError, SingularMatrixError
from .linalg import solve_hermitian

SPEED_OF_LIGHT = 299_792_458.0
# Minimum pairwise |sin(theta_i) - sin(theta_j)| for a strict zero-forcing solve.
MIN_SIN_GAP = 1e-3
# Diagonal loading (relative to M_CE) used by the fallback when angles collide.
FALLBACK_RIDGE = 1e-4
# Ranges below this (m) leave the azimuth undefined.
MIN_RANGE = 1e-12
# Amplitude floor before conversion to dB so exact nulls stay finite in output.
PATTERN_FLOOR = 1e-16


@dataclass(frozen=True)
class ArrayConfig:
    """Array geometry: M_CE antennas on the central UAV, N_U per served UAV,
    spacing in metres (default half wavelength)."""

    m_ce: int
    n_u: int
    wavelength: float
    spacing: float = None

    def __post_init__(self):
        if self.m_ce < 1 or self.n_u < 1:
            raise ShapeError("antenna counts must be positive")
        if self.n_u > self.m_ce:
            raise ShapeError(f"N_U={self.n_u} must not exceed M_CE={self.m_ce}")
        if not self.wavelength > 0:
            raise ShapeError("wavelength must be positive")
        if self.spacing is None:
            object.__setattr__(self, "spacing", 0.5 * self.wavelength)
        if not self.spacing > 0:
            raise ShapeError("spacing must be positive")

    @classmethod
    def at_carrier(cls, m_ce, n_u, carrier_hz, spacing=None):
        lam = SPEED_OF_LIGHT / carrier_hz
        return cls(m_ce=m_ce, n_u=n_u, wavelength=lam, spacing=spacing)


def steering_matrix(cfg, thetas, count=None):
    """ULA steering vectors toward the azimuths ``thetas``, one column per
    angle, with ``count`` elements (defaults to M_CE): entry (m, i) is
    exp(j*(2pi/lambda)*d*m*sin(theta_i))."""
    if count is None:
        count = cfg.m_ce
    if count < 1:
        raise ShapeError("element count must be positive")
    thetas = np.atleast_1d(np.asarray(thetas, float))
    phase = (2.0 * np.pi / cfg.wavelength) * cfg.spacing * np.sin(thetas)
    # (cos, sin) of the real argument m*phase are the bits of
    # exp(m * 1j*phase); the argument is held in the real part, so no
    # temporary is allocated. Adding 0.0 turns a phase of -0.0 into the +0.0
    # that 1j*phase has.
    out = np.empty((count, thetas.size), dtype=complex)
    np.multiply(np.arange(count)[:, None], phase + 0.0, out=out.real)
    np.sin(out.real, out=out.imag)
    np.cos(out.real, out=out.real)
    return out


@dataclass(frozen=True)
class BeamformerMatrix:
    """Zero-forcing precoder F with the steering matrix A and the angle
    estimates it was built from, and the diagonal loading (relative to
    M_CE) of its Gram matrix: 0.0 for a strict zero-forcing solve."""

    f: np.ndarray
    a: np.ndarray
    theta: np.ndarray
    ridge: float


def _check_sine_gaps(thetas, min_sin_gap):
    """Raise ConditioningError naming the first pair i < j of angles closer
    than ``min_sin_gap`` in sine."""
    sines = np.sin(thetas)
    gaps = np.abs(sines[:, None] - sines[None, :])
    # np.nonzero scans row-major, so the first hit is the first i < j pair
    rows, cols = np.nonzero(np.triu(gaps < min_sin_gap, k=1))
    if rows.size:
        i, j = rows[0], cols[0]
        raise ConditioningError(
            f"steering angles {i} and {j} collide: "
            f"|sin gap| = {gaps[i, j]:.3e} < {min_sin_gap:.0e}"
        )


def _zero_forcing(cfg, thetas, a, a_conj, gram, ridge):
    """F = A*(A^T A* + ridge*M_CE*I)^{-1} from the steering matrix A, its
    conjugate and its unloaded Gram matrix A^T A*."""
    if ridge > 0.0:
        gram = gram + ridge * cfg.m_ce * np.eye(thetas.size)
    f = a_conj @ solve_hermitian(gram, np.eye(thetas.size, dtype=complex))
    return BeamformerMatrix(f=f, a=a, theta=thetas, ridge=ridge)


def beamformer(cfg, thetas, min_sin_gap=MIN_SIN_GAP, ridge=0.0):
    """Zero-forcing precoder F = A*(A^T A*)^{-1} at the angle estimates.

    Raises ConditioningError (naming the colliding pair) when two angles are
    closer than ``min_sin_gap`` in sine. With ridge > 0 the gap check is
    skipped and the Gram matrix is diagonally loaded by ridge*M_CE, trading
    exact nulls for a bounded-norm precoder near collisions.
    """
    thetas = np.atleast_1d(np.asarray(thetas, float))
    if ridge == 0.0:
        _check_sine_gaps(thetas, min_sin_gap)
    a = steering_matrix(cfg, thetas, cfg.m_ce)
    a_conj = a.conj()
    return _zero_forcing(cfg, thetas, a, a_conj, a.T @ a_conj, ridge)


def safe_beamformer(cfg, thetas, min_sin_gap=MIN_SIN_GAP, ridge=FALLBACK_RIDGE):
    """Strict zero-forcing when well conditioned, diagonally-loaded fallback
    at angle collisions (the orbit geometry crosses equal sines twice per
    revolution per UAV pair, so long runs need this) and when the Gram matrix
    is numerically singular although every sine gap passes (many UAVs on a
    short array, or more UAVs than antennas).

    The steering matrix and its Gram matrix are built once; the fallback
    loads that same Gram matrix, so its result equals
    ``beamformer(cfg, thetas, ridge=ridge)`` bit for bit."""
    thetas = np.atleast_1d(np.asarray(thetas, float))
    a = steering_matrix(cfg, thetas, cfg.m_ce)
    a_conj = a.conj()
    gram = a.T @ a_conj
    try:
        _check_sine_gaps(thetas, min_sin_gap)
        return _zero_forcing(cfg, thetas, a, a_conj, gram, 0.0)
    except (ConditioningError, SingularMatrixError):
        return _zero_forcing(cfg, thetas, a, a_conj, gram, ridge)


@dataclass(frozen=True)
class ChannelRealization:
    """Line-of-sight channel snapshot: complex coefficient, true azimuth and
    range per UAV, the per-antenna noise power, and the steering at the true
    azimuths: transmit rows a (M_CE x N) and receive columns b (N_U x N)."""

    h: np.ndarray
    sigma2: float
    theta: np.ndarray
    ranges: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ShapeError("noise power must be non-negative")

    @classmethod
    def line_of_sight(cls, cfg, positions, center, sigma2, phase_mode="range", rng=None):
        """Free-space coefficient h_i = (lambda / (4 pi r_i)) e^{j phi_i};
        phase_mode 'range' uses the propagation phase -2 pi r / lambda
        (deterministic), 'random' draws phi from a seeded generator."""
        positions = np.asarray(positions, float).reshape(-1, 2)
        deltas = positions - np.asarray(center, float)
        ranges = np.linalg.norm(deltas, axis=1)
        if np.any(ranges < MIN_RANGE):
            raise DegenerateGeometryError("UAV coincides with the central UAV")
        theta = np.arctan2(deltas[:, 1], deltas[:, 0])
        if phase_mode == "range":
            phases = -2.0 * np.pi * ranges / cfg.wavelength
        elif phase_mode == "random":
            if rng is None:
                raise ShapeError("phase_mode='random' needs a generator")
            phases = rng.uniform(0.0, 2.0 * np.pi, size=ranges.size)
        else:
            raise ShapeError(f"unknown phase_mode {phase_mode!r}")
        h = (cfg.wavelength / (4.0 * np.pi * ranges)) * np.exp(1j * phases)
        return cls(
            h=h, sigma2=float(sigma2), theta=theta, ranges=ranges,
            a=steering_matrix(cfg, theta, cfg.m_ce), b=steering_matrix(cfg, theta, cfg.n_u),
        )


def default_noise_power(cfg, total_power, n_streams, ref_range, target_snr_db):
    """Noise power giving the stated per-stream SNR at ref_range under ideal
    zero-forcing with well-separated angles."""
    h_ref = cfg.wavelength / (4.0 * np.pi * ref_range)
    return total_power * h_ref**2 / (n_streams * 10.0 ** (target_snr_db / 10.0))


def equal_power_allocation(bf, total_power):
    """Uniform per-stream power p with p * sum_j ||f_j||^2 = total_power."""
    norms = np.sum(np.abs(bf.f) ** 2)
    return np.full(bf.f.shape[1], total_power / norms)


def _gain_matrix(cfg, chan, bf, power):
    """Post-combining link gains g_ij from stream j into UAV i's matched
    combiner b(theta^_i)/sqrt(N_U)."""
    power = np.asarray(power, float)
    n = chan.h.size
    if bf.f.shape[1] != n or power.shape != (n,):
        raise ShapeError("beamformer/power dimensions inconsistent with the channel")
    t = chan.a.T @ bf.f
    b_hat = steering_matrix(cfg, bf.theta, cfg.n_u)
    combine = np.sum(b_hat.conj() * chan.b, axis=0) / np.sqrt(cfg.n_u)
    scale = 1.0 / np.sqrt(cfg.m_ce * cfg.n_u)
    return scale * chan.h[:, None] * combine[:, None] * t * np.sqrt(power)[None, :]


@dataclass(frozen=True)
class LinkReport:
    """Per-UAV link quality: SINR (linear and dB), spectral efficiency in
    bit/s/Hz, and the full post-combining gain matrix g_ij."""

    sinr: np.ndarray
    sinr_db: np.ndarray
    se: np.ndarray
    g: np.ndarray


def link_report(cfg, chan, bf, power):
    """Analytic SINR_i = |g_ii|^2 / (sum_{j != i} |g_ij|^2 + sigma2) and
    SE_i = log2(1 + SINR_i)."""
    g = _gain_matrix(cfg, chan, bf, power)
    sig = np.abs(np.diag(g)) ** 2
    interference = np.sum(np.abs(g) ** 2, axis=1) - sig
    sinr = sig / (interference + chan.sigma2)
    with np.errstate(divide="ignore"):
        sinr_db = 10.0 * np.log10(np.maximum(sinr, 1e-300))
    return LinkReport(sinr=sinr, sinr_db=sinr_db, se=np.log2(1.0 + sinr), g=g)


def draw_link_samples(n_uavs, sigma2, rng, n_draws):
    """Shared random draws for the empirical SINR estimate: unit-modulus
    symbols and post-combining noise samples of variance sigma2."""
    symbols = np.exp(2j * np.pi * rng.random((n_draws, n_uavs)))
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal((n_draws, n_uavs)) + 1j * rng.standard_normal((n_draws, n_uavs))
    )
    return symbols, noise


def empirical_link_se(cfg, chan, bf, power, symbols, noise):
    """Spectral efficiency with the interference-plus-noise power estimated
    from explicit draws (paired comparisons reuse one draw for all modes):
    the residual after removing the known in-stream term is averaged over
    draws."""
    g = _gain_matrix(cfg, chan, bf, power)
    y = symbols @ g.T + noise
    resid = y - symbols * np.diag(g)[None, :]
    var = np.mean(np.abs(resid) ** 2, axis=0)
    sinr = np.abs(np.diag(g)) ** 2 / np.maximum(var, 1e-300)
    return np.log2(1.0 + sinr)


def beam_pattern(cfg, fs, theta_grid):
    """Per-beam transmit patterns |a^T(theta) f_i| over the grid, one
    (grid point, beam) array per precoder F in ``fs``, each beam normalized
    to its own maximum, in dB (amplitudes floored at PATTERN_FLOOR so exact
    zero-forcing nulls stay finite). The grid's steering matrix is built
    once for all the precoders."""
    theta_grid = np.asarray(theta_grid, float)
    if np.any(np.abs(theta_grid) >= np.pi / 2):
        raise ShapeError("pattern grid must lie within (-pi/2, pi/2)")
    rows = steering_matrix(cfg, theta_grid, cfg.m_ce).T
    patterns = []
    for f in fs:
        response = np.abs(rows @ np.asarray(f, complex))
        peaks = np.max(response, axis=0)
        normalized = np.maximum(response / peaks[None, :], PATTERN_FLOOR)
        patterns.append(20.0 * np.log10(normalized))
    return patterns


def half_power_width(theta_grid, gain_db):
    """Main-lobe width (rad) between the -3 dB crossings around the peak of a
    single beam's pattern, linearly interpolated between grid points."""
    theta_grid = np.asarray(theta_grid, float)
    gain_db = np.asarray(gain_db, float)
    peak = int(np.argmax(gain_db))
    level = -3.0102999566398120  # 10*log10(2)

    def crossing(direction):
        i = peak
        while 0 <= i + direction < gain_db.size and gain_db[i + direction] > level:
            i += direction
        if not 0 <= i + direction < gain_db.size:
            raise ShapeError("pattern grid does not bracket the -3 dB points")
        g0, g1 = gain_db[i], gain_db[i + direction]
        frac = (level - g0) / (g1 - g0)
        return theta_grid[i] + frac * (theta_grid[i + direction] - theta_grid[i])

    return abs(crossing(+1) - crossing(-1))

