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

The link loops draw their M_CE-row steering matrices from one stream,
`steering_ahead`, which fills the matrices of the next link step on a helper
thread while the caller runs the current step's Gram, solve, precoder and
gain products. The caller allocates each matrix and writes the arguments
m*phase into its real part (numpy allocates iterator buffers for that
broadcast product, so it stays on the caller); the helper runs only the two
in-place ufuncs `sin` (into the imaginary part) and `cos` (into the real
part) on row blocks of it, so it makes no BLAS call, no RNG draw and no array
allocation. These are the same ufuncs on the same values as in
`steering_matrix`, and each entry is computed elementwise, so a matrix has
the same bits whichever thread fills which block. The helper runs only when
this process may use at least two CPUs (`os.sched_getaffinity`; one where
the platform does not say) and the matrix has at least LOOKAHEAD_MIN_ENTRIES
entries; otherwise the stream fills each matrix inline. No setting selects
the helper.
"""

import os
from collections import deque
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


def _steering_arguments(cfg, thetas, count):
    """A new (count, N) complex array whose real part holds the arguments
    m*phase_i of the steering entries, phase = (2pi/lambda)*d*sin(theta)."""
    phase = (2.0 * np.pi / cfg.wavelength) * cfg.spacing * np.sin(thetas)
    out = np.empty((count, thetas.size), dtype=complex)
    # Adding 0.0 turns a phase of -0.0 into the +0.0 that 1j*phase has.
    np.multiply(np.arange(count)[:, None], phase + 0.0, out=out.real)
    return out


def _steering_entries(real, imag):
    """Turn the arguments x held in ``real`` into the entries exp(j*x), in
    place: (cos x, sin x) of a real x are the bits of exp(1j*x), and the two
    ufuncs allocate no array."""
    np.sin(real, out=imag)
    np.cos(real, out=real)


def steering_matrix(cfg, thetas, count=None):
    """ULA steering vectors toward the azimuths ``thetas``, one column per
    angle, with ``count`` elements (defaults to M_CE): entry (m, i) is
    exp(j*(2pi/lambda)*d*m*sin(theta_i))."""
    if count is None:
        count = cfg.m_ce
    if count < 1:
        raise ShapeError("element count must be positive")
    out = _steering_arguments(cfg, np.atleast_1d(np.asarray(thetas, float)), count)
    _steering_entries(out.real, out.imag)
    return out


# Smallest steering matrix (M_CE * N entries) the stream hands to the helper
# thread; smaller ones are filled inline, because a fill that short costs
# less than handing it over. Measured on two cores, simulate plus
# compare-baseline with the helper against inline: 256 entries (ref-long's
# 64x4) 0.47 -> 0.58 s, 1024 (128x8) 17% slower, 2048 from 7% slower (1024x2)
# to 10% faster (256x8), 4096 11% to 26% faster in each of 64x64, 1024x4,
# 2048x2 and 512x8.
LOOKAHEAD_MIN_ENTRIES = 1 << 12
# Matrices queued on the helper beyond the one the caller waits for: one link
# step, its true-angle and its steered-angle matrix.
LOOKAHEAD = 2
# Entries per row block, the unit of work the caller takes over from the
# helper when it needs a matrix before the helper has started on it. Each
# block costs a hand-off between the threads: on two cores, 8192-entry
# blocks made a 1024x16 link 17% slower than 16384 or more, and 2^15 and 2^16
# measured the same on it and on fleet-n64 (1024x64, two blocks).
BLOCK_ENTRIES = 1 << 15


def _lanes():
    """CPUs this process may run on (1 where the platform does not say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _finish(out, blocks):
    """``out`` once every row block is filled: the caller fills each block
    the helper has not started and waits for the rest."""
    for (real, imag), future in blocks:
        if future.cancel():
            _steering_entries(real, imag)
        else:
            future.result()
    return out


def steering_ahead(cfg, angle_sets):
    """Yield ``steering_matrix(cfg, thetas)`` (M_CE rows) for each row
    ``thetas`` of the (S, N) ``angle_sets``, in order, bit for bit.

    With at least two CPUs and LOOKAHEAD_MIN_ENTRIES entries per matrix, one
    helper thread fills up to LOOKAHEAD matrices beyond the one last yielded
    (see the module docstring for what it runs); otherwise each matrix is
    filled inline when it is needed. Close the generator (for instance with
    ``contextlib.closing``) when leaving the loop early: that cancels the
    blocks not started and waits for the one running."""
    angle_sets = np.asarray(angle_sets, float)
    count = cfg.m_ce
    if count * angle_sets.shape[1] < LOOKAHEAD_MIN_ENTRIES or _lanes() < 2:
        for thetas in angle_sets:
            yield steering_matrix(cfg, thetas)
        return
    from concurrent.futures import ThreadPoolExecutor

    rows = max(1, BLOCK_ENTRIES // angle_sets.shape[1])
    bounds = [*range(0, count, rows), count]
    queued = deque()  # (matrix, [((real, imag) row block, future)]) in yield order
    helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="uiobeam-steering")
    try:
        for thetas in angle_sets:
            out = _steering_arguments(cfg, thetas, count)
            blocks = [(out.real[r0:r1], out.imag[r0:r1]) for r0, r1 in zip(bounds, bounds[1:])]
            queued.append((out, [(b, helper.submit(_steering_entries, *b)) for b in blocks]))
            if len(queued) > LOOKAHEAD:
                yield _finish(*queued.popleft())
        while queued:
            yield _finish(*queued.popleft())
    finally:
        helper.shutdown(wait=True, cancel_futures=True)


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


def safe_beamformer(cfg, thetas, min_sin_gap=MIN_SIN_GAP, ridge=FALLBACK_RIDGE, a=None):
    """Strict zero-forcing when well conditioned, diagonally-loaded fallback
    at angle collisions (the orbit geometry crosses equal sines twice per
    revolution per UAV pair, so long runs need this) and when the Gram matrix
    is numerically singular although every sine gap passes (many UAVs on a
    short array, or more UAVs than antennas).

    The steering matrix ``a`` (built here unless given, for instance by
    ``steering_ahead``) and its Gram matrix are built once; the fallback
    loads that same Gram matrix, so its result equals
    ``beamformer(cfg, thetas, ridge=ridge)`` bit for bit."""
    thetas = np.atleast_1d(np.asarray(thetas, float))
    if a is None:
        a = steering_matrix(cfg, thetas, cfg.m_ce)
    a_conj = a.conj()
    gram = a.T @ a_conj
    try:
        _check_sine_gaps(thetas, min_sin_gap)
        return _zero_forcing(cfg, thetas, a, a_conj, gram, 0.0)
    except (ConditioningError, SingularMatrixError):
        return _zero_forcing(cfg, thetas, a, a_conj, gram, ridge)


def azimuths(deltas):
    """Quadrant-aware azimuths arctan2(dy, dx) in (-pi, pi] of the
    displacements ``deltas`` (..., 2) from the central UAV."""
    return np.arctan2(deltas[..., 1], deltas[..., 0])


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
    def line_of_sight(cls, cfg, positions, center, sigma2, phase_mode="range", rng=None,
                      a=None):
        """Free-space coefficient h_i = (lambda / (4 pi r_i)) e^{j phi_i};
        phase_mode 'range' uses the propagation phase -2 pi r / lambda
        (deterministic), 'random' draws phi from a seeded generator. ``a``
        is the transmit steering at the true azimuths when the caller has
        built it (from ``azimuths`` of the same positions)."""
        positions = np.asarray(positions, float).reshape(-1, 2)
        deltas = positions - np.asarray(center, float)
        ranges = np.linalg.norm(deltas, axis=1)
        if np.any(ranges < MIN_RANGE):
            raise DegenerateGeometryError("UAV coincides with the central UAV")
        theta = azimuths(deltas)
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
            a=steering_matrix(cfg, theta, cfg.m_ce) if a is None else a,
            b=steering_matrix(cfg, theta, cfg.n_u),
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

