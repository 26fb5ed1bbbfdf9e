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

Each steering matrix is built once per angle set, with M_CE rows: the
channel carries the steering at its true angles, which every link
evaluation of that snapshot reads (its first N_U rows, as the precoder's,
are the receive steering; a link evaluation reads no other row of the
precoder's, so a precoder cut to those rows gives the same bits), and each
point of the pattern grid is steered once for all the precoders it is
evaluated on, one row block at a time (see `beam_pattern`). A precoder is
one loaded-Gram solve per stack: each step's Gram matrix A^T A* gains
load*M_CE on its diagonal (load 0.0 is strict zero-forcing) and the whole
stack reaches `solve_hermitian` in one call. F = A* X is written into the
buffer that held A* as conj(A conj(X)), so a precoder allocates one
M_CE x N stack, not two. That F has the bits of A* X, except that an
exactly zero imaginary part may take the other sign, which no output shows:
each written value is a magnitude, a power or a real part.

Step stacks. The link functions take a leading step axis: angles of shape
(..., N) give steering stacks (..., M_CE, N), a channel of positions
(..., N, 2) holds (..., N) coefficients, and the precoder, the power split
and the link reports are computed for every step of the stack at once. The
2-D call is the one-step case. Every step slice of a stack reaches the same
BLAS/LAPACK call (zgemm, zpotrf, zgesv) with the same strides as the 2-D
call, runs the same elementwise ufuncs and reduces along the same axis, so a
stacked call equals the per-step 2-D calls bit for bit.

The link loops draw their M_CE-row steering stacks from one stream,
`steering_ahead`, which queues one stack beyond the one the caller takes and
fills it on a helper thread while the caller runs the current chunk's Gram,
solve, precoder and gain products. The same stream carries the grid blocks
of the pattern snapshots (`pattern_blocks`), one M_CE-row steering matrix
per block, which `beam_pattern` takes while the helper fills the next. The
caller allocates each stack and writes the arguments m*phase into its real
part (numpy allocates iterator buffers for that broadcast product, so it
stays on the caller); the helper runs one task per part of a stack
(LOOKAHEAD_PARTS equal runs of its flat entries), the in-place ufuncs `sin`
(into the imaginary part) and `cos` (into the real part), so it makes no
BLAS call, no RNG draw and no array allocation. Taking a stack, the caller
fills the parts the helper has not started itself, with the same two
ufuncs. These are the ufuncs of `steering_matrix` on the same values,
elementwise, so a stack has its bits whichever thread fills which part.
The helper runs when one link step's matrix (M_CE x N) has at least
LOOKAHEAD_MIN_ENTRIES entries; otherwise the stream fills each stack
inline. That size alone decides, whatever else the stream carries (a
pattern grid block may be larger), and no setting selects the helper.
"""

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
# Entries (grid points * M_CE) of one pattern grid block: 64 rows at
# M_CE = 1024 and the whole 721-point grid at M_CE = 64. On fleet-n64 (three
# precoders of 64 beams, 721 points) the traced numpy peak of beam_pattern
# fell from 13.7 MiB with one grid matrix to 3.2 MiB, and to 2.2 MiB with
# each block dropped before the next is built.
PATTERN_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ArrayConfig:
    """Array geometry: M_CE antennas on the central UAV, N_U per served UAV,
    spacing in metres (default half wavelength)."""

    m_ce: int
    n_u: int
    wavelength: float
    spacing: float = None

    def __post_init__(self):
        if self.m_ce < 1:
            raise ShapeError(f"m_ce must be positive, got {self.m_ce}")
        if self.n_u < 1:
            raise ShapeError(f"n_u must be positive, got {self.n_u}")
        if self.n_u > self.m_ce:
            raise ShapeError(f"n_u {self.n_u} must not exceed m_ce {self.m_ce}")
        if not self.wavelength > 0:
            raise ShapeError(f"wavelength must be positive, got {self.wavelength}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", 0.5 * self.wavelength)
        if not self.spacing > 0:
            raise ShapeError(f"spacing must be positive, got {self.spacing}")

    @classmethod
    def at_carrier(cls, m_ce, n_u, carrier_hz, spacing=None):
        lam = SPEED_OF_LIGHT / carrier_hz
        return cls(m_ce=m_ce, n_u=n_u, wavelength=lam, spacing=spacing)


def _steering_arguments(cfg, thetas):
    """A new (..., M_CE, N) complex array for the (..., N) ``thetas`` whose
    real part holds the arguments m*phase_i of the steering entries,
    phase = (2pi/lambda)*d*sin(theta)."""
    phase = (2.0 * np.pi / cfg.wavelength) * cfg.spacing * np.sin(thetas)
    out = np.empty(thetas.shape[:-1] + (cfg.m_ce, thetas.shape[-1]), dtype=complex)
    # Adding 0.0 turns a phase of -0.0 into the +0.0 that 1j*phase has.
    np.multiply(np.arange(cfg.m_ce)[:, None], phase[..., None, :] + 0.0, out=out.real)
    return out


def _steering_entries(real, imag):
    """Turn the arguments x held in ``real`` into the entries exp(j*x), in
    place: (cos x, sin x) of a real x are the bits of exp(1j*x), and the two
    ufuncs allocate no array."""
    np.sin(real, out=imag)
    np.cos(real, out=real)


def steering_matrix(cfg, thetas):
    """ULA steering vectors of the M_CE-element array toward the azimuths
    ``thetas``, one column per angle: entry (m, i) is
    exp(j*(2pi/lambda)*d*m*sin(theta_i)). Angles of shape (..., N) give a
    (..., M_CE, N) stack; its first N_U rows are the N_U-element steering."""
    out = _steering_arguments(cfg, np.atleast_1d(np.asarray(thetas, float)))
    _steering_entries(out.real, out.imag)
    return out


# Smallest steering matrix (M_CE * N entries, one step) whose stacks the
# stream hands to the helper thread; smaller ones are filled inline, because
# a fill that short costs less than handing it over. Measured on two cores
# with one step per stack, simulate plus compare-baseline with the helper
# against inline: 256 entries (ref-long's 64x4) 0.47 -> 0.58 s, 1024 (128x8)
# 17% slower, 2048 from 7% slower (1024x2) to 10% faster (256x8), 4096 11% to
# 26% faster in each of 64x64, 1024x4, 2048x2 and 512x8. ref-long's 16-step
# chunk stacks (16x64x4) stay inline: the helper made them 4-7% slower.
LOOKAHEAD_MIN_ENTRIES = 1 << 12
# Stacks queued on the helper beyond the one the caller takes: one, the
# stream's next stack. Two held one more M_CE x N stack (16 MiB at 4096 x 256,
# 1 MiB of fleet-n64's peak RSS). With one queued stack filled by the helper
# alone the caller waited for it, so the caller fills the parts the helper has
# not started. fleet-n64 in one process on two cores (BLAS at one
# thread, medians of 20 alternating runs), compare-baseline / simulate: two
# queued stacks, helper alone 0.823 / 1.304 s; one queued stack, helper alone
# 0.831 / 1.388 s; one queued stack in 4 parts shared with the caller 0.823 /
# 1.312 s.
LOOKAHEAD = 1
# Equal parts of a stack's flat entries, one helper task each. In the runs
# above 8 parts took 0.843 / 1.355 s, and 2 parts were slower than 4 in a
# shorter run.
LOOKAHEAD_PARTS = 4


def _stack_parts(out):
    """(real, imag) views of LOOKAHEAD_PARTS equal runs of the flat entries
    of the contiguous stack ``out``."""
    flat = out.reshape(-1)
    edges = [flat.size * p // LOOKAHEAD_PARTS for p in range(LOOKAHEAD_PARTS + 1)]
    return [(flat.real[a:b], flat.imag[a:b]) for a, b in zip(edges[:-1], edges[1:])]


def _fill_part(parts, p):
    """Fill part ``p`` of a queued stack from its (real, imag) views in
    ``parts``."""
    _steering_entries(*parts[p])


def _submit_parts(helper, out):
    """``out``, the views of its parts and the helper's tasks filling them,
    in order."""
    parts = _stack_parts(out)
    return out, parts, [helper.submit(_fill_part, parts, p) for p in range(len(parts))]


def _take_stack(out, parts, tasks):
    """``out`` once every part is filled: the caller fills each part whose
    task it cancels before the helper started it, then waits for the tasks
    the helper started. The executor holds a task's arguments after its
    result is set, and a cancelled task's until its thread reaches it, so
    the tasks reach the views only through ``parts``, emptied here: a stack
    the caller drops is freed at once."""
    for task, (real, imag) in zip(tasks, parts):
        if task.cancel():
            _steering_entries(real, imag)
    for task in tasks:
        if not task.cancelled():
            task.result()
    parts.clear()
    return out


def steering_ahead(cfg, angle_sets, columns=None):
    """Yield ``steering_matrix(cfg, thetas)`` (M_CE rows) for each (..., N)
    array ``thetas`` in ``angle_sets``, in order, bit for bit: C steps'
    angles (C, N) give a (C, M_CE, N) stack.

    With at least LOOKAHEAD_MIN_ENTRIES entries per step matrix, M_CE times
    ``columns`` (the link step's N; by default the widest set's), one helper
    thread fills up to LOOKAHEAD stacks beyond the one the caller takes, in
    LOOKAHEAD_PARTS tasks per stack, one per equal part of its flat
    entries. To take a stack, the caller cancels the tasks the helper
    has not started, fills those parts itself and waits for the started
    ones. Below that size each stack is filled inline. The stream keeps no
    reference to a stack it has yielded. Close the generator (for instance
    with ``contextlib.closing``) when leaving early: that cancels the tasks
    not started and waits for the one running."""
    angle_sets = [np.atleast_1d(np.asarray(thetas, float)) for thetas in angle_sets]
    if columns is None:
        columns = max((thetas.shape[-1] for thetas in angle_sets), default=0)
    if cfg.m_ce * columns < LOOKAHEAD_MIN_ENTRIES:
        for thetas in angle_sets:
            yield steering_matrix(cfg, thetas)
        return
    from concurrent.futures import ThreadPoolExecutor

    queued = deque()  # (stack, views of its parts, their tasks) in yield order
    helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="uiobeam-steering")
    try:
        for i in range(len(angle_sets) + LOOKAHEAD):
            if i < len(angle_sets):
                queued.append(_submit_parts(helper, _steering_arguments(cfg, angle_sets[i])))
            if i >= LOOKAHEAD:
                # no local name: a stack bound here would outlive its yield
                yield _take_stack(*queued.popleft())
    finally:
        helper.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class BeamformerMatrix:
    """Zero-forcing precoder F with the steering matrix A and the angle
    estimates it was built from, and the diagonal loading (relative to
    M_CE) of its Gram matrix: 0.0 for a strict zero-forcing solve. For a
    stack of steps, f and a are (..., M_CE, N), theta (..., N) and ridge
    (...,), one loading per step. The link reads only the first N_U rows of
    a (the receive steering), so a holder may keep just those."""

    f: np.ndarray
    a: np.ndarray
    theta: np.ndarray
    ridge: np.ndarray


def _close_pairs(thetas, min_sin_gap):
    """|sin gap| matrices of the (..., N) angles, and the mask of their pairs
    i < j closer than ``min_sin_gap``, both (..., N, N)."""
    sines = np.sin(thetas)
    gaps = np.abs(sines[..., :, None] - sines[..., None, :])
    return gaps, np.triu(gaps < min_sin_gap, k=1)


def _check_sine_gaps(thetas, min_sin_gap):
    """Raise ConditioningError naming the first pair i < j of angles closer
    than ``min_sin_gap`` in sine."""
    gaps, close = _close_pairs(thetas, min_sin_gap)
    # np.argwhere scans row-major, so the first hit is the first i < j pair
    hits = np.argwhere(close)
    if len(hits):
        i, j = hits[0][-2:]
        raise ConditioningError(
            f"steering angles {i} and {j} collide: "
            f"|sin gap| = {gaps[tuple(hits[0])]:.3e} < {min_sin_gap:.0e}"
        )


def _precoder(cfg, thetas, a, loads):
    """Zero-forcing precoder F = A*(A^T A* + load*M_CE*I)^{-1} at the angles
    ``thetas`` from their steering stack ``a``, ``loads`` holding each step's
    loading (0.0: strict). The whole loaded Gram stack is solved in one call;
    SingularMatrixError when any of it is not positive definite. F = A* X is
    written into the buffer of A* as conj(A conj(X)), its only M_CE x N
    allocation (``a`` is read, never written): the bits of A* X, except
    that an exactly zero imaginary part may take the other sign."""
    n = thetas.shape[-1]
    a_conj = a.conj()
    gram = np.swapaxes(a, -1, -2) @ a_conj
    # in place: an out-of-place sum left fleet-n64's peak RSS 0.6 MiB higher
    gram +=(loads * cfg.m_ce)[..., None, None] * np.eye(n)
    x = solve_hermitian(gram, np.eye(n, dtype=complex))
    f = np.matmul(a, x.conj(), out=a_conj)
    np.conjugate(f, out=f)
    return BeamformerMatrix(f=f, a=a, theta=thetas, ridge=loads)


def beamformer(cfg, thetas, min_sin_gap=MIN_SIN_GAP, ridge=0.0):
    """Zero-forcing precoder F = A*(A^T A*)^{-1} at the angle estimates
    (..., N), one precoder per step of a stack.

    Raises ConditioningError (naming the colliding pair) when two angles are
    closer than ``min_sin_gap`` in sine. With ridge > 0 the gap check is
    skipped and the Gram matrix is diagonally loaded by ridge*M_CE, trading
    exact nulls for a bounded-norm precoder near collisions.
    """
    thetas = np.atleast_1d(np.asarray(thetas, float))
    if ridge == 0.0:
        _check_sine_gaps(thetas, min_sin_gap)
    return _precoder(cfg, thetas, steering_matrix(cfg, thetas),
                     np.full(thetas.shape[:-1], float(ridge)))


def safe_beamformer(cfg, thetas, a=None):
    """Zero-forcing at the angles (..., N), each step loaded by 0.0 (strict)
    or FALLBACK_RIDGE. The ridge takes the steps whose sines collide (gaps
    below MIN_SIN_GAP; the orbit geometry crosses equal sines twice per
    revolution per UAV pair, so long runs need this) and, found one by one
    only when the stack's solve fails, the strict steps whose Gram matrix is
    numerically singular although every sine gap passes (many UAVs on a
    short array, or more UAVs than antennas). The steering stack ``a``
    (built here unless given, for instance by ``steering_ahead``) is solved
    once with these loads, so each step equals ``beamformer(cfg, thetas_k,
    ridge=load)`` bit for bit. A loaded solve that still fails raises
    SingularMatrixError."""
    thetas = np.atleast_1d(np.asarray(thetas, float))
    if a is None:
        a = steering_matrix(cfg, thetas)
    collide = np.any(_close_pairs(thetas, MIN_SIN_GAP)[1], axis=(-2, -1))
    loads = np.where(collide, FALLBACK_RIDGE, 0.0)
    try:
        return _precoder(cfg, thetas, a, loads)
    except SingularMatrixError:
        # load the strict steps whose Gram matrix is singular, found one by one
        n = thetas.shape[-1]
        step_thetas, step_a = thetas.reshape(-1, n), a.reshape(-1, cfg.m_ce, n)
        step_loads = loads.reshape(-1)
        for k in np.flatnonzero(step_loads == 0.0):
            try:
                _precoder(cfg, step_thetas[k], step_a[k], step_loads[k])
            except SingularMatrixError:
                step_loads[k] = FALLBACK_RIDGE
        return _precoder(cfg, thetas, a, loads)


def azimuths(deltas):
    """Quadrant-aware azimuths arctan2(dy, dx) in (-pi, pi] of the
    displacements ``deltas`` (..., 2) from the central UAV."""
    return np.arctan2(deltas[..., 1], deltas[..., 0])


@dataclass(frozen=True)
class ChannelRealization:
    """Line-of-sight channel snapshot: complex coefficient and true azimuth
    per UAV, the per-antenna noise power, and the steering a (M_CE x N) at
    the true azimuths, whose first N_U rows are the receive steering. A
    stack of steps carries (..., N) coefficients and azimuths and
    (..., M_CE, N) steering."""

    h: np.ndarray
    sigma2: float
    theta: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ShapeError("noise power must be non-negative")

    @classmethod
    def line_of_sight(cls, cfg, positions, center, sigma2, a=None):
        """Free-space coefficient h_i = (lambda / (4 pi r_i)) e^{-j 2 pi r_i /
        lambda}, with the propagation phase of its range, at the positions
        (..., N, 2) (a flat vector holds stacked (x, y) pairs). ``a`` is the
        transmit steering at the true azimuths when the caller has built it
        (from ``azimuths`` of the same positions)."""
        positions = np.asarray(positions, float)
        if positions.ndim < 2:
            positions = positions.reshape(-1, 2)
        deltas = positions - np.asarray(center, float)
        ranges = np.linalg.norm(deltas, axis=-1)
        if np.any(ranges < MIN_RANGE):
            raise DegenerateGeometryError("UAV coincides with the central UAV")
        theta = azimuths(deltas)
        phases = -2.0 * np.pi * ranges / cfg.wavelength
        h = (cfg.wavelength / (4.0 * np.pi * ranges)) * np.exp(1j * phases)
        return cls(h=h, sigma2=float(sigma2), theta=theta,
                   a=steering_matrix(cfg, theta) if a is None else a)


def default_noise_power(cfg, total_power, n_streams, ref_range, target_snr_db):
    """Noise power giving the stated per-stream SNR at ref_range under ideal
    zero-forcing with well-separated angles."""
    h_ref = cfg.wavelength / (4.0 * np.pi * ref_range)
    return total_power * h_ref**2 / (n_streams * 10.0 ** (target_snr_db / 10.0))


def equal_power_allocation(bf, total_power):
    """Uniform per-stream power p with p * sum_j ||f_j||^2 = total_power, one
    (..., N) row per step of a precoder stack."""
    magnitudes = np.abs(bf.f)
    norms = np.sum(np.square(magnitudes, out=magnitudes), axis=(-2, -1))
    return np.full(bf.f.shape[:-2] + bf.f.shape[-1:], (total_power / norms)[..., None])


def _gain_matrix(cfg, chan, bf, power):
    """Post-combining link gains g_ij from stream j into UAV i's matched
    combiner b(theta^_i)/sqrt(N_U), (..., N, N) for a stack of steps; b is
    the first N_U rows of the channel's and the precoder's steering (the
    precoder's may hold only those rows)."""
    power = np.asarray(power, float)
    if bf.f.shape[-1] != chan.h.shape[-1] or power.shape != chan.h.shape:
        raise ShapeError("beamformer/power dimensions inconsistent with the channel")
    t = np.swapaxes(chan.a, -1, -2) @ bf.f
    b_hat, b = bf.a[..., :cfg.n_u, :], chan.a[..., :cfg.n_u, :]
    combine = np.sum(b_hat.conj() * b, axis=-2) / np.sqrt(cfg.n_u)
    scale = 1.0 / np.sqrt(cfg.m_ce * cfg.n_u)
    return (scale * chan.h[..., :, None] * combine[..., :, None] * t
            * np.sqrt(power)[..., None, :])


def _diagonal(g):
    """Own-stream gains g_ii of a (..., N, N) gain stack."""
    return np.diagonal(g, axis1=-2, axis2=-1)


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
    SE_i = log2(1 + SINR_i), (..., N) for a stack of steps."""
    g = _gain_matrix(cfg, chan, bf, power)
    sig = np.abs(_diagonal(g)) ** 2
    interference = np.sum(np.abs(g) ** 2, axis=-1) - sig
    sinr = sig / (interference + chan.sigma2)
    with np.errstate(divide="ignore"):
        sinr_db = 10.0 * np.log10(np.maximum(sinr, 1e-300))
    return LinkReport(sinr=sinr, sinr_db=sinr_db, se=np.log2(1.0 + sinr), g=g)


def draw_link_steps(n_uavs, sigma2, rng, n_draws, steps):
    """The random draws of ``steps`` consecutive link steps in the order of a
    per-step loop (each step's symbol uniforms, then the real and imaginary
    parts of its noise): unit-modulus symbols and post-combining noise samples
    of variance sigma2, each (steps, n_draws, n_uavs)."""
    uniforms = np.empty((steps, n_draws, n_uavs))
    parts = np.empty((steps, 2, n_draws, n_uavs))
    for k in range(steps):
        rng.random(out=uniforms[k])
        # the real parts, then the imaginary parts: one call, the same stream
        rng.standard_normal(out=parts[k])
    symbols = np.exp(2j * np.pi * uniforms)
    noise = np.sqrt(sigma2 / 2.0) * (parts[:, 0] + 1j * parts[:, 1])
    return symbols, noise


def empirical_link_se(cfg, chan, bf, power, symbols, noise):
    """Spectral efficiency with the interference-plus-noise power estimated
    from explicit draws (paired comparisons reuse one draw for all modes):
    the residual after removing the known in-stream term is averaged over
    draws. A stack of steps takes (..., n_draws, N) draws and gives (..., N)."""
    g = _gain_matrix(cfg, chan, bf, power)
    own = _diagonal(g)
    y = symbols @ np.swapaxes(g, -1, -2) + noise
    resid = y - symbols * own[..., None, :]
    var = np.mean(np.abs(resid) ** 2, axis=-2)
    sinr = np.abs(own) ** 2 / np.maximum(var, 1e-300)
    return np.log2(1.0 + sinr)


def pattern_blocks(cfg, beams, theta_grid):
    """The row blocks of the pattern grid ``theta_grid`` (views of it, in
    order) on which `beam_pattern` evaluates precoders of ``beams`` beams
    each: PATTERN_BLOCK_ENTRIES // M_CE rows, rounded down to a multiple of 8
    and at least 8, with a trailing one-row block joined to the one before
    it; the whole grid when any precoder has one beam."""
    points = theta_grid.size
    rows = points if 1 in beams else max(8, PATTERN_BLOCK_ENTRIES // cfg.m_ce // 8 * 8)
    edges = list(range(0, points, rows)) + [points]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [theta_grid[r0:r1] for r0, r1 in zip(edges[:-1], edges[1:])]


def beam_pattern(cfg, fs, theta_grid, blocks=None):
    """Per-beam transmit patterns |a^T(theta) f_i| over the grid, one
    (grid point, beam) array per precoder F in ``fs``, each beam normalized
    to its own maximum, in dB (amplitudes floored at PATTERN_FLOOR so exact
    zero-forcing nulls stay finite).

    The grid is steered in row blocks (`pattern_blocks`): ``blocks`` yields
    the (M_CE, rows) steering matrix of each, in order (for instance the
    `steering_ahead` stream of the link, which fills the next block while
    this one is multiplied), and this takes no more of it than the grid has
    blocks; without it each block is built here. Each block is multiplied
    into every precoder and dropped before the next is taken, so one block
    and the (grid point, beam) magnitudes of the whole grid are held. A
    block of the product has the bits of the same rows of the one-matrix
    product when it reaches the same zgemm: blocks of a multiple of 8 rows
    do, while a one-row block would go to zgemv (its bits differed by up to
    1.6e-13) and so does a one-beam precoder (whose zgemv bits move with
    cuts that are not a multiple of 4), hence the joined trailing row and
    the single block."""
    theta_grid = np.atleast_1d(np.asarray(theta_grid, float))
    if np.any(np.abs(theta_grid) >= np.pi / 2):
        raise ShapeError("pattern grid must lie within (-pi/2, pi/2)")
    fs = [np.asarray(f, complex) for f in fs]
    grids = pattern_blocks(cfg, [f.shape[-1] for f in fs], theta_grid)
    blocks = (steering_matrix(cfg, grid) for grid in grids) if blocks is None else iter(blocks)
    responses = [np.empty((theta_grid.size, f.shape[-1])) for f in fs]
    r0 = 0
    for grid in grids:
        # not zip: its reused result tuple would hold a block while the next is taken
        block = next(blocks)
        r1 = r0 + grid.size
        for f, response in zip(fs, responses):
            np.abs(block.T @ f, out=response[r0:r1])
        r0 = r1
        # hold no block while the next one is taken
        del block
    for response in responses:
        response /= np.max(response, axis=0)
        np.maximum(response, PATTERN_FLOOR, out=response)
        np.log10(response, out=response)
        response *= 20.0
    return responses


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

