"""Array/beamforming tests.

Independent oracles:
  * Monte-Carlo SINR estimate: the received samples are re-derived from the
    physical model (steering rows, matched combiner, complex Gaussian noise)
    with vectorized draws, then correlated against the own-stream symbols;
  * ``apply_channel``, the per-UAV received vectors of the same physical
    model, one UAV at a time;
  * the Dirichlet-kernel closed form for the single-beam array factor,
    including a bisected half-power point for the main-lobe width.
"""

import concurrent.futures
import dataclasses
import sys
import threading
import time
import weakref
from contextlib import closing

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uiobeam import beamforming
from uiobeam.beamforming import (
    FALLBACK_RIDGE,
    PATTERN_BLOCK_ENTRIES,
    PATTERN_FLOOR,
    ArrayConfig,
    ChannelRealization,
    beam_pattern,
    beamformer,
    default_noise_power,
    draw_link_steps,
    empirical_link_se,
    equal_power_allocation,
    half_power_width,
    link_report,
    pattern_blocks,
    safe_beamformer,
    steering_ahead,
    steering_matrix,
)
from uiobeam.config import config_from_mapping
from uiobeam.errors import (
    ConditioningError,
    DegenerateGeometryError,
    ShapeError,
    SingularMatrixError,
)
from uiobeam.linalg import solve_hermitian
from uiobeam.simulate import _predicted_angles, echo_blockage

CFG = ArrayConfig.at_carrier(64, 4, 30.0e9)


def array_of(count):
    """CFG's geometry on an array of ``count`` elements."""
    return ArrayConfig(m_ce=count, n_u=1, wavelength=CFG.wavelength, spacing=CFG.spacing)


def receive_steering(cfg, thetas):
    """N_U x N receive steering toward ``thetas``, from the ULA formula
    itself, so that the oracles read no steering from the code under test."""
    phase = (2.0 * np.pi / cfg.wavelength) * cfg.spacing * np.sin(np.atleast_1d(thetas))
    return np.exp(np.arange(cfg.n_u)[:, None] * (1j * phase))


def test_array_config_invariants():
    assert CFG.wavelength == pytest.approx(299792458.0 / 30.0e9)
    assert CFG.spacing == pytest.approx(CFG.wavelength / 2.0)
    with pytest.raises(ShapeError):
        ArrayConfig(m_ce=4, n_u=8, wavelength=0.01)
    for wavelength in (0.0, -1.0, float("nan")):
        with pytest.raises(ShapeError, match="^wavelength must be positive"):
            ArrayConfig(m_ce=4, n_u=4, wavelength=wavelength)


def test_steering_broadside_is_all_ones():
    np.testing.assert_array_equal(steering_matrix(array_of(16), 0.0)[:, 0], np.ones(16))


def test_steering_endfire_alternates():
    np.testing.assert_allclose(steering_matrix(array_of(2), np.pi / 2)[:, 0], [1.0, -1.0],
                               atol=1e-9)


def test_steering_30_degrees_quarter_turns():
    # sin(pi/6) = 1/2, half-wavelength spacing: phases m * pi/2
    v = steering_matrix(array_of(4), np.pi / 6)[:, 0]
    np.testing.assert_allclose(v, [1.0, 1j, -1.0, -1j], atol=1e-9)


def test_steering_matrix_matches_per_angle_formula():
    thetas = np.linspace(-1.5, 1.5, 13)
    cfg = array_of(32)
    a = steering_matrix(cfg, thetas)
    for i, theta in enumerate(thetas):
        phase = (2.0 * np.pi / cfg.wavelength) * cfg.spacing * np.sin(theta)
        np.testing.assert_array_equal(a[:, i], np.exp(1j * phase * np.arange(32)))
        np.testing.assert_array_equal(steering_matrix(cfg, theta)[:, 0], a[:, i])


@settings(max_examples=60, deadline=None)
@given(
    count=st.sampled_from([1, 4, 64, 1024]),
    spacing=st.floats(0.1, 2.0),
    thetas=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=16),
)
def test_steering_matrix_is_the_complex_exponential_bit_for_bit(count, spacing, thetas):
    cfg = ArrayConfig(m_ce=count, n_u=1, wavelength=0.01, spacing=spacing * 0.01)
    phase = (2.0 * np.pi / cfg.wavelength) * cfg.spacing * np.sin(np.asarray(thetas))
    expected = np.exp(np.arange(count)[:, None] * (1j * phase))
    got = steering_matrix(cfg, thetas)
    assert got.shape == expected.shape
    # the raw bits, so that signed zeros count too
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_steering_unit_modulus():
    rng = np.random.default_rng(4)
    for theta in rng.uniform(-np.pi / 2, np.pi / 2, 16):
        np.testing.assert_allclose(np.abs(steering_matrix(CFG, theta)), 1.0, atol=1e-12)


def test_single_stream_beamformer_matched_form():
    theta = 0.37
    bf = beamformer(CFG, [theta])
    expected = steering_matrix(CFG, theta).conj() / 64.0
    np.testing.assert_allclose(bf.f, expected, atol=1e-12)


def test_zero_forcing_identity_four_streams():
    thetas = np.array([-0.7, -0.2, 0.4, 1.1])
    bf = beamformer(CFG, thetas)
    resid = bf.a.T @ bf.f - np.eye(4)
    assert np.max(np.abs(resid)) <= 1e-9


def test_zero_forcing_identity_random_panels():
    rng = np.random.default_rng(12)
    for m_ce in (64, 128):
        cfg = ArrayConfig.at_carrier(m_ce, 4, 30.0e9)
        done = 0
        while done < 25:
            thetas = np.sort(rng.uniform(-1.2, 1.2, 4))
            if np.min(np.diff(np.sin(thetas))) < 5e-2:
                continue
            bf = beamformer(cfg, thetas)
            assert np.max(np.abs(bf.a.T @ bf.f - np.eye(4))) <= 1e-9
            done += 1


def test_beamformer_names_colliding_pair():
    # equal sines: theta and pi - theta
    with pytest.raises(ConditioningError, match="0 and 1"):
        beamformer(CFG, [0.5, np.pi - 0.5])


def test_collision_scan_matches_pairwise_loop():
    # the array scan reports what a loop over pairs i < j would report first
    rng = np.random.default_rng(8)
    for _ in range(200):
        thetas = rng.uniform(-1.2, 1.2, int(rng.integers(2, 12)))
        sines = np.sin(thetas)
        first = next(
            ((i, j) for i in range(thetas.size) for j in range(i + 1, thetas.size)
             if abs(sines[i] - sines[j]) < 0.05),
            None,
        )
        if first is None:
            beamformer(CFG, thetas, min_sin_gap=0.05)
        else:
            with pytest.raises(ConditioningError, match=f"angles {first[0]} and {first[1]} "):
                beamformer(CFG, thetas, min_sin_gap=0.05)


def test_beamformer_names_first_colliding_pair_in_row_major_order():
    # pairs (0, 3) and (1, 2) both collide; the scan meets (0, 3) first
    with pytest.raises(ConditioningError, match="angles 0 and 3 collide"):
        beamformer(CFG, [0.1, 0.5, np.pi - 0.5, 0.1 + 1e-5])


def test_safe_beamformer_survives_collisions():
    bf = safe_beamformer(CFG, [0.5, np.pi - 0.5, -0.3, 1.0])
    assert np.all(np.isfinite(bf.f))
    # loaded solve keeps the precoder norm bounded
    assert np.linalg.norm(bf.f) < 1e3


@pytest.mark.parametrize(
    "cfg, thetas, error",
    [
        (CFG, [0.5, np.pi - 0.5, -0.3, 1.0], ConditioningError),
        # every sine gap passes, but 8 beams do not fit on 4 antennas
        (ArrayConfig(m_ce=4, n_u=2, wavelength=0.01), np.arcsin(np.linspace(-0.9, 0.9, 8)),
         SingularMatrixError),
    ],
    ids=["colliding-angles", "singular-gram"],
)
def test_safe_beamformer_builds_one_steering_matrix_on_fallback(
    steering_shapes, cfg, thetas, error
):
    with pytest.raises(error):
        beamformer(cfg, thetas)
    reference = beamformer(cfg, thetas, ridge=FALLBACK_RIDGE)
    steering_shapes.clear()
    loaded = safe_beamformer(cfg, thetas)
    assert steering_shapes == [(cfg.m_ce, len(thetas))]
    assert loaded.ridge == FALLBACK_RIDGE
    for field in ("f", "a", "theta"):
        np.testing.assert_array_equal(
            getattr(loaded, field).view(np.uint64), getattr(reference, field).view(np.uint64)
        )


@settings(max_examples=80, deadline=None)
@given(
    m_ce=st.sampled_from([16, 64, 128]),
    start=st.floats(-0.95, -0.6),
    extra_gaps=st.lists(st.floats(0.0, 0.1), max_size=7),
)
def test_zero_forcing_identity_on_well_separated_angles(m_ce, start, extra_gaps):
    # north-star invariant A^T F = I, with every sine gap at least the
    # array's resolution 2 / M_CE
    sines = start + np.cumsum([0.0] + [2.0 / m_ce + g for g in extra_gaps])
    assume(sines[-1] <= 0.95)
    cfg = ArrayConfig.at_carrier(m_ce, 4, 30.0e9)
    thetas = np.arcsin(sines)
    strict = safe_beamformer(cfg, thetas)
    assert strict.ridge == 0.0
    assert np.max(np.abs(strict.a.T @ strict.f - np.eye(thetas.size))) <= 1e-9
    np.testing.assert_array_equal(strict.f, beamformer(cfg, thetas).f)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(expected).view(np.uint64))


def test_channel_carries_its_true_angle_steering():
    chan = ChannelRealization.line_of_sight(CFG, [100.0, 20.0, -30.0, 90.0], [0.0, 0.0], 0.0)
    assert not hasattr(chan, "b")
    assert_same_bits(chan.a, steering_matrix(CFG, chan.theta))
    # its first N_U rows are the receive steering of an N_U-element build
    assert_same_bits(chan.a[:CFG.n_u], steering_matrix(array_of(CFG.n_u), chan.theta))


class PendingTask(concurrent.futures.Future):
    """A task that never starts: waiting for it fails at once rather than
    hanging."""

    def result(self, timeout=None):
        return super().result(timeout=0)


class IdleExecutor:
    """An executor that never starts a task: each stays pending until it is
    cancelled, so the stream's caller fills every part of every stack."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args, **kwargs):
        return PendingTask()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@settings(max_examples=40, deadline=None)
@given(
    m_ce=st.sampled_from([8, 64, 1000, 1001, 1024, 2048]),
    n_u=st.integers(1, 4),
    n=st.integers(1, 64),
    steps=st.integers(1, 3),
    count=st.integers(1, 4),
    fill=st.sampled_from(["inline", "helper", "caller"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m_ce=1024, n_u=4, n=64, steps=3, count=4, fill="helper", seed=0)
@example(m_ce=1001, n_u=4, n=63, steps=3, count=4, fill="caller", seed=2)
@example(m_ce=1024, n_u=3, n=64, steps=2, count=3, fill="inline", seed=1)
def test_steering_stream_is_steering_matrix_bit_for_bit(m_ce, n_u, n, steps, count, fill,
                                                         seed):
    # ``count`` stacks of ``steps`` steps each, on both sides of
    # LOOKAHEAD_MIN_ENTRIES per step matrix and up to 3 x 2048 x 64 entries
    # per stack (an odd M_CE x N splits into unequal parts): filled inline (the gate above every stack), by the helper
    # thread (above the gate, the caller filling the parts it has not
    # started), or by the caller alone (an executor that starts no task). The
    # first N_U rows of each stack, which the link reads as the receive
    # steering, have the bits of an N_U-element build
    cfg = ArrayConfig(m_ce=m_ce, n_u=n_u, wavelength=0.01)
    receive = ArrayConfig(m_ce=n_u, n_u=n_u, wavelength=0.01)
    rng = np.random.default_rng(seed)
    sets = rng.uniform(-np.pi, np.pi, (count, steps, n))
    special = rng.random(sets.shape) < 0.1
    sets[special] = rng.choice([0.0, -0.0, np.pi / 2, -np.pi, np.pi], int(special.sum()))
    with pytest.MonkeyPatch.context() as patch:
        if fill == "inline":
            patch.setattr(beamforming, "LOOKAHEAD_MIN_ENTRIES", m_ce * n + 1)
        elif fill == "caller":
            patch.setattr(beamforming, "LOOKAHEAD_MIN_ENTRIES", 1)
            patch.setattr(concurrent.futures, "ThreadPoolExecutor", IdleExecutor)
        got = list(steering_ahead(cfg, sets))
    assert len(got) == len(sets)
    for stack, thetas in zip(got, sets):
        assert_same_bits(stack, steering_matrix(cfg, thetas))
        assert_same_bits(stack[..., :n_u, :], steering_matrix(receive, thetas))


def steering_helpers():
    return [t for t in threading.enumerate() if t.name.startswith("uiobeam-steering")]


def test_caller_fills_the_parts_its_helper_has_not_started(monkeypatch):
    # the helper is held in the first part of the first stack until the
    # caller has filled every other part of it: taking that stack, the caller
    # cancels the parts the helper has not started, fills them itself and
    # then waits for the held one. Nothing holds the caller, so a stream that
    # leaves the whole fill to the helper times the hold out
    cfg = ArrayConfig(m_ce=1024, n_u=4, wavelength=0.01)
    sets = np.random.default_rng(2).uniform(-np.pi, np.pi, (3, 1, 16))
    expected = [steering_matrix(cfg, thetas) for thetas in sets]
    fill, allocate = beamforming._steering_entries, beamforming._steering_arguments
    parts = beamforming.LOOKAHEAD_PARTS
    held, released = threading.Event(), threading.Event()
    allocated, caller_parts, helper_holds = [], [], []

    def entries(real, imag):
        if threading.current_thread().name.startswith("uiobeam-steering"):
            if not held.is_set():
                held.set()
                helper_holds.append(released.wait(timeout=10.0))
        else:
            caller_parts.append(real.size)
            if len(caller_parts) == parts - 1:
                released.set()
        fill(real, imag)

    def arguments(cfg, thetas):
        # the second stack is allocated before the first is taken: by then the
        # helper holds the first stack's first part
        if len(allocated) == 1:
            assert held.wait(timeout=10.0)
        allocated.append(thetas.shape)
        return allocate(cfg, thetas)

    monkeypatch.setattr(beamforming, "_steering_entries", entries)
    monkeypatch.setattr(beamforming, "_steering_arguments", arguments)
    with closing(steering_ahead(cfg, sets)) as stream:
        got = [next(stream)]
        helpers = steering_helpers()
        assert helpers
        assert helper_holds == [True]
        assert caller_parts == [cfg.m_ce * 16 // parts] * (parts - 1)
        got.extend(stream)
    assert len(got) == len(expected)
    for stack, want in zip(got, expected):
        assert_same_bits(stack, want)
    for thread in helpers:
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def test_steering_stream_keeps_its_bits_under_constant_thread_switches():
    # with a switch interval of 1 us the caller and the helper trade the GIL
    # within almost every part. Streams of 48 stacks, whose flat sizes split
    # into unequal parts (65 x N for N from 64 to 79), run for about a second:
    # every stack keeps the bits of steering_matrix, and each stream's helper
    # ends with it
    cfg = ArrayConfig(m_ce=65, n_u=4, wavelength=0.01)
    rng = np.random.default_rng(11)
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 1.0
    streams = 0
    sys.setswitchinterval(1e-6)
    try:
        while streams < 2 or time.monotonic() < deadline:
            sets = [rng.uniform(-np.pi, np.pi, (steps, n))
                    for steps in (1, 2, 3) for n in range(64, 80)]
            with closing(steering_ahead(cfg, sets)) as stream:
                stack = next(stream)
                helpers = steering_helpers()
                assert helpers
                for thetas in sets:
                    assert_same_bits(stack, steering_matrix(cfg, thetas))
                    stack = next(stream, None)
                assert stack is None
            for thread in helpers:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            streams += 1
    finally:
        sys.setswitchinterval(interval)


class HoldingExecutor(IdleExecutor):
    """An IdleExecutor that keeps the arguments of every task it was given,
    as a thread pool keeps a cancelled task's until its thread reaches it."""

    def __init__(self, *args, **kwargs):
        self.held = []

    def submit(self, fn, *args, **kwargs):
        self.held.append(args)
        return PendingTask()


def stacks_alive_once_dropped(monkeypatch, executor):
    """Whether each stack a three-stack stream yields is still alive once
    the caller drops it, with ``executor`` in place of the thread pool."""
    monkeypatch.setattr(beamforming, "LOOKAHEAD_MIN_ENTRIES", 1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", executor)
    cfg = ArrayConfig(m_ce=64, n_u=4, wavelength=0.01)
    alive = []
    with closing(steering_ahead(cfg, np.zeros((3, 1, 4)))) as stream:
        for _ in range(3):
            stack = weakref.ref(next(stream))
            alive.append(stack() is not None)
    return alive


def test_steering_stream_keeps_no_stack_it_has_yielded(monkeypatch):
    # with an executor that holds no task, only the stream itself could keep
    # a stack alive once the caller drops it, the last one included
    assert stacks_alive_once_dropped(monkeypatch, IdleExecutor) == [False] * 3


def test_tasks_the_executor_still_holds_keep_no_stack_alive(monkeypatch):
    # a thread pool keeps a finished task's arguments until its thread runs
    # again and a cancelled one's until its thread reaches it; a stack the
    # caller drops must be freed at once all the same (else simulate's
    # pattern grid blocks held one stack more, now and then)
    assert stacks_alive_once_dropped(monkeypatch, HoldingExecutor) == [False] * 3


def test_closing_the_stream_early_stops_its_helper():
    cfg = ArrayConfig(m_ce=1024, n_u=4, wavelength=0.01)
    stream = steering_ahead(cfg, np.zeros((50, 16)))
    next(stream)
    helpers = steering_helpers()
    assert helpers
    stream.close()
    for thread in helpers:
        thread.join(timeout=10.0)
        assert not thread.is_alive()


def test_beam_pattern_builds_the_grid_once_for_every_precoder(steering_shapes):
    grid = np.linspace(-1.3, 1.3, 101)
    fs = [beamformer(CFG, thetas).f for thetas in ([0.3], [-0.7, 0.2, 1.0], [0.1, 0.6])]
    one_by_one = [beam_pattern(CFG, [f], grid)[0] for f in fs]
    steering_shapes.clear()
    patterns = beam_pattern(CFG, fs, grid)
    assert steering_shapes == [(CFG.m_ce, grid.size)]
    assert [p.shape for p in patterns] == [(grid.size, f.shape[1]) for f in fs]
    for got, expected in zip(patterns, one_by_one):
        np.testing.assert_array_equal(got, expected)


def one_block_pattern(cfg, f, grid):
    """The pattern of precoder f with the whole grid steered as one matrix."""
    response = np.abs(steering_matrix(cfg, grid).T @ f)
    return 20.0 * np.log10(np.maximum(response / np.max(response, axis=0), PATTERN_FLOOR))


@settings(max_examples=60, deadline=None)
@given(
    m_ce=st.sampled_from([2, 3, 8, 64, 100, 1024]),
    beams=st.lists(st.sampled_from([1, 2, 3, 4, 7, 16, 64]), min_size=1, max_size=3),
    block_rows=st.sampled_from([8, 16, 64]),
    blocks=st.integers(0, 4),
    remainder=st.sampled_from([0, 1, 2, 7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pattern_blocks_keep_the_one_block_bits(m_ce, beams, block_rows, blocks, remainder,
                                                seed):
    # blocks of block_rows rows and a remainder of 0, 1, 2 or 7 rows (a one-row
    # remainder joins the block before it), one block with a one-beam precoder
    points = blocks * block_rows + remainder
    assume(points > 0)
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(m_ce=m_ce, n_u=1, wavelength=0.01)
    grid = np.sort(rng.uniform(-1.5, 1.5, points))
    fs = [rng.standard_normal((m_ce, n)) + 1j * rng.standard_normal((m_ce, n)) for n in beams]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(beamforming, "PATTERN_BLOCK_ENTRIES", block_rows * m_ce)
        patterns = beam_pattern(cfg, fs, grid)
    for got, f in zip(patterns, fs):
        assert_same_bits(got, one_block_pattern(cfg, f, grid))


@pytest.mark.parametrize("block_rows", [None, 8])
@pytest.mark.parametrize("points", [1, 9, 721])
@pytest.mark.parametrize("beams", [1, 4, 64])
@pytest.mark.parametrize("m_ce", [64, 1024])
def test_beam_pattern_fed_by_the_steering_stream_keeps_the_inline_bits(m_ce, beams, points,
                                                                       block_rows):
    # the grid blocks of one precoder, taken from a steering stream between
    # two link stacks, filled inline, by the helper thread (the caller
    # filling the parts it has not started) or by the caller alone. Blocks
    # of PATTERN_BLOCK_ENTRIES // M_CE rows (64 on 1024 antennas, the whole
    # grid on 64) or of 8 rows, where 9 and 721 points end in a joined
    # trailing row; a one-beam precoder takes the whole grid as one block.
    # beam_pattern takes as many stacks as the grid has blocks, so the
    # stream's next stack is the link stack after them
    cfg = ArrayConfig(m_ce=m_ce, n_u=4, wavelength=0.01)
    rng = np.random.default_rng(m_ce + beams + points)
    grid = np.deg2rad(np.linspace(-89.75, 89.75, points))
    f = rng.standard_normal((m_ce, beams)) + 1j * rng.standard_normal((m_ce, beams))
    link = rng.uniform(-np.pi, np.pi, (2, 1, beams))
    with pytest.MonkeyPatch.context() as patch:
        if block_rows:
            patch.setattr(beamforming, "PATTERN_BLOCK_ENTRIES", block_rows * m_ce)
        (inline,) = beam_pattern(cfg, [f], grid)
        blocks = pattern_blocks(cfg, [beams], grid)
        assert sum(block.size for block in blocks) == points
        if block_rows and beams > 1 and points > 1:
            assert blocks[-1].size == 9
        for fill in ("inline", "helper", "caller"):
            patch.setattr(beamforming, "LOOKAHEAD_MIN_ENTRIES",
                          m_ce * beams + 1 if fill == "inline" else 1)
            if fill == "caller":
                patch.setattr(concurrent.futures, "ThreadPoolExecutor", IdleExecutor)
            with closing(steering_ahead(cfg, [link[0], *blocks, link[1]], columns=beams)) as stream:
                assert_same_bits(next(stream), steering_matrix(cfg, link[0]))
                assert bool(steering_helpers()) == (fill == "helper")
                (streamed,) = beam_pattern(cfg, [f], grid, stream)
                assert_same_bits(next(stream), steering_matrix(cfg, link[1]))
                assert next(stream, None) is None
            assert_same_bits(streamed, inline)


FLEET = ArrayConfig(m_ce=1024, n_u=4, wavelength=0.01)
FLEET_GRID = np.deg2rad(np.linspace(-89.75, 89.75, 721))


def fleet_precoders():
    """Three 64-beam precoders on 1024 antennas, the pattern snapshots of the
    64-UAV benchmark fleet."""
    rng = np.random.default_rng(5)
    return [beamformer(FLEET, np.sort(rng.uniform(-1.4, 1.4, 64)), ridge=FALLBACK_RIDGE).f
            for _ in range(3)]


def test_beam_pattern_steers_each_fleet_grid_point_once_in_blocks(steering_shapes):
    fs = fleet_precoders()
    steering_shapes.clear()
    patterns = beam_pattern(FLEET, fs, FLEET_GRID)
    block_rows = PATTERN_BLOCK_ENTRIES // FLEET.m_ce
    assert len(steering_shapes) == -(-FLEET_GRID.size // block_rows) > 1
    assert all(shape[:-1] == (FLEET.m_ce,) for shape in steering_shapes)
    assert max(shape[-1] for shape in steering_shapes) == block_rows
    assert sum(shape[-1] for shape in steering_shapes) == FLEET_GRID.size
    for got, f in zip(patterns, fs):
        assert_same_bits(got, one_block_pattern(FLEET, f, FLEET_GRID))


def test_a_precoder_allocates_one_steering_sized_stack(traced_peak):
    # F is written into the buffer that held A*, so one (1, 1024, 16) step
    # traces one stack above its inputs (the F it returns), not two
    rng = np.random.default_rng(3)
    thetas = np.sort(rng.uniform(-1.4, 1.4, (1, 16)))
    a = steering_matrix(FLEET, thetas)
    assert traced_peak(lambda: safe_beamformer(FLEET, thetas, a=a)) <= 1.25 * a.nbytes


@settings(max_examples=60, deadline=None)
@given(
    m_ce=st.integers(1, 2048),
    n=st.integers(1, 8),
    steps=st.integers(1, 3),
    load=st.sampled_from([0.0, FALLBACK_RIDGE]),
    seed=st.integers(0, 2**32 - 1),
)
# one beam: row 0 of A* X (antenna 0, whose steering entries are all 1) has an
# imaginary part of exactly zero, which conj(A conj(X)) writes with the other
# sign
@example(m_ce=1, n=1, steps=1, load=0.0, seed=0)
@example(m_ce=2048, n=8, steps=3, load=FALLBACK_RIDGE, seed=1)
def test_precoder_written_in_place_is_the_conjugate_product(m_ce, n, steps, load, seed):
    cfg = ArrayConfig(m_ce=m_ce, n_u=1, wavelength=0.01)
    thetas = np.random.default_rng(seed).uniform(-1.4, 1.4, (steps, n))
    a = steering_matrix(cfg, thetas)
    loads = np.full(steps, load)
    gram = np.swapaxes(a, -1, -2) @ a.conj()
    gram += (loads * m_ce)[..., None, None] * np.eye(n)
    try:
        x = solve_hermitian(gram, np.eye(n, dtype=complex))
    except SingularMatrixError:
        assume(False)
    expected = a.conj() @ x
    f = beamforming._precoder(cfg, thetas, a, loads).f
    np.testing.assert_array_equal(f, expected)
    # where the bits differ, both parts are zeros of opposite sign
    got, want = f.view(float), expected.view(float)
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert np.all(got[differ] == 0.0) and np.all(want[differ] == 0.0)


def test_beam_pattern_memory_stays_within_a_block(traced_peak):
    # one 721 x 1024 grid matrix alone is 11.3 MiB (a traced peak of 13.7 MiB);
    # the three 721 x 64 patterns returned are 1.1 MiB
    fs = fleet_precoders()
    assert traced_peak(lambda: beam_pattern(FLEET, fs, FLEET_GRID)) < 4 * 2**20


def test_beam_pattern_holds_one_grid_block(traced_peak):
    # one 1024 x 64 precoder on the 721-point grid: each 64-row block of the
    # grid steering (1 MiB) is dropped before the next is built, so the peak
    # is one block, the 721 x 64 response and a few small temporaries
    (f,) = fleet_precoders()[:1]
    block = PATTERN_BLOCK_ENTRIES * np.dtype(complex).itemsize
    responses = FLEET_GRID.size * f.shape[-1] * np.dtype(float).itemsize
    peak = traced_peak(lambda: beam_pattern(FLEET, [f], FLEET_GRID))
    assert peak <= block + responses + 2**18


def true_angles(positions, center):
    """Azimuths that the line-of-sight channel assigns to the positions."""
    return ChannelRealization.line_of_sight(CFG, positions, center, 0.0).theta


def test_angular_position_axes():
    # quadrant-aware azimuths in (-pi, pi]
    np.testing.assert_allclose(
        true_angles([1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 1.0, -1.0], [0.0, 0.0]),
        [0.0, np.pi / 2, np.pi, -np.pi / 4], atol=1e-12,
    )


def test_angular_position_degenerate():
    with pytest.raises(DegenerateGeometryError):
        true_angles([1.0, 1.0], [1.0, 1.0])


def test_signed_angle_round_trip():
    center = np.array([3.0, -2.0])
    for theta in np.linspace(-np.pi + 1e-6, np.pi, 37):
        u = center + 150.0 * np.array([np.cos(theta), np.sin(theta)])
        assert true_angles(u, center)[0] == pytest.approx(theta, abs=1e-12)


def test_angles_from_positions_stacked():
    x = np.array([100.0, 0.0, 0.0, 50.0])
    np.testing.assert_allclose(true_angles(x, [0.0, 0.0]), [0.0, np.pi / 2], atol=1e-12)


def _channel(thetas, ranges, sigma2, h=None):
    thetas = np.asarray(thetas, float)
    ranges = np.asarray(ranges, float)
    if h is None:
        h = (CFG.wavelength / (4.0 * np.pi * ranges)) * np.exp(
            -2j * np.pi * ranges / CFG.wavelength
        )
    return ChannelRealization(
        h=np.asarray(h, complex), sigma2=sigma2, theta=thetas,
        a=steering_matrix(CFG, thetas),
    )


def apply_channel(cfg, chan, f, s_hat, rng):
    """Received vectors r_i (one row per UAV, N_U entries each):

        r_i = (1/sqrt(M_CE N_U)) h_i b(theta_i) (a^T(theta_i) F s^) + nu_i

    with nu_i circular complex Gaussian, variance sigma2 per entry, drawn
    from ``rng``; the transmit steering is the channel's own a, the receive
    steering b that of ``receive_steering``."""
    f = np.asarray(f, complex)
    s_hat = np.asarray(s_hat, complex)
    n = chan.h.size
    assert f.shape == (cfg.m_ce, n) and s_hat.shape == (n,)
    scale = 1.0 / np.sqrt(cfg.m_ce * cfg.n_u)
    tx = f @ s_hat
    out = np.empty((n, cfg.n_u), dtype=complex)
    b = receive_steering(cfg, chan.theta)
    for i in range(n):
        noise = np.sqrt(chan.sigma2 / 2.0) * (
            rng.standard_normal(cfg.n_u) + 1j * rng.standard_normal(cfg.n_u)
        )
        out[i] = scale * chan.h[i] * b[:, i] * (chan.a[:, i] @ tx) + noise
    return out


def test_apply_channel_noise_free_single_stream():
    chan = _channel([0.3], [100.0], 0.0, h=[1.0])
    bf = beamformer(CFG, [0.3])
    rng = np.random.default_rng(0)
    r = apply_channel(CFG, chan, bf.f, np.array([2.0 + 0j]), rng)
    expected = (1.0 / np.sqrt(64 * 4)) * steering_matrix(array_of(4), 0.3)[:, 0] * 2.0
    np.testing.assert_allclose(r[0], expected, atol=1e-12)


def test_apply_channel_zero_symbols_and_blocked():
    chan = _channel([0.3, -0.5], [100.0, 200.0], 0.0, h=[0.0, 0.0])
    bf = beamformer(CFG, [0.3, -0.5])
    rng = np.random.default_rng(0)
    r = apply_channel(CFG, chan, bf.f, np.zeros(2, dtype=complex), rng)
    np.testing.assert_array_equal(r, np.zeros((2, 4), dtype=complex))


def test_apply_channel_noise_variance():
    chan = _channel([0.3], [100.0], 1.0, h=[0.0])
    bf = beamformer(CFG, [0.3])
    rng = np.random.default_rng(8)
    samples = np.concatenate(
        [apply_channel(CFG, chan, bf.f, np.zeros(1, dtype=complex), rng).ravel()
         for _ in range(1000)]
    )
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, rel=0.15)


def reference_link(stale=0.0):
    thetas = np.array([0.1, 0.6, -0.4, 1.0])
    ranges = np.array([100.0, 150.0, 200.0, 250.0])
    sigma2 = default_noise_power(CFG, 1.0, 4, 250.0, 10.0)
    chan = _channel(thetas, ranges, sigma2)
    theta_hat = thetas.copy()
    theta_hat[0] += stale
    bf = beamformer(CFG, theta_hat)
    power = equal_power_allocation(bf, 1.0)
    return chan, bf, power


def test_equal_power_normalization():
    _, bf, power = reference_link()
    assert np.sum(power * np.sum(np.abs(bf.f) ** 2, axis=0)) == pytest.approx(1.0)


def test_link_report_perfect_angles_closed_form():
    chan, bf, power = reference_link()
    report = link_report(CFG, chan, bf, power)
    # no inter-stream interference at perfect estimates
    off_diag = report.g - np.diag(np.diag(report.g))
    assert np.max(np.abs(off_diag)) <= 1e-10 * np.max(np.abs(np.diag(report.g)))
    # SINR_i = p_i |h_i|^2 / (M_CE sigma2)
    expected = power * np.abs(chan.h) ** 2 / (64 * chan.sigma2)
    np.testing.assert_allclose(report.sinr, expected, rtol=1e-9)
    np.testing.assert_allclose(report.se, np.log2(1.0 + report.sinr), rtol=1e-12)


def mc_sinr(cfg, chan, bf, power, n_draws, seed):
    """Monte-Carlo oracle: estimate post-combining SINR from raw received
    samples, independent of the analytic gain-matrix algebra."""
    rng = np.random.default_rng(seed)
    n = chan.h.size
    scale = 1.0 / np.sqrt(cfg.m_ce * cfg.n_u)
    units = np.exp(2j * np.pi * rng.random((n_draws, n)))
    s_hat = units * np.sqrt(power)[None, :]
    out = np.empty(n)
    for i in range(n):
        a_row = steering_matrix(cfg, chan.theta[i])[:, 0]
        b_true = receive_steering(cfg, chan.theta[i])[:, 0]
        w = receive_steering(cfg, bf.theta[i])[:, 0] / np.sqrt(cfg.n_u)
        inner = s_hat @ (bf.f.T @ a_row)
        nu = np.sqrt(chan.sigma2 / 2.0) * (
            rng.standard_normal((n_draws, cfg.n_u))
            + 1j * rng.standard_normal((n_draws, cfg.n_u))
        )
        y = scale * chan.h[i] * (w.conj() @ b_true) * inner + nu @ w.conj()
        coeff = np.mean(y * units[:, i].conj())
        resid = y - coeff * units[:, i]
        out[i] = np.abs(coeff) ** 2 / np.mean(np.abs(resid) ** 2)
    return out


def test_link_report_against_monte_carlo():
    chan, bf, power = reference_link(stale=0.01)  # stale angle creates interference
    report = link_report(CFG, chan, bf, power)
    estimate = mc_sinr(CFG, chan, bf, power, 100_000, seed=42)
    np.testing.assert_allclose(estimate, report.sinr, rtol=0.01)


def test_se_vanishes_with_noise():
    chan, bf, power = reference_link()
    sigmas = np.geomspace(chan.sigma2, 1e8 * chan.sigma2, 12)
    ses = []
    for s2 in sigmas:
        noisy = dataclasses.replace(chan, sigma2=s2)
        ses.append(np.sum(link_report(CFG, noisy, bf, power).se))
    assert all(a >= b - 1e-12 for a, b in zip(ses, ses[1:]))
    assert ses[-1] < 1e-4


def test_stale_angle_degrades_only_that_stream():
    chan, bf0, power0 = reference_link()
    base = link_report(CFG, chan, bf0, power0)
    _, bf1, power1 = reference_link(stale=0.005)
    stale = link_report(CFG, chan, bf1, power1)
    assert stale.se[0] < base.se[0]
    np.testing.assert_allclose(stale.se[1:], base.se[1:], rtol=0.05)


def test_se_monotone_in_steering_error():
    theta = 0.3
    ranges = np.array([150.0])
    sigma2 = default_noise_power(CFG, 1.0, 1, 250.0, 10.0)
    chan = _channel([theta], ranges, sigma2)
    ses = []
    for delta in np.linspace(0.0, 0.004, 9):
        bf = beamformer(CFG, [theta + delta])
        power = equal_power_allocation(bf, 1.0)
        ses.append(link_report(CFG, chan, bf, power).se[0])
    assert all(a >= b - 1e-12 for a, b in zip(ses, ses[1:]))


def test_empirical_se_reproducible_and_near_analytic():
    chan, bf, power = reference_link(stale=0.01)
    rng = np.random.default_rng(7)
    (symbols,), (noise,) = draw_link_steps(4, chan.sigma2, rng, 20_000, 1)
    se_a = empirical_link_se(CFG, chan, bf, power, symbols, noise)
    se_b = empirical_link_se(CFG, chan, bf, power, symbols, noise)
    np.testing.assert_array_equal(se_a, se_b)
    analytic = link_report(CFG, chan, bf, power).se
    np.testing.assert_allclose(se_a, analytic, rtol=0.05)


def dirichlet(cfg, delta_sin, m):
    x = np.pi * cfg.spacing / cfg.wavelength * delta_sin
    out = np.empty_like(np.atleast_1d(x))
    x = np.atleast_1d(x)
    small = np.abs(np.sin(x)) < 1e-300
    out[small] = 1.0
    out[~small] = np.abs(np.sin(m * x[~small]) / (m * np.sin(x[~small])))
    return out


def test_pattern_nulls_and_peak_location():
    thetas = np.array([-0.7, -0.2, 0.4, 1.1])
    bf = beamformer(CFG, thetas)
    # exact zero-forcing nulls at the other beams' steering angles
    rows = steering_matrix(CFG, thetas).T
    cross = np.abs(rows @ bf.f)
    np.testing.assert_allclose(np.diag(cross), 1.0, atol=1e-9)
    assert np.max(np.abs(cross - np.diag(np.diag(cross)))) <= 1e-8
    grid = np.linspace(-1.3, 1.3, 2001)
    (gains_db,) = beam_pattern(CFG, [bf.f], grid)
    for i, theta in enumerate(thetas):
        peak = grid[np.argmax(gains_db[:, i])]
        assert abs(peak - theta) <= grid[1] - grid[0]


def test_single_beam_pattern_matches_dirichlet():
    theta_hat = 0.2
    bf = beamformer(CFG, [theta_hat])
    grid = np.linspace(-0.8, 0.8, 1601)
    gains_db = beam_pattern(CFG, [bf.f], grid)[0][:, 0]
    closed = dirichlet(CFG, np.sin(grid) - np.sin(theta_hat), 64)
    closed_db = 20.0 * np.log10(np.maximum(closed / np.max(closed), 1e-16))
    keep = closed > 1e-6
    np.testing.assert_allclose(gains_db[keep], closed_db[keep], atol=1e-8)


def bisect_half_power_delta_sin(cfg, m):
    """Independent bisection of |Dirichlet| = 1/sqrt(2) in delta-sin."""
    lo, hi = 0.0, 1.0 / m
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dirichlet(cfg, np.array([mid]), m)[0] > 1.0 / np.sqrt(2.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_half_power_width_matches_bisected_dirichlet():
    theta_hat = 0.0
    for m in (64, 128):
        cfg = ArrayConfig.at_carrier(m, 4, 30.0e9)
        bf = beamformer(cfg, [theta_hat])
        grid = np.linspace(-0.1, 0.1, 20001)
        width = half_power_width(grid, beam_pattern(cfg, [bf.f], grid)[0][:, 0])
        x_star = bisect_half_power_delta_sin(cfg, m)
        expected = 2.0 * np.arcsin(x_star)
        assert width == pytest.approx(expected, rel=1e-3)


def test_main_lobe_halves_when_antennas_double():
    theta_hat = 0.25
    widths = {}
    for m in (64, 128):
        cfg = ArrayConfig.at_carrier(m, 4, 30.0e9)
        bf = beamformer(cfg, [theta_hat])
        grid = theta_hat + np.linspace(-0.1, 0.1, 20001)
        widths[m] = half_power_width(grid, beam_pattern(cfg, [bf.f], grid)[0][:, 0])
    assert 0.45 * widths[64] <= widths[128] <= 0.55 * widths[64]


def test_pattern_grid_domain_check():
    bf = beamformer(CFG, [0.3])
    with pytest.raises(ShapeError):
        beam_pattern(CFG, [bf.f], np.linspace(-2.0, 2.0, 11))


@pytest.mark.parametrize(
    "windows, dt, horizon, blocked, last_clear",
    [
        ([], 0.15, 5, [], [0, 1, 2, 3, 4]),
        # blocked at t in [0.3, 0.7): k = 3..6 hold the k=2 angles
        ([(0.3, 0.7)], 0.1, 10, [3, 4, 5, 6], [0, 1, 2, 2, 2, 2, 2, 7, 8, 9]),
        # blocked from the start: every step holds the initial angles
        ([(0.0, 100.0)], 0.1, 5, [0, 1, 2, 3, 4], [0, 0, 0, 0, 0]),
        # t = 2 * 0.1 is not inside [0, 0.2); t = 7 * 0.1 is not inside [0.5, 0.7)
        ([(0.0, 0.2), (0.5, 0.7)], 0.1, 9, [0, 1, 5, 6], [0, 0, 2, 3, 4, 4, 4, 7, 8]),
    ],
    ids=["no-windows", "inside-window", "full-horizon-window", "two-windows"],
)
def test_echo_blockage_holds_last_clear_step(windows, dt, horizon, blocked, last_clear):
    in_window, held = echo_blockage(windows, dt, horizon)
    np.testing.assert_array_equal(np.flatnonzero(in_window), blocked)
    np.testing.assert_array_equal(held, last_clear)


def test_predicted_angles_match_per_step_rows():
    # one arctan2 over all (step, UAV) pairs gives the per-step values bit for
    # bit; a prediction on the central UAV steers broadside
    cfg = config_from_mapping({"scenario": {"center": [3.0, -2.0]}})
    xhat = np.random.default_rng(3).normal(0.0, 200.0, (50, 8))
    xhat[7, 2:4] = cfg.scenario.center
    angles = _predicted_angles(cfg, xhat)
    assert angles.shape == (50, 4)
    for k, row in enumerate(xhat):
        deltas = row.reshape(-1, 2) - cfg.scenario.center
        expected = np.arctan2(deltas[:, 1], deltas[:, 0])
        expected[np.linalg.norm(deltas, axis=1) < 1e-12] = 0.0
        np.testing.assert_array_equal(angles[k], expected)
    assert angles[7, 1] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    m_ce=st.sampled_from([4, 16, 64]),
    n=st.integers(1, 6),
    steps=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    colliding=st.lists(st.booleans(), min_size=5, max_size=5),
    singular=st.integers(-1, 4),
)
# more UAVs than antennas: Cholesky passes some of these rank-deficient Gram
# matrices, and the solve then finds them exactly singular
@example(m_ce=4, n=5, steps=5, seed=218, colliding=[False] * 5, singular=0)
@example(m_ce=4, n=5, steps=5, seed=218, colliding=[True, False, True, False, False],
         singular=0)
def test_stacked_link_equals_per_step_calls_bit_for_bit(
    m_ce, n, steps, seed, colliding, singular
):
    # a (steps, ...) stack of the link functions equals their 2-D calls one
    # step at a time: random angles, steps whose sines collide (ridge) and
    # one step whose precoder steering has a zero column, an exactly
    # singular Gram matrix that passes every sine gap
    cfg = ArrayConfig(m_ce=m_ce, n_u=4, wavelength=0.01)
    rng = np.random.default_rng(seed)
    azimuth = rng.uniform(-np.pi, np.pi, (steps, n))
    reach = rng.uniform(50.0, 300.0, (steps, n, 1))
    positions = reach * np.stack([np.cos(azimuth), np.sin(azimuth)], axis=-1)
    angles = azimuth + rng.normal(0.0, 0.01, (steps, n))
    if n >= 2:
        for k in range(steps):
            if colliding[k]:
                angles[k, 1] = np.pi - angles[k, 0]
    a = steering_matrix(cfg, angles)
    singular = singular if n >= 2 and singular < steps else -1
    if singular >= 0:
        a[singular, :, rng.integers(n)] = 0.0
    sigma2 = default_noise_power(cfg, 1.0, n, 250.0, 10.0)
    chan = ChannelRealization.line_of_sight(cfg, positions, [0.0, 0.0], sigma2)
    beams = safe_beamformer(cfg, angles, a=a)
    power = equal_power_allocation(beams, 1.0)
    report = link_report(cfg, chan, beams, power)
    symbols, noise = beamforming.draw_link_steps(n, sigma2, rng, 8, steps)
    se = empirical_link_se(cfg, chan, beams, power, symbols, noise)
    assert beams.ridge.shape == (steps,)
    if singular >= 0:
        assert beams.ridge[singular] == FALLBACK_RIDGE
    for k in range(steps):
        chan_k = ChannelRealization.line_of_sight(cfg, positions[k], [0.0, 0.0], sigma2)
        beams_k = safe_beamformer(cfg, angles[k], a=a[k].copy())
        power_k = equal_power_allocation(beams_k, 1.0)
        report_k = link_report(cfg, chan_k, beams_k, power_k)
        assert beams.ridge[k] == beams_k.ridge
        for got, expected in (
            (chan.h[k], chan_k.h), (chan.a[k], chan_k.a),
            (beams.f[k], beams_k.f), (power[k], power_k), (report.g[k], report_k.g),
            (report.sinr_db[k], report_k.sinr_db), (report.se[k], report_k.se),
            (se[k], empirical_link_se(cfg, chan_k, beams_k, power_k, symbols[k], noise[k])),
        ):
            assert_same_bits(got, expected)


def test_link_step_draws_follow_the_per_step_order():
    # symbol uniforms and the two noise parts, one step after another
    n, sigma2, draws = 3, 0.5, 5
    stacked = beamforming.draw_link_steps(n, sigma2, np.random.default_rng(4), draws, 4)
    rng = np.random.default_rng(4)
    for k in range(4):
        symbols = np.exp(2j * np.pi * rng.random((draws, n)))
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n)))
        assert_same_bits(stacked[0][k], symbols)
        assert_same_bits(stacked[1][k], noise)
