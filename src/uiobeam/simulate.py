"""Experiment orchestration and data emission for the CLI subcommands.

Each subcommand is one function here (`write_design`, `run_simulate`,
`run_sweep_dt`, `run_compare`) that writes every output file of its run.

Every CSV body is byte-stable for a fixed config + seed: floats are written
with 17 significant digits, rows in a fixed order, no timestamps. Wall-clock
lives only in the manifest, together with the steps whose zero-forcing
precoder fell back to the ridge. Tables are built as whole columns over
(step, UAV) and written a block of rows at a time, each block in one
%-call on the file's row template repeated once per row; a float column
that repeats rows within a block (a grid angle or time per UAV) enters it
as the texts of its distinct bit patterns, each formatted once. Per-design
and per-mode runs are independent; the orchestration here runs them
sequentially.

The link builds each precoder once, and nothing builds one again.
`run_compare`'s link chunks also end where a step stops or starts being its
own echo source, so each chunk either builds its echo-fed precoders on the
channel's steering, after dropping the echo hold, or repeats the hold, the
last step built, as broadcast views (also across chunk edges). No N_U-row
steering is built: the link reads the receive steering from the first N_U
rows of the M_CE-row stacks, and each precoder keeps a copy of those rows
only, not the M_CE-row stack it was built on (`_receive_rows`), so neither
a chunk's prediction-fed precoders nor the echo hold keep a steering stack
alive. `link_timeseries` evaluates each pattern snapshot in the chunk that
builds its step's precoder and writes its file there, keeping nothing of
it, so the memory of a run does not grow with run.pattern_snapshots; the
pattern grid is steered once per snapshot step and distinct design level
mu* (`run_simulate` runs each level once). Both output stages hold a block
at a time: the pattern grid is steered in row blocks
(`beamforming.pattern_blocks`) and `write_csv` converts and writes
CSV_BLOCK_ROWS rows at a time.

Both links, `link_timeseries` (analytic SINR) and `run_compare` (empirical
SE), run on one engine, `_link_chunks`, each handing it a ``step`` (the
chunk's evaluation). The engine runs over chunks of
max(1, LINK_CHUNK_ENTRIES // (max(M_CE, noise_draws) * N)) steps on
(step, ...) stacks, each also ending before the steps its caller names; the
beamforming functions give every step of a stack the bits of its own 2-D
call, so the chunk size changes no output byte. The channel has no random
part, so only `run_compare` draws: its step draws the chunk's symbols and
noise in the order of a per-step loop. The M_CE-row steering stacks come
from one `beamforming.steering_ahead` stream, ordered [steered chunk, true
chunk, the pattern grid blocks of each snapshot step in the chunk]; the
snapshot's `beam_pattern` takes its grid blocks from the stream. The stream
queues the next stack or block, which its helper thread fills while the
current one is in use and the link finishes as it takes it; the size of
one link step's matrix (M_CE x N) alone decides whether the helper runs,
however large a grid block is.
"""

import dataclasses
import json
import shutil
import time
from contextlib import closing
from pathlib import Path

import numpy as np

from . import beamforming as bf
from . import observer as obs
from .config import config_hash, mu_label, require_compare_config, require_simulate_config
from .design import LmiProblem, certify_level, critical_dt, design_level
from .design import design as solve_design
from .errors import NumericalError, ShapeError
from .linalg import row_norms

PATTERN_SPAN_DEG = 89.75
# Entries (steps * max(M_CE, noise_draws) * N) of one link chunk: the link
# loops run max(1, LINK_CHUNK_ENTRIES // (max(M_CE, noise_draws) * N)) steps
# per iteration, 16 on the reference fleet (N=4, M_CE=64, 64 draws) and 1 for
# 64 UAVs on 1024 antennas. Larger chunks buy little time for memory: on two
# cores, simulate plus compare-baseline of bench/run.py's ref-long (seed 0) in
# one process peaked at 41.4 MiB with one step per iteration, 42.2 MiB at
# 2^12 entries, 45.4 MiB at 2^14 and 55.8 MiB at 2^16, while 2^14 and 2^16
# ran within the run-to-run spread of 2^12.
LINK_CHUNK_ENTRIES = 1 << 12
_FORMATS = {"b": "%d", "i": "%d", "f": "%.17g"}
# Rows formatted and written per block by write_csv: one block of each column
# and its text are held as Python objects. Formatting each block in one call,
# fleet-n64's peak RSS (bench/run.py --seed 0 --seconds 3, medians of six
# runs, two-core x86-64 VM) read 48.45 MiB at 1024 rows and 48.05 at 512,
# against 48.33 with 4096-row blocks formatted row by row; 512 to 2048 rows
# wrote equally fast.
CSV_BLOCK_ROWS = 512


def _repeated_texts(block):
    """The %.17g texts of the float64 column ``block``, each distinct bit
    pattern formatted once (so -0.0 and 0.0 stay apart), when at least half
    its rows repeat the row before (a grid angle or time per UAV); otherwise
    None. The check compares neighbouring rows only: deduplicating every
    float column made tables of distinct values (fleet-n64's se.csv and
    trajectories.csv) 24% and 34% slower to write."""
    bits = block.view(np.uint64)
    if 2 * np.count_nonzero(bits[1:] == bits[:-1]) < block.size:
        return None
    distinct, index = np.unique(bits, return_inverse=True)
    texts = np.array(["%.17g" % x for x in distinct.view(float).tolist()], dtype=object)
    return texts[index].tolist()


def write_csv(path, header, columns):
    """Write one row per index of the equal-length ``columns``; returns the
    row count.

    Integer and boolean columns are written with %d, float columns with
    %.17g (the digits of format(x, '.17g')) and any other column with %s. A
    nan or inf in a float column raises NumericalError naming the file, the
    column and the first bad row, and a header whose length differs from the
    column count raises ShapeError; either way nothing is written: every
    whole column is checked before the file is opened. The rows are then
    written CSV_BLOCK_ROWS at a time, each block in one %-call on the row
    template repeated once per row, converting one block of each column to
    Python values. A float64 column whose block repeats rows (`_repeated_texts`)
    enters that call as the texts of its distinct values, formatted once
    each with %.17g and put in by %s. Each value gets the text of its own
    %.17g or %d, so the block size changes no byte.
    """
    columns = [np.ravel(c) for c in columns]
    if len(header) != len(columns):
        raise ShapeError(f"{path}: {len(header)} header names for {len(columns)} columns")
    sizes = {c.size for c in columns}
    if len(sizes) != 1:
        raise ShapeError(f"CSV columns differ in length: {sorted(sizes)}")
    (size,) = sizes
    for name, c in zip(header, columns):
        if c.dtype.kind == "f" and not np.all(np.isfinite(c)):
            row = int(np.argmin(np.isfinite(c)))
            raise NumericalError(f"{path}: column {name} is {c[row]} at row {row} "
                                  f"(rows count from 0)")
    formats = [_FORMATS.get(c.dtype.kind, "%s") for c in columns]
    width = len(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r0 in range(0, size, CSV_BLOCK_ROWS):
            block = [c[r0:r0 + CSV_BLOCK_ROWS] for c in columns]
            rows = block[0].size
            values = [None] * (rows * width)
            row_formats = list(formats)
            for j, c in enumerate(block):
                texts = _repeated_texts(c) if c.dtype == np.float64 else None
                if texts is not None:
                    row_formats[j] = "%s"
                values[j::width] = c.tolist() if texts is None else texts
            fh.write(((",".join(row_formats) + "\n") * rows) % tuple(values))
    return size


def _first_non_finite(obj, where=""):
    """(key path, value) of the first nan or inf float in a JSON-ready
    object, or None."""
    if isinstance(obj, float):
        return None if np.isfinite(obj) else (where, obj)
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _first_non_finite(value, f"{where}[{key!r}]")
        if found:
            return found
    return None


def write_json(path, obj):
    """Indented, key-sorted JSON with a trailing newline. A nan or inf value
    (JSON has no such numbers) raises NumericalError naming the file and the
    value's key path, and nothing is written."""
    found = _first_non_finite(obj)
    if found:
        raise NumericalError(f"{path}: value {found[0]} is {found[1]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def design_problem(cfg, mu_max):
    return LmiProblem(
        alpha=cfg.alpha,
        b_t=cfg.scenario.b_t_diag,
        d=cfg.model.d,
        h=cfg.h_diag,
        mu_max=mu_max,
    )


def run_design(cfg):
    """One certified design per configured mu bound.

    Returns (records, designs) where records are JSON-ready dicts and designs
    are the matching (LmiSolution, ObserverGains) pairs. The certificate
    depends on a bound only through its level mu*, so it is searched once
    per distinct mu* of this call, and bounds at one level share it.
    """
    records = []
    designs = []
    certified = {}  # mu* -> (LmiSolution, ObserverGains)
    for mu_max in cfg.mu_list:
        prob = design_problem(cfg, mu_max)
        mu_star = design_level(prob)
        if mu_star not in certified:
            certified[mu_star] = certify_level(prob, mu_star)
        solution, gains = certified[mu_star]
        designs.append((solution, gains))
        records.append({
            "alpha": cfg.alpha,
            "mu_max": mu_max,
            "mu": solution.mu,
            "gamma": solution.gamma,
            "L_diag": gains.l.tolist(),
            "Q_diag": gains.q.tolist(),
            "certified": bool(solution.certified),
        })
    return records, designs


def write_design(cfg, out_dir):
    """design_records.json and the manifest of run_design's records, written
    once every design is found; returns the records."""
    t0 = time.perf_counter()
    records, _ = run_design(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "design_records.json", records)
    write_manifest(out_dir, cfg, {"design_records.json": len(records)},
                   time.perf_counter() - t0)
    return records


def _predicted_angles(cfg, xhat):
    """(step, UAV) azimuths of the predicted positions, one stacked position
    vector per row of xhat. A prediction still sitting on the central UAV
    (zero-init transient) has no defined azimuth; it steers broadside until
    it moves away."""
    deltas = xhat.reshape(len(xhat), -1, 2) - cfg.scenario.center
    return np.where(row_norms(deltas) < bf.MIN_RANGE, 0.0, bf.azimuths(deltas))


def _true_angles(cfg, run):
    """(step, UAV) true azimuths, as the channel of each step computes them."""
    return bf.azimuths(run["X"][:cfg.horizon].reshape(cfg.horizon, -1, 2) - cfg.scenario.center)


def _receive_rows(cfg, beams):
    """``beams`` with its steering cut to a copy of the first N_U rows, the
    receive steering and all that a link evaluation reads of it, so the
    M_CE-row stack it was built from can be freed."""
    return dataclasses.replace(beams, a=beams.a[..., :cfg.array.n_u, :].copy())


def _link_chunks(cfg, run, angles, step, breaks, grid_blocks=()):
    """The link engine: the tracking run in chunks of at most
    max(1, LINK_CHUNK_ENTRIES // (max(M_CE, noise_draws) * N)) steps, beams
    steered at ``angles`` (step, UAV); a chunk also ends before each step in
    ``breaks``. Chunk k0..k1-1 ends in ``step(k0, k1, chan, beams, power,
    steering)``, with its channel, precoder and equal power split; the
    precoder's steering holds only its first N_U rows (`_receive_rows`).
    ``steering``, the steering stream, yields next the steering of each block
    in ``grid_blocks`` (pattern grid angles) once per step of the chunk in
    run.pattern_snapshots, which the step takes before it returns."""
    size = cfg.scenario.n_uavs * max(cfg.array.m_ce, cfg.noise_draws)
    starts = sorted({*range(0, cfg.horizon, max(1, LINK_CHUNK_ENTRIES // size)), *breaks})
    chunks = list(zip(starts, starts[1:] + [cfg.horizon]))
    x = run["X"][:cfg.horizon].reshape(cfg.horizon, -1, 2)
    theta = _true_angles(cfg, run)
    # steered first: the precoder is built and cut to its receive rows
    # before the channel's stack is taken, so no build holds both
    sets = [s for k0, k1 in chunks
            for s in (angles[k0:k1], theta[k0:k1],
                      *(g for k in cfg.pattern_snapshots if k0 <= k < k1 for g in grid_blocks))]
    # the helper's gate is one link step's matrix, not a larger grid block
    with closing(bf.steering_ahead(cfg.array, sets, columns=angles.shape[-1])) as steering:
        for k0, k1 in chunks:
            beams = _receive_rows(cfg, bf.safe_beamformer(cfg.array, angles[k0:k1],
                                                          a=next(steering)))
            power = bf.equal_power_allocation(beams, cfg.total_power)
            chan = bf.ChannelRealization.line_of_sight(
                cfg.array, x[k0:k1], cfg.scenario.center, cfg.sigma2, a=next(steering))
            step(k0, k1, chan, beams, power, steering)
            # hold no chunk while the next one is built
            del chan, beams


def echo_blockage(windows, dt, horizon):
    """Echo-sensing blockage at steps k = 0..horizon-1, t = k*dt.

    Returns (in_window, last_clear): whether t lies in any [t_start, t_end)
    window, and the last step at or before k whose echo was not blocked, 0
    when blocked from the start. The echo-fed link steers with the true
    angles of step last_clear[k].
    """
    steps = np.arange(horizon)
    t = steps * dt
    in_window = np.zeros(horizon, dtype=bool)
    for t0, t1 in windows:
        in_window |= (t0 <= t) & (t < t1)
    return in_window, np.maximum.accumulate(np.where(in_window, 0, steps))


def link_timeseries(cfg, run, angles, out_dir, files):
    """Analytic per-step link reports along a tracking run, with the beams
    steered at ``angles`` (step, UAV), and the pattern_k<k>.csv snapshot of
    each step k in run.pattern_snapshots, written into ``out_dir`` (its rows
    into ``files``) by the chunk that builds that step's precoder.

    Returns (sinr_db, se, ridge): sinr_db and se are (horizon, N) and ridge
    (horizon,) holds the ridge of each step's precoder (0.0 when strict).
    """
    n = cfg.scenario.n_uavs
    sinr_db = np.empty((cfg.horizon, n))
    se = np.empty((cfg.horizon, n))
    ridge = np.empty(cfg.horizon)
    grid_deg = np.linspace(-PATTERN_SPAN_DEG, PATTERN_SPAN_DEG, cfg.pattern_points)
    grid = np.deg2rad(grid_deg)

    def step(k0, k1, chan, beams, power, steering):
        report = bf.link_report(cfg.array, chan, beams, power)
        sinr_db[k0:k1] = report.sinr_db
        se[k0:k1] = report.se
        ridge[k0:k1] = beams.ridge
        for k in (k for k in cfg.pattern_snapshots if k0 <= k < k1):
            (gains_db,) = bf.beam_pattern(cfg.array, [beams.f[k - k0]], grid, steering)
            name = f"pattern_k{k}.csv"
            files[name] = write_csv(
                out_dir / name, ["theta_deg", "beam_id", "gain_db"],
                [np.repeat(grid_deg, n), np.tile(np.arange(n), grid.size), gains_db],
            )

    _link_chunks(cfg, run, angles, step, (), bf.pattern_blocks(cfg.array, [n], grid))
    return sinr_db, se, ridge


def _step_uav_columns(n, horizon):
    """k and uav_id columns of a table with one row per (step, UAV)."""
    return np.repeat(np.arange(horizon), n), np.tile(np.arange(n), horizon)


def _write_tracking_csvs(cfg, run, out_dir, files):
    n, horizon = cfg.scenario.n_uavs, cfg.horizon
    k, uav = _step_uav_columns(n, horizon)
    xt, xp, wt, wh = (
        run[key][:horizon].reshape(horizon, n, 2) for key in ("X", "XHAT", "W", "WHAT")
    )
    files["trajectories.csv"] = write_csv(
        out_dir / "trajectories.csv",
        ["k", "t", "uav_id", "x_true", "y_true", "x_pred", "y_pred", "err_norm"],
        [k, k * float(cfg.scenario.dt[0]), uav, xt[..., 0], xt[..., 1], xp[..., 0],
         xp[..., 1], row_norms(xp - xt)],
    )
    files["inputs.csv"] = write_csv(
        out_dir / "inputs.csv",
        ["k", "uav_id", "wx_true", "wy_true", "wx_est", "wy_est", "err_norm"],
        [k, uav, wt[..., 0], wt[..., 1], wh[..., 0], wh[..., 1], row_norms(wh - wt)],
    )


def _write_link_csvs(cfg, run, angles, out_dir, files):
    """se.csv and the pattern_k<k>.csv snapshots, which the link writes as it
    builds their precoders (`link_timeseries`); returns the steps whose
    precoder fell back to the ridge."""
    sinr_db, se, ridge = link_timeseries(cfg, run, angles, out_dir, files)
    k, uav = _step_uav_columns(cfg.scenario.n_uavs, cfg.horizon)
    files["se.csv"] = write_csv(
        out_dir / "se.csv", ["k", "uav_id", "mode", "sinr_db", "se_bpshz"],
        [k, uav, np.full(k.size, "uio"), sinr_db, se],
    )
    return np.flatnonzero(ridge > 0.0).tolist()


def write_manifest(out_dir, cfg, files, wall_clock_s, **report):
    """manifest.json: config hash, version, seed, rows per output file and
    wall-clock, plus any run ``report`` fields (such as the steps whose
    zero-forcing precoder fell back to the ridge)."""
    from . import __version__

    manifest = {
        "config_hash": config_hash(cfg),
        "version": __version__,
        "seed": cfg.seed,
        "files": dict(sorted(files.items())),
        "wall_clock_s": wall_clock_s,
        **report,
    }
    write_json(Path(out_dir) / "manifest.json", manifest)
    return manifest


def run_simulate(cfg, out_dir):
    """Tracking + link + pattern CSVs, one subdirectory per configured design.

    The outputs depend on a design only through its level mu*, the key by
    which run_design shares one certificate among bounds, so each distinct
    level is run once and its files are copied into the directories of the
    other bounds at that level. The manifest lists, per design directory, the
    steps whose precoder fell back to the ridge (``zf_fallback_steps``).
    """
    require_simulate_config(cfg)
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, designs = run_design(cfg)
    files = {}
    fallback_steps = {}
    written = {}  # mu* -> (directory, {file name: rows}, fallback steps)
    for record, (solution, gains) in zip(records, designs):
        sub = out_dir / f"design_mu{mu_label(record['mu_max'])}"
        sub.mkdir(parents=True, exist_ok=True)
        if solution.mu not in written:
            run = obs.track(
                cfg.scenario, cfg.model, gains, cfg.horizon, gamma=solution.gamma,
                init=cfg.observer_init,
            )
            angles = _predicted_angles(cfg, run["XHAT"])
            sub_files = {}
            _write_tracking_csvs(cfg, run, sub, sub_files)
            steps = _write_link_csvs(cfg, run, angles, sub, sub_files)
            written[solution.mu] = (sub, sub_files, steps)
        else:
            source, sub_files, steps = written[solution.mu]
            if source != sub:
                for name in sub_files:
                    shutil.copyfile(source / name, sub / name)
        for name, rows in sub_files.items():
            files[f"{sub.name}/{name}"] = rows
        fallback_steps[sub.name] = steps
    write_json(out_dir / "design_records.json", records)
    return write_manifest(out_dir, cfg, files, time.perf_counter() - t0,
                          zf_fallback_steps=fallback_steps)


def run_sweep_dt(cfg, out_dir):
    """Critical measurement-interval frontier per configured mu bound."""
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bracket = (cfg.sweep_dt_low, cfg.sweep_dt_high)
    rows = [(mu_max, critical_dt(design_problem(cfg, mu_max), bracket))
            for mu_max in cfg.mu_list]
    files = {
        "sweep_dt.csv": write_csv(
            out_dir / "sweep_dt.csv", ["mu_max", "critical_dt_s"], list(zip(*rows))
        )
    }
    write_manifest(out_dir, cfg, files, time.perf_counter() - t0)
    return rows


def _each_stack(pick, beams, power):
    """``beams`` and ``power`` with ``pick`` applied to each of their stacks."""
    return bf.BeamformerMatrix(**{k: pick(v) for k, v in vars(beams).items()}), pick(power)


def run_compare(cfg, out_dir, force_uio_truth=False):
    """Paired blockage comparison of the prediction-fed and echo-fed links at
    the first configured mu bound.

    Both modes consume identical per-step draws (symbols + post-combining
    noise) and the same physical channel; only the steering angles differ.
    The echo-fed link steers with the true angles of the last unblocked step.
    Link chunks also end where a step stops or starts being its own echo
    source, so each chunk is either all unblocked, and builds its echo
    precoders on its channel steering (cut to the receive rows,
    `_receive_rows`), or all held, and repeats the last step built as
    broadcast views, building and copying nothing. force_uio_truth
    substitutes true angles into the prediction path, the paired-noise sanity
    check. The manifest lists, per mode, the steps whose precoder fell back
    to the ridge (``zf_fallback_steps``).
    """
    require_compare_config(cfg)
    t0 = time.perf_counter()
    dt0 = float(cfg.scenario.dt[0])
    blocked, last_clear = echo_blockage(cfg.windows, dt0, cfg.horizon)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    solution, gains = solve_design(design_problem(cfg, cfg.mu_list[0]))
    run = obs.track(
        cfg.scenario, cfg.model, gains, cfg.horizon, gamma=solution.gamma,
        init=cfg.observer_init,
    )
    rng = np.random.default_rng(cfg.seed)
    n = cfg.scenario.n_uavs
    predicted = _true_angles(cfg, run) if force_uio_truth else _predicted_angles(cfg, run["XHAT"])
    se_uio = np.empty(cfg.horizon)
    se_echo = np.empty(cfg.horizon)
    fallback_steps = {"uio": [], "echo_baseline": []}
    own = last_clear == np.arange(cfg.horizon)  # each step its own echo source
    held = None  # the last echo step built: (precoder, power) of one step

    def step(k0, k1, chan, uio, uio_power, steering):
        nonlocal held
        symbols, noise = bf.draw_link_steps(n, cfg.sigma2, rng, cfg.noise_draws, k1 - k0)
        if own[k0]:
            held = None  # not needed: free it before the new build
            echo = _receive_rows(cfg, bf.safe_beamformer(cfg.array, chan.theta, a=chan.a))
            echo_power = bf.equal_power_allocation(echo, cfg.total_power)
            held = _each_stack(lambda v: v[-1:], echo, echo_power)
        else:
            echo, echo_power = _each_stack(
                lambda v: np.broadcast_to(v, (k1 - k0, *v.shape[1:])), *held)
        for mode, se, beams, power in (("uio", se_uio, uio, uio_power),
                                       ("echo_baseline", se_echo, echo, echo_power)):
            se[k0:k1] = np.mean(bf.empirical_link_se(
                cfg.array, chan, beams, power, symbols, noise), axis=-1)
            fallback_steps[mode].extend((k0 + np.flatnonzero(beams.ridge > 0.0)).tolist())

    # chunks also end where own changes, so none mixes built and held steps
    _link_chunks(cfg, run, predicted, step, (np.flatnonzero(own[1:] != own[:-1]) + 1).tolist())
    steps = np.arange(cfg.horizon)
    files = {
        "se_compare.csv": write_csv(
            out_dir / "se_compare.csv",
            ["k", "t", "in_window", "se_uio", "se_echo_baseline"],
            [steps, steps * dt0, blocked, se_uio, se_echo],
        )
    }
    summary = {
        "window_mean_se_uio": float(np.mean(se_uio[blocked])),
        "window_mean_se_echo_baseline": float(np.mean(se_echo[blocked])),
        "outside_mean_se_uio": float(np.mean(se_uio[~blocked])) if np.any(~blocked) else None,
        "outside_mean_se_echo_baseline": (
            float(np.mean(se_echo[~blocked])) if np.any(~blocked) else None
        ),
        "windows": [list(w) for w in cfg.windows],
        "blocked_steps": int(np.sum(blocked)),
    }
    summary["window_se_gap"] = (
        summary["window_mean_se_uio"] - summary["window_mean_se_echo_baseline"]
    )
    write_json(out_dir / "compare_summary.json", summary)
    write_manifest(out_dir, cfg, files, time.perf_counter() - t0,
                   zf_fallback_steps=fallback_steps)
    return summary
