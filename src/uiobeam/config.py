"""Run configuration: YAML with nested sections, strict key checking, and
defaults set to the reference four-UAV scenario (radii 100/150/200/250 m,
omega 0.5 rad/s, dT 0.15 s, D = 0.5 I, alpha 0.5, 64x4 antennas at 30 GHz).
Each setting has one key, and the file alone sets the run.

A file is parsed once, by libyaml when PyYAML has it and by the pure-Python
parser otherwise; an invalid file's error names the file, line and column in
that parser's wording. Every rejection starts with the ``section.field`` it
concerns: the parser checks types, shapes and the rules no class owns, and
the errors of `UavScenario` and `ArrayConfig`, which state their own rules
and defaults, gain the section prefix here.

Each link subcommand's own rules (the link rules and the size bounds of the
arrays it allocates) are one check here, `require_simulate_config` or
`require_compare_config`, which it calls before it allocates or writes.
"""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import yaml

from .beamforming import MIN_RANGE, ArrayConfig, default_noise_power
from .design import MU_BRACKET, P_GRID_SPAN
from .dynamics import MeasurementModel, UavScenario
from .errors import ConfigError, ShapeError
from .observer import DEFAULT_TRANSIENT_CUTOFF

_SCHEMA = {
    "scenario": {
        "n_uavs", "radii", "omega", "phases", "center", "dt",
        "perturbation_ratio", "perturbation_rate_multiple",
    },
    "measurement": {"d_scale", "d_diag"},
    "observer": {"alpha", "mu_max", "h_diag", "init"},
    "array": {"m_ce", "n_u", "carrier_hz", "spacing"},
    "channel": {"sigma2", "target_snr_db", "snr_ref_range", "total_power", "noise_draws"},
    "blockage": {"windows"},
    "run": {
        "horizon", "seed", "transient_cutoff", "pattern_snapshots",
        "pattern_points", "sweep_dt_low", "sweep_dt_high",
    },
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for the simulation harness."""

    scenario: UavScenario
    model: MeasurementModel
    alpha: float
    mu_list: tuple
    h_diag: np.ndarray
    observer_init: str
    array: ArrayConfig
    sigma2: float
    total_power: float
    noise_draws: int
    windows: tuple
    horizon: int
    seed: int
    transient_cutoff: int
    pattern_snapshots: tuple
    pattern_points: int
    sweep_dt_low: float
    sweep_dt_high: float


def _check_unknown_keys(data):
    unknown = []
    for section, content in data.items():
        if section not in _SCHEMA:
            unknown.append(section)
            continue
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section '{section}' must be a mapping")
        for key in content:
            if key not in _SCHEMA[section]:
                unknown.append(f"{section}.{key}")
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(sorted(unknown)))


def _lookup(data, name, default=None):
    """Field ``name`` ("section.key") of ``data``; ``default`` when it is
    absent or null."""
    section, key = name.split(".")
    value = (data.get(section) or {}).get(key)
    return default if value is None else value


def _number(value, kind):
    """One scalar as a Python ``kind``. Text is read as a number too, since
    YAML 1.1 reads forms such as ``1e-3`` as strings; an int field goes
    through an exact fraction, never through float, so big integers keep
    their value and 2.5 is rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str, np.number)):
        raise TypeError(value)
    if kind is float:
        return float(value)
    exact = Fraction(value)
    if exact.denominator != 1:
        raise ValueError(value)
    return int(exact)


_FORMS = {0: "a single value", 1: "a list", None: "a value or a list"}


def _read(data, name, default=None, kind=float, ndim=0, size=None):
    return _checked(_lookup(data, name, default), name, kind, ndim, size)


def _checked(value, name, kind=float, ndim=0, size=None):
    """``value`` of field ``name``: None stays None; ``ndim`` is 0 for a
    scalar (returned as a Python ``kind``), 1 for a list and None for either
    (returned as an array). With ``size`` the list needs that many entries and
    a scalar fills them. A non-numeric, misshapen, non-finite or (int)
    non-integral value raises a ConfigError naming the field."""
    if value is None:
        return None
    is_list = isinstance(value, (list, tuple, np.ndarray))
    if ndim is not None and is_list != (ndim == 1):
        raise ConfigError(f"{name} must be {_FORMS[ndim]}, got {value!r}")
    try:
        values = [_number(v, kind) for v in value] if is_list else _number(value, kind)
    except (TypeError, ValueError, OverflowError):
        noun = "integral" if kind is int else "numeric"
        raise ConfigError(f"{name} must be {noun}, got {value!r}") from None
    if kind is float and not np.all(np.isfinite(values)):
        raise ConfigError(f"{name} must be finite, got {np.asarray(values).tolist()}")
    if ndim == 0:
        return values
    values = np.asarray(values, float if kind is float else object)
    if size is not None and values.ndim == 0:
        values = np.full(size, values)
    if size is not None and values.size != size:
        raise ConfigError(f"{name} needs {size} entries, got {values.size}")
    return values


def _positive(value, name):
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def config_from_mapping(data):
    """Validate a parsed mapping and resolve every default."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top-level configuration must be a mapping")
    _check_unknown_keys(data)

    radii = _read(data, "scenario.radii", [100.0, 150.0, 200.0, 250.0], ndim=None)
    n_uavs = _read(data, "scenario.n_uavs", radii.size, int)
    if n_uavs != radii.size:
        raise ConfigError(
            f"scenario.n_uavs={n_uavs} disagrees with {radii.size} radii entries"
        )
    omega = _read(data, "scenario.omega", 0.5)
    dt = _read(data, "scenario.dt", 0.15, ndim=None, size=n_uavs)
    phases = _read(data, "scenario.phases", ndim=1, size=n_uavs)
    center = _read(data, "scenario.center", [0.0, 0.0], ndim=1, size=2)
    ratio = _read(data, "scenario.perturbation_ratio", UavScenario.perturbation_ratio)
    rate_multiple = _read(data, "scenario.perturbation_rate_multiple",
                          UavScenario.perturbation_rate_multiple)
    try:
        if phases is None:
            scenario = UavScenario.evenly_phased(
                radii, omega, dt, center=center,
                perturbation_ratio=ratio, perturbation_rate_multiple=rate_multiple,
            )
        else:
            scenario = UavScenario(
                radii=radii, omega=omega, phases=phases, center=center, dt=dt,
                perturbation_ratio=ratio, perturbation_rate_multiple=rate_multiple,
            )
    except ShapeError as exc:
        raise ConfigError(f"scenario.{exc}") from None

    d_diag = _read(data, "measurement.d_diag", ndim=1, size=2 * n_uavs)
    d_field = "measurement.d_diag" if d_diag is not None else "measurement.d_scale"
    if d_diag is not None:
        model = MeasurementModel(d=d_diag)
    else:
        model = MeasurementModel.scaled_identity(n_uavs, _read(data, "measurement.d_scale", 0.5))
    # the closed-form floor and feasible dt interval take d^2
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(model.d * model.d)):
            raise ConfigError(f"{d_field} entries must have a finite square, got "
                              f"{np.unique(model.d).tolist()}")

    alpha = _read(data, "observer.alpha", 0.5)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"observer.alpha must lie in (0, 1), got {alpha}")
    mu_list = tuple(np.atleast_1d(
        _read(data, "observer.mu_max", [0.05, 0.25, 1.0], ndim=None)).tolist())
    if not mu_list or not all(m > 0 for m in mu_list):
        raise ConfigError("observer.mu_max entries must be positive")
    h_diag = _read(data, "observer.h_diag", 1.0, ndim=None, size=2 * n_uavs)
    # the certificate search's p grid reaches P_GRID_SPAN * h^2 / mu at the
    # bracket floor mu = MU_BRACKET[0]; it must stay finite
    with np.errstate(over="ignore"):
        grid_top = P_GRID_SPAN * (h_diag * h_diag / MU_BRACKET[0])
    if not np.all(np.isfinite(grid_top)):
        raise ConfigError(f"observer.h_diag entries are too large for the certificate "
                          f"search, whose p grid reaches {P_GRID_SPAN:g} * h^2 / "
                          f"{MU_BRACKET[0]:g}; got {h_diag.tolist()}")
    observer_init = _lookup(data, "observer.init", "measurement")
    if observer_init not in ("measurement", "zero"):
        raise ConfigError(f"observer.init must be 'measurement' or 'zero', got {observer_init!r}")

    m_ce = _read(data, "array.m_ce", 64, int)
    n_u = _read(data, "array.n_u", 4, int)
    carrier = _positive(_read(data, "array.carrier_hz", 30.0e9), "array.carrier_hz")
    spacing = _read(data, "array.spacing")
    try:
        array = ArrayConfig.at_carrier(m_ce, n_u, carrier, spacing=spacing)
    except ShapeError as exc:
        raise ConfigError(f"array.{exc}") from None

    total_power = _positive(_read(data, "channel.total_power", 1.0), "channel.total_power")
    snr_ref_range = _positive(_read(data, "channel.snr_ref_range", 250.0),
                              "channel.snr_ref_range")
    target_snr_db = _read(data, "channel.target_snr_db", 10.0)
    sigma2 = _read(data, "channel.sigma2")
    if sigma2 is None:
        try:
            sigma2 = default_noise_power(array, total_power, n_uavs, snr_ref_range,
                                         target_snr_db)
        except (OverflowError, ZeroDivisionError):
            sigma2 = 0.0
        if not (np.isfinite(sigma2) and sigma2 > 0):
            inputs = [("channel.target_snr_db", target_snr_db, " dB"),
                      ("array.carrier_hz", carrier, " Hz"),
                      ("channel.snr_ref_range", snr_ref_range, " m"),
                      ("channel.total_power", total_power, "")]
            # the fields the file sets come first: one of them is the cause
            inputs.sort(key=lambda item: _lookup(data, item[0]) is None)
            named = ", ".join(f"{name} {value:g}{unit}" for name, value, unit in inputs)
            raise ConfigError(f"{named}: the noise power they give must be finite and "
                              f"positive (or set channel.sigma2)")
    elif sigma2 < 0:
        raise ConfigError("channel.sigma2 must be non-negative")
    noise_draws = _positive(_read(data, "channel.noise_draws", 64, int), "channel.noise_draws")

    horizon = _read(data, "run.horizon", 400, int)
    if horizon < 1:
        raise ConfigError(f"run.horizon must be >= 1, got {horizon}")
    seed = _read(data, "run.seed", 0, int)
    if seed < 0:
        raise ConfigError(f"run.seed must be non-negative, got {seed}")
    transient_cutoff = _read(data, "run.transient_cutoff", DEFAULT_TRANSIENT_CUTOFF, int)
    if transient_cutoff < 0:
        raise ConfigError("run.transient_cutoff must be non-negative")

    # the run ends at horizon * dt as the time column rounds it; a horizon past
    # the float range is compared exactly instead
    try:
        end_time = horizon * float(dt[0])
    except OverflowError:
        end_time = horizon * Fraction(float(dt[0]))
    windows_raw = _lookup(data, "blockage.windows", [])
    if not isinstance(windows_raw, (list, tuple)):
        raise ConfigError(f"blockage.windows must be a list of [t_start, t_end] pairs, "
                          f"got {windows_raw!r}")
    windows = []
    for idx, win in enumerate(windows_raw):
        name = f"blockage.windows[{idx}]"
        t0, t1 = _checked(win, name, ndim=1, size=2).tolist()
        if not 0.0 <= t0 < t1:
            raise ConfigError(f"{name} must satisfy 0 <= t_start < t_end, got {win}")
        if t1 > end_time:
            raise ConfigError(
                f"{name} ends at {t1} s, beyond the horizon ({float(end_time)} s)"
            )
        windows.append((t0, t1))

    snapshots = _read(data, "run.pattern_snapshots", [0, horizon // 2, horizon - 1],
                      kind=int, ndim=1)
    if any(not 0 <= s < horizon for s in snapshots):
        raise ConfigError("run.pattern_snapshots must lie within [0, horizon)")
    # one pattern file per distinct step, in step order
    snapshots = tuple(sorted(set(snapshots)))
    pattern_points = _positive(_read(data, "run.pattern_points", 721, int), "run.pattern_points")
    sweep_dt_low = _read(data, "run.sweep_dt_low", float(dt[0]))
    sweep_dt_high = _read(data, "run.sweep_dt_high", 2.0)
    if not 0 < sweep_dt_low < sweep_dt_high:
        raise ConfigError(
            f"run.sweep_dt_low/high must satisfy 0 < low < high, got "
            f"({sweep_dt_low}, {sweep_dt_high})"
        )

    return RunConfig(
        scenario=scenario, model=model, alpha=alpha, mu_list=mu_list, h_diag=h_diag,
        observer_init=observer_init, array=array, sigma2=sigma2, total_power=total_power,
        noise_draws=noise_draws, windows=tuple(windows), horizon=horizon, seed=seed,
        transient_cutoff=transient_cutoff, pattern_snapshots=snapshots,
        pattern_points=pattern_points, sweep_dt_low=sweep_dt_low, sweep_dt_high=sweep_dt_high,
    )


# Bound (m) on the coordinates of the truth rollout: a UAV starts within
# |center| + R and moves at most R |omega| (dt + perturbation_ratio) per step.
# The link squares ranges and subtracts the center, which overflow or cancel
# near 1e300 m, so the bound keeps the headroom of a square.
POSITION_HEADROOM = 1e150
# Bound on the received power total_power * gain^2, gain being the free-space
# gain lambda / (4 pi R) at the smallest radius R. The link squares
# coefficients of size sqrt(total_power) * gain, which overflows near 1e308 (a
# carrier_hz of 1e-300 makes lambda inf), so the bound keeps the headroom of a
# gain below 1e150 at unit power.
POWER_HEADROOM = 1e300
# Bound on run.horizon * scenario.n_uavs, the (step, UAV) pairs of one link
# run. simulate's peak grows by about 220 bytes per pair (max RSS of the
# reference fleet at horizons 2000 and 40000), so the bound keeps a run near
# 1 GiB and rejects a horizon that could not be allocated before anything is.
MAX_ROLLOUT_PAIRS = 1 << 22
# The next three bound what one link step or pattern file allocates, so each
# keeps its arrays within about 750 MiB (the steering within about 290 MiB);
# bytes per entry measured as above (max RSS of the reference fleet at
# horizon 6, two sizes 8x apart).
# array.m_ce * scenario.n_uavs steering entries of one link step: ~72 B each
# in compare-baseline, 55 B in simulate (m_ce 2^16 and 2^19).
MAX_STEERING_ENTRIES = 1 << 22
# channel.noise_draws * scenario.n_uavs draws of one compare-baseline step:
# ~88 B each (2^16 and 2^19 draws).
MAX_DRAW_ENTRIES = 1 << 23
# run.pattern_points * scenario.n_uavs * len(run.pattern_snapshots) rows of
# one simulate run's pattern files, of which one snapshot's are held at a
# time: ~29 B each held (2^16 and 2^19 points, one or three snapshots).
MAX_PATTERN_ROWS = 1 << 24
# The link steers at each UAV's offset positions - center, taken in float64,
# which resolves an orbit of radius R to about |center| 2^-52 / R. The smallest
# radius must be at least CENTER_PRECISION * max|center|, so every offset keeps
# 26 of its 52 bits (angles to ~1e-8 rad) and none cancels to zero.
CENTER_PRECISION = 2.0 ** -26


def require_at_most(bound, counted, *fields):
    """Reject a config whose ``fields``, (name, value) pairs, multiply to more
    than ``bound`` ``counted``, naming each field with its value."""
    product = math.prod(value for _, value in fields)
    if product > bound:
        named = " and ".join(f"{name} {value}" for name, value in fields)
        raise ConfigError(f"{named} give {product} {counted}, above the {bound} allowed")


def mu_label(mu):
    """The label of a mu bound in output names (``design_mu<label>``) and
    printed results: six significant digits."""
    return format(float(mu), "g")


def require_simulate_config(cfg):
    """The acceptance rules of simulate: one design directory per mu bound,
    the link rules and at most MAX_PATTERN_ROWS rows over the pattern files of
    the run."""
    labels = {}
    for mu in cfg.mu_list:
        label = mu_label(mu)
        if labels.setdefault(label, mu) != mu:
            raise ConfigError(f"observer.mu_max entries {labels[label]!r} and {mu!r} share the "
                              f"label {label}, so simulate would write both designs to "
                              f"design_mu{label}")
    _require_link_config(cfg)
    require_at_most(MAX_PATTERN_ROWS, "rows in the pattern files of one run",
                    ("run.pattern_points", cfg.pattern_points),
                    ("scenario.n_uavs", cfg.scenario.n_uavs),
                    ("run.pattern_snapshots", len(cfg.pattern_snapshots)))


def require_compare_config(cfg):
    """The acceptance rules of compare-baseline: a blockage window, the link
    rules, at most MAX_DRAW_ENTRIES noise draws in one link step and a step
    t = k * dt (k < run.horizon) in every window, whose mean spectral
    efficiency would be undefined without one."""
    if not cfg.windows:
        raise ConfigError("blockage.windows is empty: compare-baseline needs at least one window")
    _require_link_config(cfg)
    require_at_most(MAX_DRAW_ENTRIES, "noise draws in one link step",
                    ("channel.noise_draws", cfg.noise_draws),
                    ("scenario.n_uavs", cfg.scenario.n_uavs))
    dt = float(cfg.scenario.dt[0])
    t = np.arange(cfg.horizon) * dt
    for idx, (t0, t1) in enumerate(cfg.windows):
        if not np.any((t0 <= t) & (t < t1)):
            raise ConfigError(f"blockage.windows[{idx}] [{t0}, {t1}) s holds no step of "
                              f"scenario.dt {dt} s within run.horizon {cfg.horizon}")


def _require_link_config(cfg):
    """Zero-forcing needs one antenna per served UAV, the time column, the
    blockage windows and the echo hold run on one clock, the rollout holds at
    most MAX_ROLLOUT_PAIRS (step, UAV) pairs and one step's steering at most
    MAX_STEERING_ENTRIES entries, the positions stay below POSITION_HEADROOM,
    and the radii reach MIN_RANGE and resolve against the center
    (CENTER_PRECISION) and keep the received power below POWER_HEADROOM. Both
    link subcommands check this before they allocate anything; design and
    sweep-dt build neither link nor positions, so more UAVs than antennas,
    per-UAV dt, long horizons, far-flung orbits and huge wavelengths or powers
    stay valid for them."""
    dt = cfg.scenario.dt
    if np.any(dt != dt[0]):
        raise ConfigError(f"scenario.dt must be one interval for simulate and "
                          f"compare-baseline (one clock), got {dt.tolist()}")
    n_uavs, m_ce = cfg.scenario.n_uavs, cfg.array.m_ce
    if n_uavs > m_ce:
        raise ConfigError(
            f"array.m_ce={m_ce} must be at least scenario.n_uavs={n_uavs}: "
            f"zero-forcing needs one antenna per served UAV"
        )
    require_at_most(MAX_ROLLOUT_PAIRS, "(step, UAV) pairs in one link run",
                    ("run.horizon", cfg.horizon), ("scenario.n_uavs", n_uavs))
    require_at_most(MAX_STEERING_ENTRIES, "steering entries in one link step",
                    ("array.m_ce", m_ce), ("scenario.n_uavs", n_uavs))
    sc, radius, omega = cfg.scenario, np.max(cfg.scenario.radii), abs(cfg.scenario.omega)
    with np.errstate(over="ignore"):  # finite non-negative factors: inf, never nan
        step = omega * dt[0] + omega * sc.perturbation_ratio
        reach = np.max(np.abs(sc.center)) + radius * (1.0 + cfg.horizon * step)
    if not reach < POSITION_HEADROOM:
        raise ConfigError(
            f"scenario.center {sc.center.tolist()}, scenario.radii up to {radius:g}, "
            f"scenario.omega {sc.omega:g}, scenario.dt {dt[0]:g}, scenario.perturbation_ratio "
            f"{sc.perturbation_ratio:g} and run.horizon {cfg.horizon} let positions reach "
            f"{reach:.3g} m, not below {POSITION_HEADROOM:g} m")
    nearest, far = float(np.min(sc.radii)), np.max(np.abs(sc.center))
    if not nearest >= MIN_RANGE:
        raise ConfigError(f"scenario.radii down to {nearest:g} m start a UAV within "
                          f"{MIN_RANGE:g} m of the center, where it has no azimuth")
    if not nearest >= CENTER_PRECISION * far:
        raise ConfigError(
            f"scenario.center {sc.center.tolist()} is too far out for scenario.radii "
            f"down to {nearest:g}: an offset from the center keeps 26 bits "
            f"only for radii of at least {CENTER_PRECISION:g} * {far:g} = "
            f"{CENTER_PRECISION * far:.3g} m")
    geometry = cfg.array
    # Python floats, positive: inf, never nan, and no warning
    gain = geometry.wavelength / (4.0 * np.pi * nearest)
    power = cfg.total_power * gain * gain
    if not power < POWER_HEADROOM:
        raise ConfigError(
            f"channel.total_power {cfg.total_power:g}, array.carrier_hz (a wavelength of "
            f"{geometry.wavelength:g} m) and scenario.radii down to {nearest:g} m give a "
            f"free-space gain of {gain:.3g} and a received power of {power:.3g}, not below "
            f"{POWER_HEADROOM:g}")


# libyaml parses a large config about ten times faster than the pure-Python
# parser and builds the same mapping (both use SafeConstructor and the same
# resolver); it words some errors differently, so the problem text of an
# invalid file follows the loader, while its line and column do not.
_FAST_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(path):
    """The YAML file at ``path`` as yaml.safe_load reads it, parsed once by
    _FAST_LOADER, whose wording a YAMLError keeps."""
    with open(path, "r", encoding="utf-8") as fh:
        return yaml.load(fh.read(), Loader=_FAST_LOADER)


def parse_config(path=None):
    """Load a YAML config file (None or empty file means all defaults) and
    validate it. A file that is not UTF-8 or not YAML raises a ConfigError
    naming the file and, for YAML, the line and column."""
    data = {}
    if path is not None:
        try:
            data = _load_yaml(path)
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise ConfigError(f"{path}: not UTF-8 text (byte 0x{bad:02x}: {exc.reason})") from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ConfigError(f"{path}: invalid YAML{where}: {problem}") from None
    return config_from_mapping(data)


def config_hash(cfg):
    """SHA-256 of the validated configuration: canonical JSON (sorted keys, no
    spaces, arrays as lists) of every RunConfig field, so it covers exactly
    what a run uses, however the YAML spelled it."""
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"),
                           default=lambda value: value.tolist())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
