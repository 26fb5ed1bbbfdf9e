"""Run configuration: YAML with nested sections, strict key checking, and
defaults set to the reference four-UAV scenario (radii 100/150/200/250 m,
omega 0.5 rad/s, dT 0.15 s, D = 0.5 I, alpha 0.5, 64x4 antennas at 30 GHz).

Unknown keys are errors, not warnings; invariant violations name the field.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import yaml

from .beamforming import ArrayConfig, default_noise_power
from .dynamics import MeasurementModel, UavScenario
from .errors import ConfigError, ShapeError

_SCHEMA = {
    "scenario": {
        "n_uavs", "radii", "omega", "phases", "center", "dt",
        "perturbation_ratio", "perturbation_rate_multiple",
    },
    "measurement": {"d_scale", "d_diag"},
    "observer": {"alpha", "mu_max", "h_diag", "init"},
    "array": {"m_ce", "n_u", "carrier_hz", "wavelength", "spacing"},
    "channel": {
        "sigma2", "target_snr_db", "snr_ref_range", "total_power",
        "phase_mode", "noise_draws",
    },
    "blockage": {"windows"},
    "run": {
        "horizon", "seed", "transient_cutoff", "pattern_snapshots",
        "pattern_points", "sweep_dt_low", "sweep_dt_high",
    },
}


@dataclass(frozen=True)
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
    phase_mode: str
    noise_draws: int
    windows: tuple
    horizon: int
    seed: int
    transient_cutoff: int
    pattern_snapshots: tuple
    pattern_points: int
    sweep_dt_low: float
    sweep_dt_high: float
    resolved: dict = field(repr=False, default_factory=dict)


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


def _get(data, section, key, default):
    content = data.get(section) or {}
    value = content.get(key, default)
    return default if value is None else value


def _positive(value, name):
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _finite(value, name):
    """``value`` as a float array; a ConfigError naming the field if any entry
    is infinite or NaN."""
    values = np.asarray(value, float)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{name} must be finite, got {values.tolist()}")
    return values


def config_from_mapping(data):
    """Validate a parsed mapping and resolve every default."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top-level configuration must be a mapping")
    _check_unknown_keys(data)

    radii = _finite(_get(data, "scenario", "radii", [100.0, 150.0, 200.0, 250.0]),
                    "scenario.radii")
    n_uavs = int(_get(data, "scenario", "n_uavs", radii.size))
    if n_uavs != radii.size:
        raise ConfigError(
            f"scenario.n_uavs={n_uavs} disagrees with {radii.size} radii entries"
        )
    omega = float(_finite(_get(data, "scenario", "omega", 0.5), "scenario.omega"))
    dt_raw = _finite(_get(data, "scenario", "dt", 0.15), "scenario.dt")
    dt = np.full(n_uavs, float(dt_raw)) if dt_raw.ndim == 0 else dt_raw
    if dt.size != n_uavs:
        raise ConfigError(f"scenario.dt needs 1 or {n_uavs} entries, got {dt.size}")
    if not np.all(dt > 0):
        raise ConfigError("scenario.dt must be positive")
    if not np.all(radii > 0):
        raise ConfigError("scenario.radii must be positive")
    phases_raw = _get(data, "scenario", "phases", None)
    center = _finite(_get(data, "scenario", "center", [0.0, 0.0]), "scenario.center")
    ratio = float(_get(data, "scenario", "perturbation_ratio", 0.2))
    if ratio < 0:
        raise ConfigError("scenario.perturbation_ratio must be non-negative")
    rate_multiple = float(_get(data, "scenario", "perturbation_rate_multiple", 10.0))
    try:
        if phases_raw is None:
            scenario = UavScenario.evenly_phased(
                radii, omega, dt, center=center,
                perturbation_ratio=ratio, perturbation_rate_multiple=rate_multiple,
            )
        else:
            scenario = UavScenario(
                radii=radii, omega=omega, phases=_finite(phases_raw, "scenario.phases"),
                center=center, dt=dt,
                perturbation_ratio=ratio, perturbation_rate_multiple=rate_multiple,
            )
    except ShapeError as exc:
        raise ConfigError(f"scenario: {exc}") from None

    d_diag_raw = _get(data, "measurement", "d_diag", None)
    if d_diag_raw is not None:
        d_diag = _finite(d_diag_raw, "measurement.d_diag")
        if d_diag.size != 2 * n_uavs:
            raise ConfigError(
                f"measurement.d_diag needs {2 * n_uavs} entries, got {d_diag.size}"
            )
        model = MeasurementModel(d=d_diag)
    else:
        d_scale = float(_finite(_get(data, "measurement", "d_scale", 0.5), "measurement.d_scale"))
        model = MeasurementModel.scaled_identity(n_uavs, d_scale)

    alpha = float(_get(data, "observer", "alpha", 0.5))
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"observer.alpha must lie in (0, 1), got {alpha}")
    mu_raw = _get(data, "observer", "mu_max", [0.05, 0.25, 1.0])
    mu_list = (float(mu_raw),) if np.isscalar(mu_raw) else tuple(float(m) for m in mu_raw)
    if not mu_list or not all(m > 0 for m in mu_list):
        raise ConfigError("observer.mu_max entries must be positive")
    h_raw = _get(data, "observer", "h_diag", 1.0)
    h_diag = (
        np.full(2 * n_uavs, float(h_raw)) if np.isscalar(h_raw) else np.asarray(h_raw, float)
    )
    if h_diag.size != 2 * n_uavs:
        raise ConfigError(f"observer.h_diag needs {2 * n_uavs} entries, got {h_diag.size}")
    _finite(h_diag, "observer.h_diag")
    observer_init = str(_get(data, "observer", "init", "measurement"))
    if observer_init not in ("measurement", "zero"):
        raise ConfigError(f"observer.init must be 'measurement' or 'zero', got {observer_init!r}")

    m_ce = int(_get(data, "array", "m_ce", 64))
    n_u = int(_get(data, "array", "n_u", 4))
    carrier = float(_get(data, "array", "carrier_hz", 30.0e9))
    wavelength_raw = _get(data, "array", "wavelength", None)
    spacing_raw = _get(data, "array", "spacing", None)
    try:
        if wavelength_raw is not None:
            array = ArrayConfig(
                m_ce=m_ce, n_u=n_u, wavelength=float(wavelength_raw), spacing=spacing_raw,
            )
        else:
            array = ArrayConfig.at_carrier(m_ce, n_u, carrier, spacing=spacing_raw)
    except ShapeError as exc:
        raise ConfigError(f"array: {exc}") from None

    total_power = _positive(
        float(_finite(_get(data, "channel", "total_power", 1.0), "channel.total_power")),
        "channel.total_power")
    snr_ref_range = _positive(
        float(_finite(_get(data, "channel", "snr_ref_range", 250.0), "channel.snr_ref_range")),
        "channel.snr_ref_range")
    target_snr_db = float(_finite(_get(data, "channel", "target_snr_db", 10.0),
                                  "channel.target_snr_db"))
    sigma2_raw = _get(data, "channel", "sigma2", None)
    if sigma2_raw is not None:
        sigma2 = float(_finite(sigma2_raw, "channel.sigma2"))
        if sigma2 < 0:
            raise ConfigError("channel.sigma2 must be non-negative")
    else:
        sigma2 = default_noise_power(array, total_power, n_uavs, snr_ref_range, target_snr_db)
    phase_mode = str(_get(data, "channel", "phase_mode", "range"))
    if phase_mode not in ("range", "random"):
        raise ConfigError(f"channel.phase_mode must be 'range' or 'random', got {phase_mode!r}")
    noise_draws = int(_get(data, "channel", "noise_draws", 64))
    _positive(noise_draws, "channel.noise_draws")

    horizon = int(_get(data, "run", "horizon", 400))
    if horizon < 1:
        raise ConfigError(f"run.horizon must be >= 1, got {horizon}")
    seed = int(_get(data, "run", "seed", 0))
    if seed < 0:
        raise ConfigError(f"run.seed must be non-negative, got {seed}")
    transient_cutoff = int(_get(data, "run", "transient_cutoff", 50))
    if transient_cutoff < 0:
        raise ConfigError("run.transient_cutoff must be non-negative")

    end_time = horizon * float(dt[0])
    windows_raw = _get(data, "blockage", "windows", [])
    windows = []
    for idx, win in enumerate(windows_raw):
        if len(win) != 2:
            raise ConfigError(f"blockage.windows[{idx}] must be a [t_start, t_end] pair")
        t0, t1 = float(win[0]), float(win[1])
        if not 0.0 <= t0 < t1:
            raise ConfigError(
                f"blockage.windows[{idx}] must satisfy 0 <= t_start < t_end, got {win}"
            )
        if t1 > end_time:
            raise ConfigError(
                f"blockage.windows[{idx}] ends at {t1} s, beyond the horizon "
                f"({end_time} s)"
            )
        windows.append((t0, t1))

    snapshots_raw = _get(data, "run", "pattern_snapshots", None)
    if snapshots_raw is None:
        snapshots = tuple(sorted({0, horizon // 2, horizon - 1}))
    else:
        snapshots = tuple(int(s) for s in snapshots_raw)
        if any(not 0 <= s < horizon for s in snapshots):
            raise ConfigError("run.pattern_snapshots must lie within [0, horizon)")
    pattern_points = int(_get(data, "run", "pattern_points", 721))
    _positive(pattern_points, "run.pattern_points")
    sweep_dt_low = float(_finite(_get(data, "run", "sweep_dt_low", float(dt[0])),
                                 "run.sweep_dt_low"))
    sweep_dt_high = float(_finite(_get(data, "run", "sweep_dt_high", 2.0), "run.sweep_dt_high"))
    if not 0 < sweep_dt_low < sweep_dt_high:
        raise ConfigError(
            f"run.sweep_dt_low/high must satisfy 0 < low < high, got "
            f"({sweep_dt_low}, {sweep_dt_high})"
        )

    resolved = {
        "scenario": {
            "n_uavs": n_uavs,
            "radii": scenario.radii.tolist(),
            "omega": scenario.omega,
            "phases": scenario.phases.tolist(),
            "center": scenario.center.tolist(),
            "dt": scenario.dt.tolist(),
            "perturbation_ratio": scenario.perturbation_ratio,
            "perturbation_rate_multiple": scenario.perturbation_rate_multiple,
        },
        "measurement": {"d_diag": model.d.tolist()},
        "observer": {
            "alpha": alpha,
            "mu_max": list(mu_list),
            "h_diag": h_diag.tolist(),
            "init": observer_init,
        },
        "array": {
            "m_ce": m_ce,
            "n_u": n_u,
            # the carrier counts only when it sets the wavelength
            "carrier_hz": carrier if wavelength_raw is None else None,
            "wavelength": array.wavelength,
            "spacing": array.spacing,
        },
        "channel": {
            "sigma2": sigma2,
            "total_power": total_power,
            "phase_mode": phase_mode,
            "noise_draws": noise_draws,
        },
        "blockage": {"windows": [list(w) for w in windows]},
        "run": {
            "horizon": horizon,
            "seed": seed,
            "transient_cutoff": transient_cutoff,
            "pattern_snapshots": list(snapshots),
            "pattern_points": pattern_points,
            "sweep_dt_low": sweep_dt_low,
            "sweep_dt_high": sweep_dt_high,
        },
    }
    return RunConfig(
        scenario=scenario, model=model, alpha=alpha, mu_list=mu_list, h_diag=h_diag,
        observer_init=observer_init, array=array, sigma2=sigma2, total_power=total_power,
        phase_mode=phase_mode, noise_draws=noise_draws, windows=tuple(windows),
        horizon=horizon, seed=seed, transient_cutoff=transient_cutoff,
        pattern_snapshots=snapshots, pattern_points=pattern_points,
        sweep_dt_low=sweep_dt_low, sweep_dt_high=sweep_dt_high, resolved=resolved,
    )


def require_link_config(cfg):
    """Zero-forcing needs one antenna per served UAV, and the time column,
    the blockage windows and the echo hold run on one clock. The link
    subcommands call this; design and sweep-dt build neither, so more UAVs
    than antennas and per-UAV dt stay valid for them."""
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


def parse_config(path=None):
    """Load a YAML config file (None or empty file means all defaults). A file
    that is not UTF-8 or not YAML raises a ConfigError naming the file and,
    for YAML, the line and column."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
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
    """Hash of the resolved configuration; stable under key reordering."""
    canonical = json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
