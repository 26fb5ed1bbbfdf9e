"""Configuration parsing: reference defaults, overrides, strict unknown-key
rejection and field-qualified invariant errors."""

import numpy as np
import pytest

from uiobeam.config import config_from_mapping, config_hash, parse_config
from uiobeam.errors import ConfigError


def test_empty_config_resolves_reference_defaults():
    cfg = config_from_mapping({})
    np.testing.assert_array_equal(cfg.scenario.radii, [100.0, 150.0, 200.0, 250.0])
    assert cfg.scenario.omega == 0.5
    np.testing.assert_array_equal(cfg.scenario.dt, np.full(4, 0.15))
    np.testing.assert_allclose(cfg.scenario.phases, 2 * np.pi * np.arange(4) / 4)
    np.testing.assert_array_equal(cfg.model.d, np.full(8, 0.5))
    assert cfg.alpha == 0.5
    assert cfg.mu_list == (0.05, 0.25, 1.0)
    assert cfg.array.m_ce == 64 and cfg.array.n_u == 4
    assert cfg.array.wavelength == pytest.approx(299792458.0 / 30.0e9)
    assert cfg.horizon == 400 and cfg.seed == 0
    assert cfg.transient_cutoff == 50
    assert cfg.windows == ()
    # 10 dB per-stream reference SNR at 250 m
    h_ref = cfg.array.wavelength / (4 * np.pi * 250.0)
    assert cfg.sigma2 == pytest.approx(h_ref**2 / 40.0)


def test_empty_file_resolves_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg.scenario.n_uavs == 4


def test_none_path_resolves_defaults():
    assert parse_config(None).horizon == 400


def test_antenna_override_accepted():
    cfg = config_from_mapping({"array": {"m_ce": 128}})
    assert cfg.array.m_ce == 128


def test_negative_dt_rejected_with_field_name():
    with pytest.raises(ConfigError, match="scenario.dt"):
        config_from_mapping({"scenario": {"dt": -0.15}})


def test_unknown_keys_listed():
    # channel.phase_mode is not a key: the channel's phase is always the
    # propagation phase of its range; array.wavelength is not one either:
    # array.carrier_hz alone sets the wavelength
    for mapping, keys in (
        ({"observerx": {}, "run": {"horzon": 10}, "array": {"bandwidth_hz": 50.0e6}},
         "array.bandwidth_hz, observerx, run.horzon"),
        ({"channel": {"phase_mode": "chaotic"}}, "channel.phase_mode"),
        ({"array": {"wavelength": 0.01, "carrier_hz": 1.0e9}}, "array.wavelength"),
    ):
        with pytest.raises(ConfigError) as excinfo:
            config_from_mapping(mapping)
        assert str(excinfo.value) == f"unknown configuration keys: {keys}"


def test_scalar_mu_and_h_expand():
    cfg = config_from_mapping({"observer": {"mu_max": 0.25, "h_diag": 2.0}})
    assert cfg.mu_list == (0.25,)
    np.testing.assert_array_equal(cfg.h_diag, np.full(8, 2.0))


def test_explicit_d_diag():
    diag = list(np.linspace(0.1, 0.8, 8))
    cfg = config_from_mapping({"measurement": {"d_diag": diag}})
    np.testing.assert_allclose(cfg.model.d, diag)
    with pytest.raises(ConfigError, match="d_diag"):
        config_from_mapping({"measurement": {"d_diag": [0.5, 0.5]}})


def test_n_uavs_radii_mismatch():
    with pytest.raises(ConfigError, match="n_uavs"):
        config_from_mapping({"scenario": {"n_uavs": 3, "radii": [100.0, 200.0]}})


def test_window_validation():
    base = {"run": {"horizon": 100}}
    with pytest.raises(ConfigError, match="beyond the horizon"):
        config_from_mapping({**base, "blockage": {"windows": [[5.0, 100.0]]}})
    with pytest.raises(ConfigError, match="t_start < t_end"):
        config_from_mapping({**base, "blockage": {"windows": [[5.0, 4.0]]}})
    cfg = config_from_mapping({**base, "blockage": {"windows": [[5.0, 8.0]]}})
    assert cfg.windows == ((5.0, 8.0),)


def test_window_validation_past_the_float_range_of_the_horizon():
    # 10**310 steps cannot be converted to float; the run's end is compared
    # exactly, 10**10 s at dt 1e-300
    base = {"scenario": {"dt": 1e-300}, "run": {"horizon": 10**310}}
    cfg = config_from_mapping({**base, "blockage": {"windows": [[0.0, 1e9]]}})
    assert cfg.windows == ((0.0, 1e9),)
    with pytest.raises(ConfigError, match=r"beyond the horizon \(10000000000\.0 s\)"):
        config_from_mapping({**base, "blockage": {"windows": [[0.0, 1e20]]}})


def test_alpha_and_init_validation():
    with pytest.raises(ConfigError, match="observer.alpha"):
        config_from_mapping({"observer": {"alpha": 1.5}})
    with pytest.raises(ConfigError, match="observer.init"):
        config_from_mapping({"observer": {"init": "guess"}})


def test_horizon_and_snapshot_validation():
    with pytest.raises(ConfigError, match="run.horizon"):
        config_from_mapping({"run": {"horizon": 0}})
    with pytest.raises(ConfigError, match="pattern_snapshots"):
        config_from_mapping({"run": {"horizon": 10, "pattern_snapshots": [11]}})


def test_default_snapshots_cover_run():
    cfg = config_from_mapping({"run": {"horizon": 100}})
    assert cfg.pattern_snapshots == (0, 50, 99)


def test_hash_stable_under_reordering():
    a = config_from_mapping({"scenario": {"omega": 0.5, "radii": [100.0, 150.0, 200.0, 250.0]},
                             "run": {"seed": 3, "horizon": 100}})
    b = config_from_mapping({"run": {"horizon": 100, "seed": 3},
                             "scenario": {"radii": [100.0, 150.0, 200.0, 250.0], "omega": 0.5}})
    assert config_hash(a) == config_hash(b)


def test_hash_changes_with_content():
    a = config_from_mapping({})
    b = config_from_mapping({"run": {"seed": 1}})
    assert config_hash(a) != config_hash(b)


def test_yaml_round_trip(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "scenario:\n  omega: 0.25\n  dt: 0.1\nobserver:\n  mu_max: [0.05]\n"
        "run:\n  horizon: 50\n  seed: 7\n"
    )
    cfg = parse_config(path)
    assert cfg.scenario.omega == 0.25
    assert cfg.mu_list == (0.05,)
    assert cfg.horizon == 50 and cfg.seed == 7


def test_non_finite_h_diag_rejected_with_field_name():
    for h_diag in (float("inf"), float("nan"), [1.0] * 7 + [float("nan")]):
        with pytest.raises(ConfigError, match="observer.h_diag"):
            config_from_mapping({"observer": {"h_diag": h_diag}})


NON_FINITE = {
    "scenario.radii": [100.0, float("inf"), 200.0, 250.0],
    "scenario.omega": float("nan"),
    "scenario.phases": [0.0, 1.0, float("nan"), 3.0],
    "scenario.center": [float("nan"), 0.0],
    "scenario.dt": float("inf"),
    "measurement.d_diag": [0.5] * 7 + [float("nan")],
    "measurement.d_scale": float("nan"),
    "channel.sigma2": float("nan"),
    "channel.target_snr_db": float("nan"),
    "channel.total_power": float("inf"),
    "channel.snr_ref_range": float("inf"),
    "run.sweep_dt_low": float("nan"),
    "run.sweep_dt_high": float("inf"),
}


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_values_rejected_with_field_name(field):
    # each used to fail later under another name (a sweep bracket, D or the
    # state), or not at all: NaN SINR in se.csv, or a sweep-dt bisection
    # that never closes on an infinite bracket end
    section, key = field.split(".")
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be finite"):
        config_from_mapping({section: {key: NON_FINITE[field]}})


def test_negative_seed_rejected_with_field_name():
    with pytest.raises(ConfigError, match=r"run\.seed must be non-negative, got -1"):
        config_from_mapping({"run": {"seed": -1}})


MALFORMED = {
    # integer fields: each used to escape as a traceback or truncate silently
    "seed-inf": ("run.seed", {"run": {"seed": float("inf")}}),
    "horizon-nan": ("run.horizon", {"run": {"horizon": float("nan")}}),
    "cutoff-inf": ("run.transient_cutoff", {"run": {"transient_cutoff": float("inf")}}),
    "snapshot-nan": ("run.pattern_snapshots", {"run": {"pattern_snapshots": [float("nan")]}}),
    "seed-text": ("run.seed", {"run": {"seed": "abc"}}),
    "draws-fraction": ("channel.noise_draws", {"channel": {"noise_draws": 1.5}}),
    "n-uavs-fraction": ("scenario.n_uavs",
                        {"scenario": {"n_uavs": 2.7, "radii": [100.0, 200.0]}}),
    # floats that used to pass validation and fail later, or not at all
    "ratio-nan": ("scenario.perturbation_ratio",
                  {"scenario": {"perturbation_ratio": float("nan")}}),
    "rate-multiple-inf": ("scenario.perturbation_rate_multiple",
                          {"scenario": {"perturbation_rate_multiple": float("inf")}}),
    "spacing-inf": ("array.spacing", {"array": {"spacing": float("inf")}}),
    "carrier-zero": ("array.carrier_hz", {"array": {"carrier_hz": 0}}),
    # a subnormal carrier makes lambda inf; the noise power names the carrier
    "wavelength-inf": ("array.carrier_hz", {"array": {"carrier_hz": 5.0e-324}}),
    "mu-inf": ("observer.mu_max", {"observer": {"mu_max": [float("inf")]}}),
    # finite values whose derived quantities overflowed after validation
    "snr-overflow": ("channel.target_snr_db", {"channel": {"target_snr_db": 5000}}),
    "snr-underflow": ("channel.target_snr_db", {"channel": {"target_snr_db": -5000}}),
    "h-squared-overflow": ("observer.h_diag", {"observer": {"h_diag": 1.0e300}}),
    # shapes and types
    "windows-scalar": ("blockage.windows", {"blockage": {"windows": 5}}),
    "window-scalar": ("blockage.windows[0]", {"blockage": {"windows": [5]}}),
    "center-triple": ("scenario.center", {"scenario": {"center": [1, 2, 3]}}),
    "snapshots-scalar": ("run.pattern_snapshots", {"run": {"pattern_snapshots": 3}}),
    "mu-text": ("observer.mu_max", {"observer": {"mu_max": "abc"}}),
    "d-scale-list": ("measurement.d_scale", {"measurement": {"d_scale": [0.5, 0.5]}}),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_values_rejected_naming_the_field(case):
    field, mapping = MALFORMED[case]
    with pytest.raises(ConfigError) as excinfo:
        config_from_mapping(mapping)
    assert str(excinfo.value).startswith(f"{field} ")


def test_reader_keeps_nulls_big_integers_and_numeric_text(tmp_path):
    path = tmp_path / "cfg.yaml"
    # YAML 1.1 reads 1e-3 and 28.0e9 as strings
    path.write_text("array:\n  carrier_hz: 28.0e9\nchannel:\n  sigma2: 1e-3\n"
                    "run:\n  seed: 12345678901234567890\n  horizon: null\n")
    cfg = parse_config(path)
    assert cfg.seed == 12345678901234567890
    assert cfg.sigma2 == 1e-3
    assert cfg.array.wavelength == 299792458.0 / 28.0e9
    assert cfg.horizon == 400
