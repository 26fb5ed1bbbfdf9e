"""End-to-end subcommand tests: outputs, exit codes, determinism and the
blockage comparison, all on desk-scale horizons."""

import concurrent.futures
import importlib
import inspect
import json
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uiobeam import beamforming, errors
from uiobeam.cli import main
from uiobeam.config import (
    config_from_mapping,
    parse_config,
    require_compare_config,
    require_simulate_config,
)
from uiobeam.errors import ConfigError, NumericalError, ShapeError
from uiobeam.simulate import echo_blockage, run_compare, run_design, run_simulate, write_csv

# the package re-exports the function design(), which shadows the module name
cli_module = importlib.import_module("uiobeam.cli")
config_module = importlib.import_module("uiobeam.config")
design_module = importlib.import_module("uiobeam.design")
observer_module = importlib.import_module("uiobeam.observer")
simulate_module = importlib.import_module("uiobeam.simulate")


def write_yaml(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_design_defaults_three_records(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["design", "--out", str(out)]) == 0
    records = json.loads((out / "design_records.json").read_text())
    assert len(records) == 3
    for record, bound in zip(records, (np.sqrt(0.05), 0.5, 1.0)):
        assert record["certified"]
        assert record["gamma"] <= bound
        assert len(record["L_diag"]) == 8
    printed = capsys.readouterr().out
    assert printed.count("certified=True") == 3
    assert (out / "manifest.json").exists()


def test_design_single_mu(tmp_path):
    cfg = write_yaml(tmp_path, "observer:\n  mu_max: [0.25]\n")
    out = tmp_path / "out"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 0
    records = json.loads((out / "design_records.json").read_text())
    assert len(records) == 1


def test_design_infeasible_mu_exit_code(tmp_path):
    cfg = write_yaml(tmp_path, "observer:\n  mu_max: [1.0e-9]\n")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_unknown_key_exit_code(tmp_path):
    cfg = write_yaml(tmp_path, "observer:\n  mu_maxx: [0.25]\n")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_malformed_yaml_exits_1_naming_file_line_and_column(tmp_path, capsys, monkeypatch,
                                                           loader):
    # libyaml and the pure-Python parser word the problem differently; the
    # file is read once, by the configured loader, whose wording reaches the
    # user together with the file, line and column
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML is built without libyaml")
    text = "observer:\n  mu_max: [0.25\n"
    with pytest.raises(yaml.YAMLError) as excinfo:
        yaml.load(text, Loader=getattr(yaml, loader))
    monkeypatch.setattr(config_module, "_FAST_LOADER", getattr(yaml, loader))
    cfg = write_yaml(tmp_path, text)
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: invalid YAML at line 3, column 1: {excinfo.value.problem}\n")


@pytest.mark.parametrize("field, text", [
    ("array.m_ce", "array: {m_ce: 0}"),
    ("array.n_u", "array: {n_u: 0}"),
    ("array.n_u", "array: {n_u: 65}"),
    ("array.carrier_hz", "array: {carrier_hz: -299792458.0}"),
    ("array.spacing", "array: {spacing: -0.1}"),
    ("scenario.radii", "scenario: {radii: []}"),
    ("scenario.radii", "scenario: {radii: [1, -2]}"),
    ("scenario.perturbation_ratio", "scenario: {perturbation_ratio: -1}"),
    ("scenario.dt", "scenario: {dt: 0}"),
], ids=["m_ce-0", "n_u-0", "n_u-65", "wavelength", "spacing", "radii-empty", "radii-negative",
        "perturbation_ratio", "dt"])
def test_rules_of_the_scenario_and_array_classes_exit_1_naming_the_field(tmp_path, capsys,
                                                                         field, text):
    # UavScenario and ArrayConfig state these rules once; each rejection
    # reaches the user as "section.field ...", never as "array: antenna
    # counts must be positive" or "scenario: scenario needs at least one UAV"
    cfg = write_yaml(tmp_path, text + "\n")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")
    assert "Traceback" not in err


def test_non_utf8_config_exits_1_naming_file(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_bytes(b"observer:\n  mu_max: [0.25]\n# \xff\n")
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text (byte 0xff")
    assert "Traceback" not in err


def test_out_collides_with_file_exit_code(tmp_path):
    cfg = write_yaml(tmp_path, "observer:\n  mu_max: [0.25]\n")
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["design", "--config", cfg, "--out", str(blocker)]) == 3


def test_design_writes_before_it_prints(tmp_path, capsys):
    # the records are written first, so an --out that names a file fails
    # before any record is printed
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["design", "--out", str(blocker)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# The documented exit code of every exception class of uiobeam.errors, and of
# OSError; a new class must be added here with its code.
EXIT_CODES = {
    errors.UiobeamError: 1,
    errors.ShapeError: 1,
    errors.SingularMatrixError: 1,
    errors.InfeasibleError: 2,
    errors.BracketError: 2,
    errors.ConditioningError: 1,
    errors.DegenerateGeometryError: 1,
    errors.ConfigError: 1,
    errors.NumericalError: 4,
    OSError: 3,
}


def test_the_exit_code_table_covers_every_package_error():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__}
    assert classes == set(EXIT_CODES) - {OSError}


@pytest.mark.parametrize("exc_type", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_every_error_reaches_its_exit_code_as_one_line(tmp_path, capsys, monkeypatch, exc_type):
    def failing(cfg, out_dir):
        raise exc_type("runner failed")

    monkeypatch.setattr(cli_module, "run_sweep_dt", failing)
    assert main(["sweep-dt", "--out", str(tmp_path / "out")]) == EXIT_CODES[exc_type]
    captured = capsys.readouterr()
    assert captured.err == "error: runner failed\n"
    assert captured.out == ""


def simulate_config(tmp_path, horizon=60, extra=""):
    return write_yaml(
        tmp_path,
        f"observer:\n  mu_max: [0.05]\nrun:\n  horizon: {horizon}\n{extra}",
    )


def test_simulate_outputs_and_row_counts(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", simulate_config(tmp_path), "--out", str(out)]) == 0
    sub = out / "design_mu0.05"
    manifest = json.loads((out / "manifest.json").read_text())
    header, rows = read_csv(sub / "trajectories.csv")
    assert header == ["k", "t", "uav_id", "x_true", "y_true", "x_pred", "y_pred", "err_norm"]
    assert len(rows) == 60 * 4
    header, rows = read_csv(sub / "inputs.csv")
    assert header == ["k", "uav_id", "wx_true", "wy_true", "wx_est", "wy_est", "err_norm"]
    assert len(rows) == 60 * 4
    header, rows = read_csv(sub / "se.csv")
    assert header == ["k", "uav_id", "mode", "sinr_db", "se_bpshz"]
    assert len(rows) == 60 * 4
    assert {r[2] for r in rows} == {"uio"}
    for k in (0, 30, 59):
        header, rows = read_csv(sub / f"pattern_k{k}.csv")
        assert header == ["theta_deg", "beam_id", "gain_db"]
        assert len(rows) == 721 * 4
    for name, count in manifest["files"].items():
        assert count == len(read_csv(out / name)[1])


def test_simulate_outputs_do_not_depend_on_the_seed(tmp_path):
    # the channel carries the propagation phase of each range and simulate
    # draws no random number, so two seeds write the same bytes on the
    # 40-step golden config; only the manifest records the seed
    outputs = []
    for seed in (0, 7):
        cfg = write_yaml(tmp_path, "blockage:\n  windows: [[2.0, 4.0]]\nrun:\n  horizon: 40\n"
                         f"  seed: {seed}\n", name=f"seed{seed}.yaml")
        out = tmp_path / f"seed{seed}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed
        outputs.append(output_bytes(out))
    assert len(outputs[0]) == 1 + 3 * 6
    assert outputs[0] == outputs[1]


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = simulate_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    names = json.loads((out_a / "manifest.json").read_text())["files"]
    assert names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_unperturbed_exact_measurement_converges(tmp_path):
    # stationary fleet (omega 0), no perturbation, exact measurements, zero
    # observer init: the prediction converges to the truth
    cfg = write_yaml(
        tmp_path,
        "scenario:\n  omega: 0.0\n  perturbation_ratio: 0.0\n"
        "measurement:\n  d_scale: 0.0\n"
        "observer:\n  mu_max: [0.05]\n  init: zero\n"
        "run:\n  horizon: 80\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "design_mu0.05" / "trajectories.csv")
    late = [float(r[7]) for r in rows if int(r[0]) >= 60]
    assert max(late) < 1e-6


def test_simulate_default_designs_emit_three_track_sets(tmp_path):
    cfg = write_yaml(tmp_path, "run:\n  horizon: 30\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    for label in ("0.05", "0.25", "1"):
        assert (out / f"design_mu{label}" / "trajectories.csv").exists()


def test_sweep_dt_single_mu_single_row(tmp_path):
    cfg = write_yaml(tmp_path, "observer:\n  mu_max: [0.25]\n")
    out = tmp_path / "out"
    assert main(["sweep-dt", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep_dt.csv")
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(1.0, abs=5e-3)


def test_sweep_dt_ordering(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep-dt", "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep_dt.csv")
    crit = {float(r[0]): float(r[1]) for r in rows}
    assert crit[0.05] < crit[0.25] < crit[1.0]


def test_sweep_dt_entirely_feasible_bracket(tmp_path):
    cfg = write_yaml(
        tmp_path, "observer:\n  mu_max: [0.25]\nrun:\n  sweep_dt_high: 0.5\n"
    )
    assert main(["sweep-dt", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_sweep_dt_bracket_errors_state_the_feasible_interval(tmp_path, capsys):
    # at mu = 0.05 the feasible interval is [0.1127, 0.8873] s, so lowering a
    # 0.1 s low end cannot help; with H = 0 every dt is feasible
    cases = (
        ("scenario:\n  dt: 0.1\nobserver:\n  mu_max: [0.05]\n",
         "low end 0.1 s is already infeasible", "[0.1127, 0.8873] s"),
        ("observer:\n  mu_max: [0.05]\n  h_diag: 0.0\n",
         "high end 2 s is still feasible", "[0, inf] s"),
    )
    for text, phrase, interval in cases:
        cfg = write_yaml(tmp_path, text)
        assert main(["sweep-dt", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert phrase in err and f"feasible dt lies in {interval}" in err
        assert "lower it" not in err and "raise it" not in err


def test_sweep_dt_names_an_empty_feasible_interval(tmp_path, capsys):
    # a negative D puts every coordinate's feasible dt interval below zero
    cfg = write_yaml(tmp_path, "measurement: {d_scale: -1.0}\n")
    assert main(["sweep-dt", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "low end 0.15 s is already infeasible" in err and "no dt is feasible" in err
    assert "feasible dt lies in" not in err


def test_infeasible_design_names_the_binding_coordinate(tmp_path, capsys):
    cfg = write_yaml(
        tmp_path,
        "measurement:\n  d_diag: [0.5, 0.5, 0.7, 0.7, 0.3, 0.3, 0.5, 0.5]\n"
        "observer:\n  mu_max: 0.1\n",
    )
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "coordinate 2 (UAV 1) needs mu >= 0.115" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--horizon"])
def test_the_parser_rejects_a_run_setting_as_a_flag(capsys, flag):
    # the config file alone sets the run: every subcommand takes --config and
    # --out only, so no flag can make a run differ from what its file says
    for sub in ("design", "simulate", "sweep-dt", "compare-baseline"):
        with pytest.raises(SystemExit) as excinfo:
            main([sub, flag, "3"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_negative_seed_exits_1_naming_the_field(tmp_path, capsys):
    cfg = write_yaml(tmp_path, "run:\n  seed: -1\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run.seed must be non-negative")
    assert "Traceback" not in err


def test_malformed_values_exit_1_naming_the_field(tmp_path, capsys):
    for field, text in (
        ("run.seed", "run:\n  seed: .inf\n"),
        ("channel.noise_draws", "channel:\n  noise_draws: 1.5\n"),
        ("array.spacing", "array:\n  spacing: .inf\n"),
        ("blockage.windows", "blockage:\n  windows: 5\n"),
        ("scenario.center", "scenario:\n  center: [1, 2, 3]\n"),
        ("channel.target_snr_db", "channel:\n  target_snr_db: 5000\n"),
        ("observer.h_diag", "observer:\n  h_diag: 1.0e+300\n"),
        # d^2 overflowed into "needs mu >= nan" (design and sweep-dt, exit 2)
        ("measurement.d_scale", "measurement:\n  d_scale: 1.0e+300\n"),
        ("measurement.d_scale", "measurement:\n  d_scale: -1.0e+300\n"),
        ("measurement.d_diag", "measurement:\n  d_diag: [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, "
                               "1.0e+300]\n"),
    ):
        cfg = write_yaml(tmp_path, text)
        assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ")
        assert "Traceback" not in err
        assert "nan" not in err


def test_compare_requires_window(tmp_path):
    cfg = write_yaml(tmp_path, "observer:\n  mu_max: [0.05]\nrun:\n  horizon: 50\n")
    assert main(["compare-baseline", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_compare_window_gap_positive(tmp_path, capsys):
    cfg = write_yaml(
        tmp_path,
        "observer:\n  mu_max: [0.05]\n"
        "blockage:\n  windows: [[12.0, 15.0]]\n"
        "run:\n  horizon: 150\n",
    )
    out = tmp_path / "out"
    assert main(["compare-baseline", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "compare_summary.json").read_text())
    assert summary["window_se_gap"] > 0.0
    assert summary["blocked_steps"] == 20
    assert "gap=" in capsys.readouterr().out


def test_compare_full_horizon_window_gap_grows(tmp_path):
    cfg = config_from_mapping({
        "observer": {"mu_max": [0.05]},
        "blockage": {"windows": [[0.0, 30.0]]},
        "run": {"horizon": 200},
    })
    summary = run_compare(cfg, tmp_path / "out")
    assert summary["window_se_gap"] > 0.0
    header, rows = read_csv(tmp_path / "out" / "se_compare.csv")
    gaps = [float(r[3]) - float(r[4]) for r in rows]
    assert np.mean(gaps[150:]) > np.mean(gaps[:50])


def test_compare_paired_noise_equality_outside_windows(tmp_path):
    cfg = config_from_mapping({
        "observer": {"mu_max": [0.05]},
        "blockage": {"windows": [[12.0, 15.0]]},
        "run": {"horizon": 150},
    })
    run_compare(cfg, tmp_path / "out", force_uio_truth=True)
    _, rows = read_csv(tmp_path / "out" / "se_compare.csv")
    outside = [r for r in rows if r[2] == "0"]
    inside = [r for r in rows if r[2] == "1"]
    assert outside and inside
    for r in outside:
        assert abs(float(r[3]) - float(r[4])) <= 1e-9


def test_compare_uses_only_the_first_mu_bound(tmp_path):
    # compare-baseline solves the first bound alone: an infeasible later bound
    # neither ends the run nor changes its outputs
    outs = []
    for label, bounds in (("one", "[0.05]"), ("two", "[0.05, 1.0e-9]")):
        cfg = write_yaml(
            tmp_path,
            f"observer:\n  mu_max: {bounds}\n"
            "blockage:\n  windows: [[1.5, 3.0]]\n"
            "run:\n  horizon: 40\n",
            name=f"{label}.yaml",
        )
        outs.append(tmp_path / label)
        assert main(["compare-baseline", "--config", cfg, "--out", str(outs[-1])]) == 0
    for name in ("se_compare.csv", "compare_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_holds_few_steering_sized_stacks(tmp_path, traced_peak):
    # 16 UAVs on 1024 antennas, one step per link chunk: a 1024 x 16 stack is
    # 256 KiB. The echo precoder is built on a view of the channel steering,
    # used without a per-step copy and its hold dropped before a clear step's
    # build; each precoder writes F into the buffer of A*, is built before
    # the channel's stack is taken and keeps only the first N_U rows of its
    # steering, and the steering stream queues one stack beyond the one the
    # link takes (4.9 stacks traced)
    rng = np.random.default_rng(16)
    cfg = config_from_mapping({
        "scenario": {"n_uavs": 16, "radii": rng.uniform(100.0, 250.0, 16).tolist(),
                     "phases": rng.uniform(0.0, 2.0 * np.pi, 16).tolist()},
        "observer": {"mu_max": [0.05]},
        "array": {"m_ce": 1024},
        "blockage": {"windows": [[0.9, 1.5]]},
        "run": {"horizon": 16, "seed": 3},
    })
    stack = cfg.array.m_ce * cfg.scenario.n_uavs * 16
    # a first run imports and caches what every later run shares
    run_compare(cfg, tmp_path / "warm")
    assert traced_peak(lambda: run_compare(cfg, tmp_path / "out")) <= 5 * stack


def test_simulate_holds_few_steering_sized_stacks(tmp_path, traced_peak):
    # 16 UAVs on 4096 antennas: a 4096 x 16 stack is 1 MiB. The link keeps
    # only the first N_U rows of each precoder's steering; the step that
    # builds a snapshot's precoder steers the pattern grid on it, one block
    # at a time, and keeps nothing of it; the link's steering stream queues
    # one stack beyond the one it takes (4.39 stacks traced)
    rng = np.random.default_rng(16)
    cfg = config_from_mapping({
        "scenario": {"n_uavs": 16, "radii": rng.uniform(100.0, 250.0, 16).tolist(),
                     "phases": rng.uniform(0.0, 2.0 * np.pi, 16).tolist()},
        "observer": {"mu_max": [0.05]},
        "array": {"m_ce": 4096},
        "run": {"horizon": 16, "seed": 3},
    })
    stack = cfg.array.m_ce * cfg.scenario.n_uavs * 16
    # a first run imports and caches what every later run shares
    run_simulate(cfg, tmp_path / "warm")
    assert traced_peak(lambda: run_simulate(cfg, tmp_path / "out")) <= 4.5 * stack


def test_simulate_memory_does_not_grow_with_the_snapshot_count(tmp_path, traced_peak):
    # 4 UAVs on 32768 antennas: a 32768 x 4 stack is 2 MiB, and each link
    # step evaluates its snapshot's pattern on its own precoder and keeps
    # none, so 48 snapshot steps hold no more than three (a few bytes of file
    # bookkeeping aside)
    def config(horizon, snapshots):
        return config_from_mapping({
            "observer": {"mu_max": [0.05]},
            "array": {"m_ce": 32768},
            "run": {"horizon": horizon, "pattern_points": 1, "pattern_snapshots": snapshots},
        })

    stack = 32768 * 4 * 16
    run_simulate(config(2, [0]), tmp_path / "warm")
    few = traced_peak(lambda: run_simulate(config(48, [0, 24, 47]), tmp_path / "few"))
    many = traced_peak(lambda: run_simulate(config(48, list(range(48))), tmp_path / "many"))
    assert len(list((tmp_path / "many" / "design_mu0.05").glob("pattern_k*.csv"))) == 48
    assert many <= few + stack // 16


def test_compare_builds_each_steering_matrix_once(tmp_path, steering_shapes):
    # per step one true-angle build (the channel's, shared by both modes) and
    # one prediction-fed precoder; the echo-fed precoder is rebuilt only at a
    # step that is its own last unblocked step, so it reuses that step's
    # channel steering and adds no build
    cfg = config_from_mapping({
        "observer": {"mu_max": [0.05]},
        "blockage": {"windows": [[1.5, 3.0]]},
        "run": {"horizon": 40},
    })
    run_compare(cfg, tmp_path / "out")
    assert steering_shapes.matrices(cfg.array.m_ce) == 2 * cfg.horizon == 80
    # the receive steering is read from the first N_U rows, never built
    assert steering_shapes.matrices(cfg.array.n_u) == 0


def built_steps(monkeypatch):
    """The number of steps handed to each later `beamforming.safe_beamformer`
    call, in call order."""
    handed = []
    build = beamforming.safe_beamformer

    def counted(array, thetas, a=None):
        handed.append(len(thetas))
        return build(array, thetas, a=a)

    monkeypatch.setattr(beamforming, "safe_beamformer", counted)
    return handed


@pytest.mark.parametrize(
    "extra, distinct",
    [({}, 1), ({"measurement": {"d_scale": 0.7}, "observer": {"mu_max": [0.2, 1.0]}}, 2)],
    ids=["three-equal-designs", "two-distinct-designs"],
)
def test_simulate_builds_each_precoder_once_per_distinct_design(
    tmp_path, monkeypatch, steering_shapes, extra, distinct
):
    # per distinct design: one channel and one precoder build per step, and
    # one pattern grid per snapshot step, steered on the precoder the link
    # built for that step, which no later stage builds again
    handed = built_steps(monkeypatch)
    cfg = config_from_mapping({**extra, "run": {"horizon": 20, "pattern_points": 11}})
    manifest = run_simulate(cfg, tmp_path / "out")
    assert len(manifest["zf_fallback_steps"]) == len(cfg.mu_list)
    assert sum(handed) == cfg.horizon * distinct
    m_ce = cfg.array.m_ce
    snapshots = len(cfg.pattern_snapshots)
    assert snapshots == 3
    assert steering_shapes.matrices(m_ce, 11) == snapshots * distinct
    assert steering_shapes.matrices(m_ce, 4) == 2 * cfg.horizon * distinct
    assert steering_shapes.matrices(cfg.array.n_u) == 0


def test_runtime_certificate_is_per_coordinate(tmp_path, monkeypatch, definiteness_shapes):
    # the dense blocks are the test oracle only: no subcommand assembles them,
    # and every definiteness check runs on a stack of 3x3 or 2x2 blocks
    def dense_blocks(*args):
        raise AssertionError("assemble_lmi_blocks called at run time")

    monkeypatch.setattr(design_module, "assemble_lmi_blocks", dense_blocks)
    cfg = write_yaml(
        tmp_path,
        "measurement:\n  d_diag: [0.5, 0.5, 0.7, 0.7, 0.3, 0.3, 0.5, 0.5]\n"
        "observer:\n  mu_max: [0.2, 1.0]\n"
        "blockage:\n  windows: [[1.5, 3.0]]\n"
        "run:\n  horizon: 30\n",
    )
    for command in ("design", "simulate", "compare-baseline"):
        definiteness_shapes.clear()
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        # two designs for design/simulate, one for compare-baseline
        designs = 1 if command == "compare-baseline" else 2
        assert definiteness_shapes == [(8, 3, 3), (8, 2, 2)] * designs


def test_library_simulate_matches_cli(tmp_path):
    cfg = config_from_mapping({"observer": {"mu_max": [0.05]}, "run": {"horizon": 30}})
    manifest = run_simulate(cfg, tmp_path / "lib")
    assert manifest["files"]["design_mu0.05/trajectories.csv"] == 30 * 4


def link_config(tmp_path, n_uavs, m_ce, n_u=4):
    """Short simulate/compare config for a fleet of n_uavs evenly phased UAVs."""
    return write_yaml(tmp_path, json.dumps({
        "scenario": {"radii": np.linspace(100.0, 250.0, n_uavs).tolist()},
        "array": {"m_ce": m_ce, "n_u": n_u},
        "observer": {"mu_max": [0.05]},
        "blockage": {"windows": [[0.0, 0.6]]},
        "run": {"horizon": 8, "pattern_points": 11},
    }))


def test_singular_gram_falls_back_to_ridge(tmp_path):
    # 64 UAVs on a 128-element array: every sine gap passes the strict check,
    # yet at step 3 the Gram matrix is numerically singular. The precoder
    # falls back to the ridge build instead of ending the run with exit 1.
    cfg = link_config(tmp_path, 64, 128)
    for sub in ("simulate", "compare-baseline"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
    _, rows = read_csv(tmp_path / "simulate" / "design_mu0.05" / "se.csv")
    assert len(rows) == 64 * 8
    assert all(np.isfinite(float(r[4])) for r in rows)


def output_bytes(out):
    """Every output file under ``out`` except the manifest (it holds the
    wall-clock), by relative path."""
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def steering_helpers():
    return [t for t in threading.enumerate() if t.name.startswith("uiobeam-steering")]


def test_steering_helper_leaves_every_output_byte_unchanged(tmp_path, monkeypatch):
    # 16 UAVs on 1024 elements reach the matrix size at which the link loops
    # fill the next step's steering on a helper thread; a gate above that size
    # fills every stack inline
    cfg = link_config(tmp_path, 16, 1024)
    started = []
    submitted = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, fn, *args, **kwargs):
            # a task reads its part's views from the stack's list of parts,
            # which the caller empties once it has taken the stack
            parts, p = args
            submitted.append((fn, parts[p]))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    outputs = []
    for helper, gate in ((False, 16 * 1024 + 1), (True, beamforming.LOOKAHEAD_MIN_ENTRIES)):
        monkeypatch.setattr(beamforming, "LOOKAHEAD_MIN_ENTRIES", gate)
        started.clear()
        out = tmp_path / f"helper{helper}"
        for sub in ("simulate", "compare-baseline"):
            assert main([sub, "--config", cfg, "--out", str(out / sub)]) == 0
        # one stream per link loop: simulate's single design and compare's
        assert len(started) == (2 if helper else 0)
        outputs.append(output_bytes(out))
    assert len(outputs[0]) == 9
    assert outputs[0] == outputs[1]
    # the helper runs the in-place sin/cos fill of one part of a stack and
    # nothing else (no BLAS call, no RNG draw, no allocation): each task gets
    # the real and imaginary views of a part of a stack the caller allocated.
    # Each link runs 8 one-step chunks of two stacks, and simulate's link
    # also the one 11-row grid block of each of its 3 pattern snapshots,
    # each stack in LOOKAHEAD_PARTS parts
    assert {fn for fn, _ in submitted} == {beamforming._fill_part}
    assert all(len(views) == 2 and all(a.dtype == float and not a.flags.owndata for a in views)
               for _, views in submitted)
    assert len(submitted) == (2 * 2 * 8 + 3) * beamforming.LOOKAHEAD_PARTS
    assert not steering_helpers()


def test_the_steering_helper_runs_by_the_link_step_matrix_alone(tmp_path, monkeypatch):
    # the reference fleet's 64 x 4 link steps fill their steering inline,
    # although the stream also carries simulate's pattern grid as one
    # 64 x 721 block, above the helper's gate (a helper started by the
    # largest matrix in the stream made ref-long's simulate 10-14% slower);
    # 16 UAVs on 1024 elements still start one helper per link
    prefixes = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            prefixes.append(kwargs.get("thread_name_prefix"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    reference = parse_config(None)
    assert (reference.array.m_ce * reference.scenario.n_uavs < beamforming.LOOKAHEAD_MIN_ENTRIES
            <= reference.array.m_ce * reference.pattern_points)
    run_simulate(reference, tmp_path / "reference")
    assert "uiobeam-steering" not in prefixes
    cfg = link_config(tmp_path, 16, 1024)
    for sub in ("simulate", "compare-baseline"):
        prefixes.clear()
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        assert prefixes.count("uiobeam-steering") == 1


def test_degenerate_geometry_mid_loop_exits_1_and_stops_the_helper(
    tmp_path, monkeypatch, capsys
):
    # UAV 0 sits on the central UAV at step 5, while the helper holds the
    # steering of later steps: the channel's error ends the run with its exit
    # code, and the stream cancels or finishes its blocks instead of hanging
    cfg = link_config(tmp_path, 16, 1024)
    track = observer_module.track

    def coincident(*args, **kwargs):
        run = track(*args, **kwargs)
        run["X"][5, :2] = 0.0  # the default center
        return run

    monkeypatch.setattr(observer_module, "track", coincident)
    for sub in ("simulate", "compare-baseline"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 1
        assert "coincides with the central UAV" in capsys.readouterr().err
        assert not steering_helpers()


class StepFailure(Exception):
    pass


@pytest.mark.parametrize("run, name, calls_per_chunk", [
    (run_simulate, "link_report", 1),
    (run_compare, "empirical_link_se", 2),
], ids=["simulate", "compare-baseline"])
def test_a_failing_link_step_reaches_the_caller_and_stops_the_helper(
    tmp_path, monkeypatch, run, name, calls_per_chunk
):
    # 16 UAVs on 512 elements: 8192 entries per step start the helper, and
    # each chunk holds one step; the step of the second chunk raises while
    # the helper holds the steering of later chunks
    cfg = parse_config(link_config(tmp_path, 16, 512))
    error = StepFailure("the second chunk's step fails")
    evaluate = getattr(beamforming, name)
    helpers_seen = []

    def failing(*args, **kwargs):
        helpers_seen.append(bool(steering_helpers()))
        if len(helpers_seen) > calls_per_chunk:
            raise error
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(beamforming, name, failing)
    with pytest.raises(StepFailure) as raised:
        run(cfg, tmp_path / "out")
    assert raised.value is error
    assert len(helpers_seen) == calls_per_chunk + 1 and all(helpers_seen)
    assert not steering_helpers()


def test_manifests_list_zero_forcing_fallback_steps(tmp_path):
    # the singular-Gram fleet falls back on some steps of every link; the
    # reference fleet's predicted angles never collide
    cfg = link_config(tmp_path, 64, 128)
    for sub in ("simulate", "compare-baseline"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
    simulated, compared = (
        json.loads((tmp_path / sub / "manifest.json").read_text())["zf_fallback_steps"]
        for sub in ("simulate", "compare-baseline")
    )
    assert list(simulated) == ["design_mu0.05"]
    assert sorted(compared) == ["echo_baseline", "uio"]
    for listed in [*simulated.values(), *compared.values()]:
        assert listed and set(listed) <= set(range(8))
    out = tmp_path / "reference"
    assert main(["simulate", "--out", str(out)]) == 0
    reference = json.loads((out / "manifest.json").read_text())["zf_fallback_steps"]
    assert reference == {f"design_mu{mu}": [] for mu in ("0.05", "0.25", "1")}


def test_more_uavs_than_antennas_fails_validation(tmp_path, capsys):
    # 8 UAVs on 4 antennas cannot be zero-forced: the link subcommands reject
    # the config naming the field, while design never builds a precoder
    cfg = link_config(tmp_path, 8, 4, n_u=2)
    for sub in ("simulate", "compare-baseline"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 1
        assert "array.m_ce" in capsys.readouterr().err
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "design")]) == 0


def test_per_uav_dt_fails_validation_for_link_subcommands(tmp_path, capsys):
    # the time column, the blockage windows and the echo hold run on one
    # clock, so the link subcommands reject per-UAV intervals naming the
    # field, while design keeps them
    cfg = write_yaml(tmp_path, json.dumps({
        "scenario": {"dt": [0.15, 0.2, 0.15, 0.15]},
        "observer": {"mu_max": [0.05]},
        "blockage": {"windows": [[0.0, 0.6]]},
        "run": {"horizon": 8, "pattern_points": 11},
    }))
    for sub in ("simulate", "compare-baseline"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 1
        assert "scenario.dt" in capsys.readouterr().err
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "design")]) == 0


def test_write_csv_matches_per_value_formatting(tmp_path):
    # one template per file writes what per-value formatting wrote: ints and
    # booleans as integers, floats with format(x, '.17g'), text as is (nan
    # and inf are refused, see test_finite_gate_of_the_writers)
    floats = np.array([0.1, -0.0, 1.0 / 3.0, 1e-300, 123456789012345678.0, 2.5e16,
                       -7.0, np.pi, 5e-324, -1.7976931348623157e308, 1e22])
    ints = np.arange(floats.size) - 3
    flags = ints % 2 == 0
    text = np.full(floats.size, "uio")
    path = tmp_path / "t.csv"
    assert write_csv(path, ["i", "f", "b", "s"], [ints, floats, flags, text]) == floats.size
    expected = ["i,f,b,s"] + [
        f"{int(i)},{format(float(f), '.17g')},{'1' if b else '0'},{s}"
        for i, f, b, s in zip(ints, floats, flags, text)
    ]
    assert path.read_text().split("\n") == expected + [""]
    with pytest.raises(ShapeError):
        write_csv(path, ["i", "f"], [ints, floats[:-1]])


def csv_table(rows):
    """The columns of a pattern file of ``rows`` rows: theta, beam id, gain."""
    rng = np.random.default_rng(11)
    return [np.repeat(np.linspace(-89.75, 89.75, -(-rows // 64)), 64)[:rows],
            np.tile(np.arange(64), -(-rows // 64))[:rows], rng.standard_normal(rows) * 40.0]


def test_write_csv_blocks_write_the_same_bytes(tmp_path, monkeypatch):
    rows = simulate_module.CSV_BLOCK_ROWS + 5
    columns = csv_table(rows) + [np.arange(rows) % 3 == 0, np.full(rows, "uio")]
    header = ["theta_deg", "beam_id", "gain_db", "flag", "mode"]
    expected = tmp_path / "default.csv"
    assert write_csv(expected, header, columns) == rows
    for block_rows in (1, 2, 3):
        monkeypatch.setattr(simulate_module, "CSV_BLOCK_ROWS", block_rows)
        path = tmp_path / f"block{block_rows}.csv"
        assert write_csv(path, header, columns) == rows
        assert path.read_bytes() == expected.read_bytes()
    text = expected.read_text().split("\n")
    assert len(text) == rows + 2 and text[-1] == ""
    assert text[-2] == ",".join(
        [format(float(columns[0][-1]), ".17g"), str(columns[1][-1]),
         format(float(columns[2][-1]), ".17g"), str(int(columns[3][-1])), "uio"])


def test_write_csv_reports_a_bad_value_of_a_later_block_at_its_file_row(tmp_path):
    rows = 2 * simulate_module.CSV_BLOCK_ROWS + 10
    columns = csv_table(rows)
    bad = simulate_module.CSV_BLOCK_ROWS + 7
    columns[2][bad] = np.nan
    path = tmp_path / "pattern.csv"
    with pytest.raises(NumericalError, match=rf"column gain_db is nan at row {bad} "):
        write_csv(path, ["theta_deg", "beam_id", "gain_db"], columns)
    assert not path.exists()


def per_row_csv(path, header, columns):
    """The writer that formatted one ``template % row`` per row, kept as the
    oracle of write_csv's block formatting."""
    columns = [np.ravel(c) for c in columns]
    template = ",".join({"b": "%d", "i": "%d", "f": "%.17g"}.get(c.dtype.kind, "%s")
                        for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % row for row in zip(*(c.tolist() for c in columns)))


# zeros of both signs, subnormals, the smallest normal and the largest finite
# magnitudes next to ordinary values
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0 / 3.0, -2.5, 0.1, 1e22, 123456789012345678.0]
BLOCK = simulate_module.CSV_BLOCK_ROWS


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rows=st.sampled_from([1, 2, 3, 17, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK]),
    kinds=st.lists(st.sampled_from(["runs", "distinct", "tiled", "int", "bool", "uio"]),
                   min_size=1, max_size=6),
    run=st.sampled_from([1, 2, 4, 64, 4 * BLOCK]),
    bad=st.sampled_from([None, None, None, np.nan, 1.8e308, -1.8e308]),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_writes_the_bytes_of_per_row_formatting(rows, kinds, run, bad, seed):
    # float columns of repeated runs (each starting with a run of 0.0 and
    # one of -0.0), of mostly distinct and of tiled values, drawn from
    # EDGE_FLOATS and values of any exponent, next to int, bool and text
    # columns, on both sides of the block size. A nan or an overflow to inf
    # (1.8e308) writes nothing
    rng = np.random.default_rng(seed)

    def spread(count):
        return rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)

    pool = np.concatenate([EDGE_FLOATS, spread(16)])
    makers = {
        "runs": lambda: np.repeat(np.concatenate([[0.0, -0.0], rng.choice(pool, rows)]),
                                  run)[:rows],
        "distinct": lambda: np.where(rng.random(rows) < 0.2, rng.choice(pool, rows), spread(rows)),
        "tiled": lambda: np.tile(rng.choice(pool, 5), rows)[:rows],
        "int": lambda: rng.integers(-2**62, 2**62, rows),
        "bool": lambda: rng.random(rows) < 0.5,
        "uio": lambda: np.full(rows, "uio"),
    }
    if bad is not None and "runs" not in kinds:
        kinds = [*kinds, "runs"]
    columns = [makers[kind]() for kind in kinds]
    header = [f"{kind}{i}" for i, kind in enumerate(kinds)]
    with tempfile.TemporaryDirectory() as tmp:
        path, oracle = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        if bad is None:
            per_row_csv(oracle, header, columns)
            assert write_csv(path, header, columns) == rows
            assert path.read_bytes() == oracle.read_bytes()
        else:
            columns[kinds.index("runs")][rng.integers(rows)] = bad
            with pytest.raises(NumericalError):
                write_csv(path, header, columns)
            assert not path.exists()


def test_write_csv_memory_stays_within_a_block(traced_peak, tmp_path):
    # a 64-UAV pattern file: 721 grid points x 64 beams; converting whole
    # columns to Python lists peaked at 3.2 MiB
    columns = csv_table(721 * 64)
    path = tmp_path / "pattern.csv"
    peak = traced_peak(lambda: write_csv(path, ["theta_deg", "beam_id", "gain_db"], columns))
    assert peak < 2**20


# 48 steps of the reference fleet, whose link chunks hold 16 steps by default
# (4 UAVs, max(M_CE, noise_draws) = 64): pattern snapshots on both sides of
# each chunk edge and one (step 20) inside a chunk; the echo is blocked from
# the start (steps 0-1), held from step 9 across the edge at 16 (blocked
# 10-18) and rebuilt on the edge at 32 (blocked 25-31). compare-baseline's chunks also end where a step stops or
# starts being its own echo source: at 1, 2, 10, 19, 25 and 32
CHUNK_EDGE_CONFIG = {
    "observer": {"mu_max": [0.05]},
    "blockage": {"windows": [[0.0, 0.3], [1.5, 2.7], [3.6, 4.8]]},
    "run": {"horizon": 48, "pattern_snapshots": [0, 15, 16, 20, 31, 32, 47],
            "pattern_points": 11},
}


def test_link_outputs_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    cfg = config_from_mapping(CHUNK_EDGE_CONFIG)
    _, last_clear = echo_blockage(cfg.windows, 0.15, cfg.horizon)
    assert last_clear[16] == 9 and last_clear[32] == 32
    path = write_yaml(tmp_path, json.dumps(CHUNK_EDGE_CONFIG))
    # the first step of every chunk the engine hands to a link's step
    starts = []
    engine = simulate_module._link_chunks

    def recorded(cfg, run, angles, step, breaks, grid_blocks=()):
        def recorded_step(k0, *args):
            starts.append(k0)
            step(k0, *args)

        engine(cfg, run, angles, recorded_step, breaks, grid_blocks)

    monkeypatch.setattr(simulate_module, "_link_chunks", recorded)
    outputs = []
    # one step per chunk, the default, and the whole horizon in one chunk:
    # the chunk starts of simulate, then those of compare-baseline
    for entries, chunk_starts in (
            (1, (list(range(48)), list(range(48)))),
            (simulate_module.LINK_CHUNK_ENTRIES, ([0, 16, 32], [0, 1, 2, 10, 16, 19, 25, 32])),
            (2**30, ([0], [0, 1, 2, 10, 19, 25, 32]))):
        monkeypatch.setattr(simulate_module, "LINK_CHUNK_ENTRIES", entries)
        out = tmp_path / f"entries{entries}"
        for sub, sub_starts in zip(("simulate", "compare-baseline"), chunk_starts):
            starts.clear()
            assert main([sub, "--config", path, "--out", str(out / sub)]) == 0
            assert starts == sub_starts
        outputs.append(output_bytes(out))
    assert len(outputs[0]) == 13
    assert outputs[0] == outputs[1] == outputs[2]


def test_compare_builds_echo_precoders_only_for_their_own_source_steps(tmp_path, monkeypatch):
    # the prediction-fed link builds every step once; the echo-fed link builds
    # only the steps that are their own echo source (last_clear[k] == k) and
    # holds the rest, blocked step 1 included, though it shares a default
    # chunk with unblocked steps
    cfg = config_from_mapping(CHUNK_EDGE_CONFIG)
    _, last_clear = echo_blockage(cfg.windows, 0.15, cfg.horizon)
    own = int(np.sum(last_clear == np.arange(cfg.horizon)))
    assert own == 31
    handed = built_steps(monkeypatch)
    run_compare(cfg, tmp_path / "out")
    assert sum(handed) == cfg.horizon + own


def _window_sets(horizon):
    """Blockage window sets of the steps ``horizon`` holds: consecutive
    intervals between sorted cut steps, each a window or not, so a set may
    hold a window from t = 0, adjacent windows and windows of one step. A
    window's edges lie half a step off the steps it holds."""
    cuts = st.lists(st.integers(0, horizon), min_size=2, max_size=7, unique=True).map(sorted)

    def windows(cuts, chosen):
        spans = [span for span, keep in zip(zip(cuts, cuts[1:]), chosen) if keep]
        return [[max(0.0, (a - 0.5) * 0.15), (b - 0.5) * 0.15]
                for a, b in spans or [cuts[:2]]]

    return st.builds(windows, cuts, st.lists(st.booleans(), min_size=6, max_size=6))


@settings(max_examples=25, deadline=None)
@given(windows=_window_sets(40))
@example(windows=[[0.0, 0.225], [0.225, 0.375], [1.425, 4.425], [4.875, 5.175]])
def test_compare_outputs_do_not_depend_on_the_chunk_size_for_any_windows(windows):
    # 40 steps of the reference fleet: chunks of one step, the default 16 and
    # the whole horizon give the same bytes wherever the echo is held
    cfg = config_from_mapping({"observer": {"mu_max": [0.05]},
                               "blockage": {"windows": windows}, "run": {"horizon": 40}})
    outputs = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for entries in (1, simulate_module.LINK_CHUNK_ENTRIES, 2**30):
            patch.setattr(simulate_module, "LINK_CHUNK_ENTRIES", entries)
            out = Path(tmp) / f"entries{entries}"
            run_compare(cfg, out)
            outputs.append(output_bytes(out))
    assert sorted(outputs[0]) == ["compare_summary.json", "se_compare.csv"]
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_design_searches_one_certificate_per_distinct_level(monkeypatch):
    # the three reference bounds share mu* = MU_BRACKET[0], so one search
    # certifies all three records, each equal to its own design() call
    searches = []
    search = design_module._certificate_search

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(design_module, "_certificate_search", counted)
    cfg = config_from_mapping({"observer": {"mu_max": [0.05, 0.25, 1.0]}})
    records, designs = run_design(cfg)
    assert len(searches) == 1
    assert len(records) == len(designs) == 3
    for mu_max, record, (solution, gains) in zip(cfg.mu_list, records, designs):
        own_solution, own_gains = design_module.design(simulate_module.design_problem(cfg, mu_max))
        assert record["mu"] == own_solution.mu == solution.mu
        assert record["L_diag"] == own_gains.l.tolist() == gains.l.tolist()
        np.testing.assert_array_equal(solution.p, own_solution.p)


@pytest.mark.parametrize("field, text", [
    ("array.carrier_hz 1e+308 Hz", "array:\n  carrier_hz: 1.0e308\n"),
    ("channel.snr_ref_range 1e-300 m", "channel:\n  snr_ref_range: 1.0e-300\n"),
])
def test_noise_power_error_names_every_input_it_comes_from(tmp_path, capsys, field, text):
    # the field the file sets comes first, then the other inputs with their values
    cfg = write_yaml(tmp_path, text)
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}, ")
    for named in ("channel.target_snr_db 10 dB", "channel.snr_ref_range ",
                  "channel.total_power 1", "array."):
        assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("h_diag", ["1.0e+150", "1.3e+154"])
def test_huge_output_matrix_fails_validation(tmp_path, capsys, h_diag):
    # the certificate search's p grid reaches 1e6 * h^2 / 1e-6, which
    # overflows from about h = 1e149 on; 1.3e154 still has a finite square
    cfg = write_yaml(tmp_path, f"observer:\n  h_diag: {h_diag}\n")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: observer.h_diag ")
    assert "Traceback" not in err


@pytest.mark.xfail(strict=True, reason=(
    "design puts p on M2's singular edge, p = h^2/mu, so rounding decides the "
    "dense verdict: the dense lambda_min(M2) is -1.6e-9 at h = 10 and 0 at h = 20, "
    "where both verdicts agree, and -6.0e-8 at h = 30, -4.6e-8 at h = 50 and "
    "-7.8e-7 at h = 100, where the dense oracle rejects what the per-coordinate "
    "certificate accepts; they also disagree at every even decade from 1e2 to "
    "1e148. The fix is a p inside the window, not on its h^2/mu edge (ROADMAP "
    "item 2, closed-form design)"))
def test_largest_accepted_output_matrix_designs_a_certificate_the_oracle_accepts(tmp_path):
    cfg = write_yaml(tmp_path, "observer:\n  h_diag: 1.0e+148\n")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    cfg = config_from_mapping({"observer": {"h_diag": 1.0e148}})
    prob = simulate_module.design_problem(cfg, cfg.mu_list[0])
    solution, _ = design_module.design(prob)
    assert solution.certified
    assert design_module.feasible(prob, np.diag(solution.p), np.diag(solution.z), solution.mu)


def test_non_finite_output_exits_4_and_writes_no_partial_file(tmp_path, capsys, monkeypatch):
    # a prediction that overflowed: the tracking errors are not finite, so
    # simulate stops at the first CSV and leaves no file behind (the
    # validator rejects the configs that overflowed so, see
    # test_positions_beyond_the_headroom_fail_validation_for_link_subcommands)
    cfg = write_yaml(tmp_path, json.dumps({"run": {"horizon": 6}}))
    track = observer_module.track

    def overflowed(*args, **kwargs):
        run = track(*args, **kwargs)
        run["XHAT"][2, 0] = np.inf
        return run

    monkeypatch.setattr(observer_module, "track", overflowed)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trajectories.csv" in err and "column " in err
    assert "Traceback" not in err
    assert not list(out.rglob("*.csv"))


def link_validation_exits(tmp_path, capsys, cfg, starts, *named):
    """simulate and compare-baseline exit 1 with a message that starts with
    ``starts`` and holds each of ``named``, print no traceback and write
    nothing; design and sweep-dt, which build no link, exit 0."""
    for sub in ("simulate", "compare-baseline"):
        out = tmp_path / sub
        assert main([sub, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {starts}")
        assert all(text in err for text in named)
        assert "Traceback" not in err
        assert not out.exists()
    for sub in ("design", "sweep-dt"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0


@pytest.mark.parametrize("scenario, named", [
    ({"radii": 1.0e300}, "scenario.radii up to 1e+300,"),
    ({"omega": 1.0e300}, "scenario.omega 1e+300,"),
    ({"perturbation_ratio": 1.0e300}, "scenario.perturbation_ratio 1e+300 "),
    ({"center": [1.0e300, 0.0]}, "scenario.center [1e+300, 0.0],"),
], ids=["radii", "omega", "perturbation_ratio", "center"])
def test_positions_beyond_the_headroom_fail_validation_for_link_subcommands(
    tmp_path, capsys, scenario, named
):
    # positions that may reach 1e300 m overflowed the link (exit 4) or lost
    # the orbit to cancellation ("UAV coincides with the central UAV"); the
    # link subcommands now reject them naming the fields of the bound, while
    # design and sweep-dt roll out no positions and keep them
    cfg = write_yaml(tmp_path, json.dumps({
        "scenario": scenario,
        "blockage": {"windows": [[0.3, 0.6]]},
        "run": {"horizon": 6},
    }))
    link_validation_exits(tmp_path, capsys, cfg, "scenario.center ",
                          named, "run.horizon 6", "1e+150 m")


@pytest.mark.parametrize("horizon", [10**14, 10**310], ids=["1e14", "311-digit"])
def test_a_horizon_too_long_to_roll_out_fails_validation_for_link_subcommands(
    tmp_path, capsys, horizon
):
    # 1e14 steps would take 728 TiB for scenario_inputs alone, and a horizon
    # past the float range has no float end time; the link subcommands reject
    # the rollout before allocating it, and design and sweep-dt never roll out
    cfg = write_yaml(tmp_path, json.dumps({
        "blockage": {"windows": [[0.3, 0.6]]},
        "run": {"horizon": horizon},
    }))
    link_validation_exits(tmp_path, capsys, cfg, f"run.horizon {horizon} ",
                          "scenario.n_uavs 4", "(step, UAV) pairs")


@pytest.mark.parametrize("mapping, starts", [
    ({"array": {"carrier_hz": 1.0e-300}},
     "channel.total_power 1, array.carrier_hz (a wavelength of inf m) "),
    ({"array": {"carrier_hz": 299792458.0 / 1.0e300}},
     "channel.total_power 1, array.carrier_hz (a wavelength of 1e+300 m) "),
    ({"array": {"carrier_hz": 0.0299792458}, "channel": {"total_power": 1.0e300}},
     "channel.total_power 1e+300, array.carrier_hz (a wavelength of 1e+10 m) "),
    ({"array": {"carrier_hz": 2.5112e-145}, "channel": {"total_power": 1.0e10}},
     "channel.total_power 1e+10, array.carrier_hz (a wavelength of 1.19382e+153 m) "),
], ids=["carrier_hz", "wavelength", "power", "gain"])
def test_a_wavelength_beyond_the_gain_headroom_fails_validation_for_link_subcommands(
    tmp_path, capsys, mapping, starts
):
    # with channel.sigma2 set no derived noise power checks the wavelength:
    # a carrier of 1e-300 Hz (lambda inf) and one giving lambda 1e300 m made
    # every link gain nan, exit 4 after the tracking CSVs were written. The
    # transmit power scales each coefficient by its square root, so a gain
    # inside 1e150 overflowed too: a power of 1e300 at gain 8.0e6, and 1e10 at
    # gain 9.50e149 in compare-baseline. The link subcommands now reject the
    # received power, while design and sweep-dt never read the wavelength
    channel = {"sigma2": 1.0e-9, **mapping.get("channel", {})}
    cfg = write_yaml(tmp_path, json.dumps({
        **mapping, "channel": channel,
        "blockage": {"windows": [[0.3, 0.6]]},
        "run": {"horizon": 6},
    }))
    link_validation_exits(tmp_path, capsys, cfg, starts, "scenario.radii down to 100 m",
                          "received power of inf, not below 1e+300")


def test_a_received_power_just_inside_the_headroom_runs_to_finite_outputs(tmp_path):
    # power 1e10 at gain 9.49e144 receives 9.0e299, just below 1e300; both link
    # subcommands run without a floating-point warning and write finite rows
    gain = 9.49e144
    cfg = write_yaml(tmp_path, json.dumps({
        "channel": {"sigma2": 1.0e-9, "total_power": 1.0e10},
        "array": {"carrier_hz": 299792458.0 / (gain * 4.0 * np.pi * 100.0)},
        "blockage": {"windows": [[0.3, 0.6]]},
        "run": {"horizon": 6},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sub in ("simulate", "compare-baseline"):
            assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
    csvs = list(tmp_path.rglob("*.csv"))
    assert len(csvs) == 1 + 3 * 6
    for path in csvs:
        text = path.read_text()
        assert text.count("\n") > 1 and "nan" not in text and "inf" not in text


def test_a_center_that_swamps_the_radii_fails_validation_for_link_subcommands(
    tmp_path, capsys
):
    # with |center| 2^-52 above every radius, positions - center cancels to
    # zero and the link would see every UAV on the central one
    cfg = write_yaml(tmp_path, json.dumps({
        "scenario": {"center": [1.0e149, 0.0]},
        "blockage": {"windows": [[0.3, 0.6]]},
        "run": {"horizon": 6},
    }))
    link_validation_exits(tmp_path, capsys, cfg, "scenario.center [1e+149, 0.0] ",
                          "scenario.radii down to 100")
    # a center the radii still resolve runs
    cfg = write_yaml(tmp_path, json.dumps({
        "scenario": {"center": [1.0e9, 0.0]},
        "blockage": {"windows": [[0.3, 0.6]]},
        "run": {"horizon": 6},
    }))
    assert main(["compare-baseline", "--config", cfg, "--out", str(tmp_path / "near")]) == 0


@pytest.mark.parametrize("mapping, subcommand, starts, runs", [
    ({"array": {"m_ce": 10**11}}, "simulate",
     "array.m_ce 100000000000 and scenario.n_uavs 4 ", ()),
    ({"array": {"m_ce": 10**11}}, "compare-baseline", "array.m_ce 100000000000 ", ()),
    ({"array": {"m_ce": 10**40}}, "simulate", f"array.m_ce {10**40} and scenario.n_uavs 4 ", ()),
    ({"run": {"pattern_points": 10**11}}, "simulate",
     "run.pattern_points 100000000000 and scenario.n_uavs 4 ", ("compare-baseline",)),
    ({"channel": {"noise_draws": 10**11}}, "compare-baseline",
     "channel.noise_draws 100000000000 and scenario.n_uavs 4 ", ("simulate",)),
], ids=["m_ce-simulate", "m_ce-compare", "m_ce-1e40", "pattern_points", "noise_draws"])
def test_an_array_too_large_to_allocate_fails_validation_before_anything_is_written(
    tmp_path, capsys, mapping, subcommand, starts, runs
):
    # one step's steering (5.82 TiB at m_ce 1e11), a pattern grid of 1e11
    # points and 1e11 noise draws per step escaped as numpy memory errors,
    # after the tracking CSVs were written; the subcommand that would
    # allocate the array now rejects it first, and those that allocate no
    # such array (design, sweep-dt and ``runs``) still run
    cfg = write_yaml(tmp_path, json.dumps({**mapping, "blockage": {"windows": [[0.3, 0.6]]},
                                           "run": {**mapping.get("run", {}), "horizon": 4}}))
    out = tmp_path / subcommand
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {starts}") and "allowed" in err
    assert "Traceback" not in err
    assert not out.exists()
    for sub in ("design", "sweep-dt", *runs):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0


# two bounds that differ below six significant digits got one label: both
# designs (mu* 0.115004289 and 0.115004344) wrote design_mu0.2/, the second
# over the first, and simulate exited 0 with one directory in its manifest
LABEL_COLLISION = {"scenario": {"radii": [100.0, 150.0]},
                   "measurement": {"d_diag": [0.5, 0.5, 0.7, 0.7]},
                   "observer": {"mu_max": [0.2000001, 0.2000002]}}


def test_two_bounds_sharing_a_label_fail_validation_for_simulate(tmp_path, capsys):
    cfg = write_yaml(tmp_path, json.dumps({
        **LABEL_COLLISION, "blockage": {"windows": [[0.3, 0.6]]}, "run": {"horizon": 6},
    }))
    out = tmp_path / "simulate"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: observer.mu_max entries 0.2000001 and 0.2000002 share "
                          "the label 0.2, ")
    assert "Traceback" not in err
    assert not out.exists()
    # the other subcommands write no directory per bound
    for sub in ("design", "sweep-dt", "compare-baseline"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
    # an exact duplicate is one design in one directory
    cfg = write_yaml(tmp_path, json.dumps({"observer": {"mu_max": [0.05, 0.05]},
                                           "run": {"horizon": 6}}), name="twice.yaml")
    out = tmp_path / "twice"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["design_mu0.05"]


def test_a_radius_below_the_azimuth_floor_fails_validation_for_link_subcommands(
    tmp_path, capsys
):
    # a UAV that starts within beamforming.MIN_RANGE of the center has no
    # azimuth: simulate exited 1 with "UAV coincides with the central UAV",
    # naming no field, after creating its design directory
    cfg = write_yaml(tmp_path, json.dumps({
        "scenario": {"radii": 1.0e-300},
        "blockage": {"windows": [[0.0, 0.15]]},
        "run": {"horizon": 1},
    }))
    link_validation_exits(tmp_path, capsys, cfg, "scenario.radii down to 1e-300 m ",
                          "1e-12 m of the center")


def test_explicit_even_phases_give_the_default_run(tmp_path):
    # phases 2 pi i / N are evenly_phased's, so the explicit-phases branch of
    # config_from_mapping builds the default scenario: the same config hash
    # and the same simulate bytes; a list of the wrong length names the field
    phases = (2.0 * np.pi * np.arange(4) / 4).tolist()
    outs = []
    for name, mapping in (("default", {}), ("explicit", {"scenario": {"phases": phases}})):
        cfg = write_yaml(tmp_path, json.dumps({**mapping, "run": {"horizon": 6}}),
                         name=f"{name}.yaml")
        outs.append(tmp_path / name)
        assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
    default, explicit = (json.loads((out / "manifest.json").read_text()) for out in outs)
    assert default["config_hash"] == explicit["config_hash"]
    assert default["files"] == explicit["files"]
    for name in [*default["files"], "design_records.json"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    with pytest.raises(ConfigError, match=r"^scenario\.phases needs 4 entries, got 3$"):
        config_from_mapping({"scenario": {"phases": phases[:3]}})


def test_a_blockage_window_that_holds_no_step_fails_validation(tmp_path, capsys):
    # no step k * 0.15 s lies in [0.01, 0.02), so the window's mean spectral
    # efficiency would be the mean of an empty slice
    cfg = write_yaml(tmp_path, json.dumps({
        "blockage": {"windows": [[0.01, 0.02]]},
        "run": {"horizon": 20},
    }))
    out = tmp_path / "out"
    assert main(["compare-baseline", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: blockage.windows[0] [0.01, 0.02) s holds no step")
    assert "Traceback" not in err
    assert not out.exists()
    # each window needs a step of its own, even inside another window
    with pytest.raises(ConfigError, match=r"^blockage\.windows\[1\] \[0\.01, 0\.02\) s holds "
                                          r"no step of scenario\.dt 0\.15 s within run\.horizon 20$"):
        require_compare_config(config_from_mapping({
            "blockage": {"windows": [[0.0, 0.3], [0.01, 0.02]]}, "run": {"horizon": 20}}))
    # one step suffices: t = 0.15 s lies in [0.1, 0.16)
    require_compare_config(config_from_mapping({
        "blockage": {"windows": [[0.1, 0.16]]}, "run": {"horizon": 20}}))
    blocked, _ = echo_blockage([(0.1, 0.16)], 0.15, 20)
    np.testing.assert_array_equal(np.flatnonzero(blocked), [1])


def test_finite_gate_of_the_writers(tmp_path):
    path = tmp_path / "t.csv"
    for bad, row in ((np.nan, 2), (np.inf, 1), (-np.inf, 3)):
        y = np.zeros(4)
        y[row] = bad
        with pytest.raises(NumericalError, match=rf"t\.csv: column y is {bad} at row {row}"):
            write_csv(path, ["x", "y"], [np.arange(4), y])
        assert not path.exists()
    with pytest.raises(NumericalError, match="row 1"):
        write_csv(path, ["x", "y"], [np.arange(3), [0.0, np.nan, np.inf]])
    assert not path.exists()
    # integer columns and finite floats pass
    assert write_csv(path, ["x", "y"], [np.arange(2), [0.5, -1.0]]) == 2
    with pytest.raises(NumericalError, match=r"\['se'\]\[1\] is inf"):
        simulate_module.write_json(tmp_path / "t.json", {"ok": 1.0, "se": [0.0, np.inf]})
    assert not (tmp_path / "t.json").exists()


def test_repeated_pattern_snapshots_give_one_file_per_step(tmp_path):
    # a repeated step is computed and written once; the steps come sorted
    assert config_from_mapping({"run": {"horizon": 10, "pattern_snapshots": [7, 0, 7, 3]}}
                               ).pattern_snapshots == (0, 3, 7)
    cfg = simulate_config(tmp_path, horizon=4, extra="  pattern_snapshots: [%s]\n"
                          % ", ".join(["0"] * 16))
    assert parse_config(cfg).pattern_snapshots == (0,)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert [name for name in files if "pattern_k" in name] == ["design_mu0.05/pattern_k0.csv"]


def test_pattern_rows_over_all_snapshot_files_fail_validation(tmp_path, capsys):
    # each of two files would hold 2^22 points x 4 UAVs = 2^24 rows, the
    # bound, and simulate holds both at once; one distinct step passes
    mapping = {"run": {"horizon": 4, "pattern_points": 1 << 22, "pattern_snapshots": [0, 1]}}
    cfg = write_yaml(tmp_path, json.dumps(mapping))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run.pattern_points 4194304 and scenario.n_uavs 4 and "
                          "run.pattern_snapshots 2 give 33554432 ")
    assert "Traceback" not in err
    assert not out.exists()
    mapping["run"]["pattern_snapshots"] = [1, 1]
    require_simulate_config(config_from_mapping(mapping))
