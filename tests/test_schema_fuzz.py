"""Schema fuzzer: configs drawn field by field from the config schema run
through all four subcommands in-process. Every run exits 0, 1, 2 or 4 with no
exception escaping the CLI; a validation error (exit 1) names the field it
rejects; a numerical error (exit 4) leaves no file behind; and a successful
run (exit 0) writes only finite numbers, and for simulate one directory per
design label, each holding one design, all listed in its manifest."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uiobeam.cli import main
from uiobeam.config import _SCHEMA, mu_label

SUBCOMMANDS = ("design", "simulate", "sweep-dt", "compare-baseline")
NAMES = {f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys}
# run.horizon is drawn apart, at most 6, so that every run stays desk-sized
FIELDS = sorted(NAMES - {"run.horizon"})
# Values any field may get: zero, the float extremes, sizes no step could
# allocate, YAML numeric text, wrong shapes and an empty list. Sizes are
# either small or at least 1e11, so no value makes a run allocate gigabytes
# before a check could reject it.
HOSTILE = [0, 1e300, -1e300, 1e-300, -1e-300, 10**11, 10**40, "1e-3", "-1e400", "2.5e2",
           [], [1.0, 2.0], [[1.0]]]
# Values of each field that a run accepts alone, so drawn configs also reach
# the link and the writers.
VALID = {
    "scenario.n_uavs": [2, 4],
    "scenario.radii": [[100.0, 200.0], [100.0, 150.0, 200.0, 250.0], 120.0],
    "scenario.omega": [0.5, -0.3],
    "scenario.phases": [[0.0, 1.0, 2.0, 3.0], [0.0, 3.0]],
    "scenario.center": [[10.0, -5.0]],
    "scenario.dt": [0.1, [0.15, 0.2, 0.15, 0.15]],
    "scenario.perturbation_ratio": [0.0, 0.5],
    "scenario.perturbation_rate_multiple": [3.0],
    "measurement.d_scale": [0.9, -0.5],
    "measurement.d_diag": [[0.5] * 8, [0.4] * 4],
    "observer.alpha": [0.9, 0.1],
    "observer.mu_max": [[0.05], 0.25, [0.05, 1.0]],
    "observer.h_diag": [2.0],
    "observer.init": ["zero", "guess"],
    "array.m_ce": [16, 4],
    "array.n_u": [2, 8],
    "array.carrier_hz": [2.4e9],
    "array.spacing": [0.005, 0.02],
    "channel.sigma2": [1e-9],
    "channel.target_snr_db": [-5.0, 40.0],
    "channel.snr_ref_range": [50.0],
    "channel.total_power": [4.0],
    "channel.noise_draws": [1, 8],
    "blockage.windows": [[[0.15, 0.45], [0.5, 0.6]], [[0.01, 0.02]], [[0.3, 0.2]]],
    "run.seed": [7],
    "run.transient_cutoff": [3],
    "run.pattern_snapshots": [[0], [0, 1, 1]],
    "run.pattern_points": [3, 1],
    "run.sweep_dt_low": [0.05],
    "run.sweep_dt_high": [1.0, 0.01],
}
FIELD_NAME = re.compile(r"\b(" + "|".join(_SCHEMA) + r")\.([a-z_0-9]+)")


@st.composite
def configs(draw):
    """A mapping with up to four schema fields set, each to a value of its
    own or of the hostile pool, over a run of at most six steps whose first
    step lies in a blockage window."""
    mapping = {"blockage": {"windows": [[0.0, 0.15]]},
               "run": {"horizon": draw(st.integers(1, 6))}}
    for name in draw(st.lists(st.sampled_from(FIELDS), max_size=4, unique=True)):
        section, key = name.split(".")
        mapping.setdefault(section, {})[key] = draw(st.sampled_from(VALID[name] + HOSTILE))
    return mapping


@pytest.fixture(autouse=True)
def dense_certificate_oracle():
    """This module checks the CLI's contract, not the certificate: the
    conftest fixture of this name would re-check every design against the
    dense oracle, which disagrees with the per-coordinate certificate from
    observer.h_diag 30 on (pinned by the strict xfail
    test_largest_accepted_output_matrix_designs_a_certificate_the_oracle_accepts,
    ROADMAP item 2)."""
    yield


def _not_finite(name):
    raise AssertionError(f"JSON holds {name}")


def _numbers_are_finite(out):
    """Every number in the CSV and JSON files under ``out`` is finite."""
    for path in out.rglob("*"):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_not_finite)
        elif path.suffix == ".csv":
            for cell in path.read_text().replace("\n", ",").split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), f"{path}: {cell}"


def _one_directory_per_design(out):
    """simulate's ``out`` holds one directory per design label of its
    design_records.json, records that share a label are one design, and its
    manifest lists the fallback steps of exactly those directories."""
    designs = {}
    for record in json.loads((out / "design_records.json").read_text()):
        label = f"design_mu{mu_label(record['mu_max'])}"
        assert designs.setdefault(label, record) == record, (label, designs[label], record)
    assert {path.name for path in out.iterdir() if path.is_dir()} == set(designs)
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["zf_fallback_steps"]) == set(designs)


def _run(sub, cfg, out):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([sub, "--config", str(cfg), "--out", str(out)])
    return code, stderr.getvalue()


# The explicit examples are the cases found so far: each oversized array
# escaped as a numpy error after files were written, a radius below
# beamforming.MIN_RANGE and a compare-baseline without windows exited 1
# naming no field, with channel.sigma2 set a carrier of 1e-300 Hz or one
# giving a wavelength of 1e300 m, a transmit power of 1e300 and a power of
# 1e10 at a gain of 9.5e149 made the link nan (exit 4) after files were
# written, and two mu bounds of one label wrote one design directory (exit 0).
OVERSIZED = {"blockage": {"windows": [[0.3, 0.6]]}, "run": {"horizon": 4}}


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
@example({**OVERSIZED, "array": {"m_ce": 10**11}})
@example({**OVERSIZED, "array": {"m_ce": 10**40}})
@example({**OVERSIZED, "run": {"horizon": 4, "pattern_points": 10**11}})
@example({**OVERSIZED, "channel": {"noise_draws": 10**11}})
@example({**OVERSIZED, "scenario": {"radii": 1e-300}})
@example({**OVERSIZED, "channel": {"sigma2": 1e-9}, "array": {"carrier_hz": 1e-300}})
@example({**OVERSIZED, "channel": {"sigma2": 1e-9}, "array": {"carrier_hz": 2.99792458e-292}})
@example({**OVERSIZED, "channel": {"sigma2": 1e-9, "total_power": 1e300},
          "array": {"carrier_hz": 0.0299792458}})
@example({**OVERSIZED, "channel": {"sigma2": 1e-9, "total_power": 1e10},
          "array": {"carrier_hz": 2.5112e-145}})
@example({**OVERSIZED, "scenario": {"radii": [100.0, 150.0]},
          "measurement": {"d_diag": [0.5, 0.5, 0.7, 0.7]},
          "observer": {"mu_max": [0.2000001, 0.2000002]}})
@example({"run": {"horizon": 4}})
def test_every_drawn_config_runs_or_fails_naming_a_field(mapping):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.yaml"
        cfg.write_text(json.dumps(mapping))
        for sub in SUBCOMMANDS:
            out = Path(tmp) / sub
            code, err = _run(sub, cfg, out)
            assert code in (0, 1, 2, 4), (sub, code, err)
            if code == 1:
                assert NAMES & {".".join(m) for m in FIELD_NAME.findall(err)}, (sub, err)
            if code == 4:
                assert not [path for path in out.rglob("*") if path.is_file()], (sub, err)
            if code == 0:
                _numbers_are_finite(out)
                if sub == "simulate":
                    _one_directory_per_design(out)
