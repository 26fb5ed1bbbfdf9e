"""Golden output hashes: `simulate`, `compare-baseline` and `sweep-dt` on a
short default config must keep writing the same bytes.

The hashes were recorded before the pipeline moved from per-step objects to
(step, UAV) arrays, so they pin the array path to the per-step one. They were
recorded with numpy 2.4 on x86-64 Linux; an intended output change
re-records them and says so in CHANGES.md.
"""

import hashlib

import pytest

from uiobeam.cli import main

CONFIG = "blockage:\n  windows: [[2.0, 4.0]]\nrun:\n  horizon: 40\n"

_TRACKING = {
    "inputs.csv": "9c6ab5bd5c09715d33f6869347bb5564fbd11aef4bafe7e9291a86db9292d4f3",
    "pattern_k0.csv": "0a1362c2c7f82b8ca8696ee5314dc854d46fd11365e5acfea75421b9ba5f96e6",
    "pattern_k20.csv": "df205cd966087c8a0bc93d7b20713dc7f736bc081f9bea62a66dbb892226f679",
    "pattern_k39.csv": "2283e13674115475abf800aafaa3c2c4d2ee977189060c1ac567b5749a396c5b",
    "se.csv": "fca47b1395103dc092d6d67400b3f34bb583c19ad4b37e1bec4456f69d481262",
    "trajectories.csv": "689e69c0369ca222907d6836fb88e294d7bcc148ddeef9069a4c5c897730794b",
}

GOLDEN = {
    "simulate": {
        "design_records.json": "a4bbfe36050cbaef25859a8f9a6820ed2c0e318285cfc3eeddee98d8bcaf83b7",
        **{f"design_mu{mu}/{name}": digest
           for mu in ("0.05", "0.25", "1") for name, digest in _TRACKING.items()},
    },
    "compare-baseline": {
        "compare_summary.json": "12c7e8cfe8ea14551f8c167a33623cffbc32f4979def07219a5d5fc005f41dd3",
        "se_compare.csv": "be1b2da9432ff8d15fcc7c0bbd97954f11dd380b13cdec3c0142e22485c5ef3e",
    },
    "sweep-dt": {
        "sweep_dt.csv": "d4e1709fdda469bb9c606459dd2cc0f66919e205ca899f0c4b5dc03be2cd722d",
    },
}


@pytest.mark.parametrize("subcommand", sorted(GOLDEN))
def test_outputs_match_golden_hashes(tmp_path, subcommand):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    found = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }
    assert found == GOLDEN[subcommand]
