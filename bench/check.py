"""Output checks for one CLI invocation.

`hash_outputs` fingerprints every output file except `manifest.json` (it
carries wall-clock). `check_outputs` applies the seed-independent checks: row
counts match N*horizon or the pattern grid, every CSV number and JSON number is
finite, every design record is certified, and the blockage comparison shows
a positive window SE gap. The expected sizes come from the program's own
resolved config (`expectations`), so they follow its defaults.
"""

import hashlib
import json
import math
from pathlib import Path

SKIP = {"manifest.json"}
TEXT_FIELDS = {"uio", "echo_baseline"}


def hash_outputs(out_dir):
    """{relative path: sha256 hex} of every output file but the manifest."""
    out_dir = Path(out_dir)
    hashes = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name not in SKIP:
            with open(path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            hashes[path.relative_to(out_dir).as_posix()] = digest
    return hashes


def expectations(cfg):
    """Sizes and ranges the outputs must have, from a resolved `RunConfig`."""
    return {
        "n": cfg.scenario.n_uavs,
        "horizon": cfg.horizon,
        "n_mu": len(cfg.mu_list),
        "snapshots": len(cfg.pattern_snapshots),
        "pattern_points": cfg.pattern_points,
        "sweep_bracket": (cfg.sweep_dt_low, cfg.sweep_dt_high),
    }


def _is_number(field):
    if field in TEXT_FIELDS:
        return True
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


def _scan_csv(path, problems, keep=False):
    """(row count, rows if keep) of a CSV, streamed so that checking big
    outputs does not raise the worker's peak memory; records the first
    non-finite or unparsable number."""
    count, kept, bad = 0, [], False
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # header
        for line in fh:
            row = line.rstrip("\n").split(",")
            count += 1
            if keep:
                kept.append(row)
            if not bad and not all(_is_number(f) for f in row):
                bad = True
                problems.append(f"{Path(path).name}: bad number in row {count}")
    return count, kept


def _json_numbers_finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_json_numbers_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_json_numbers_finite(v) for v in value)
    return True


def _load_json(path, problems):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not _json_numbers_finite(data):
        problems.append(f"{Path(path).name}: non-finite number")
    return data


def _expect_rows(path, count, problems, keep=False):
    found, rows = _scan_csv(path, problems, keep)
    if found != count:
        problems.append(f"{Path(path).name}: {found} rows, expected {count}")
    return rows


def _check_design_records(path, exp, problems):
    records = _load_json(path, problems)
    if len(records) != exp["n_mu"]:
        problems.append(f"{len(records)} design records, expected {exp['n_mu']}")
    for rec in records:
        if rec.get("certified") is not True:
            problems.append(f"design record mu_max={rec.get('mu_max')} is not certified")
        if len(rec.get("L_diag", ())) != 2 * exp["n"]:
            problems.append("design record L_diag has the wrong length")


def check_outputs(subcommand, out_dir, exp):
    """List of problems (empty when the outputs pass)."""
    out_dir = Path(out_dir)
    problems = []
    n, horizon = exp["n"], exp["horizon"]
    try:
        if subcommand == "design":
            _check_design_records(out_dir / "design_records.json", exp, problems)
        elif subcommand == "simulate":
            _check_design_records(out_dir / "design_records.json", exp, problems)
            subs = sorted(p for p in out_dir.iterdir() if p.is_dir())
            if len(subs) != exp["n_mu"]:
                problems.append(f"{len(subs)} design directories, expected {exp['n_mu']}")
            for sub in subs:
                for name in ("trajectories.csv", "inputs.csv", "se.csv"):
                    _expect_rows(sub / name, n * horizon, problems)
                patterns = sorted(sub.glob("pattern_k*.csv"))
                if len(patterns) != exp["snapshots"]:
                    problems.append(f"{sub.name}: {len(patterns)} pattern files")
                for path in patterns:
                    _expect_rows(path, exp["pattern_points"] * n, problems)
        elif subcommand == "sweep-dt":
            low, high = exp["sweep_bracket"]
            for row in _expect_rows(out_dir / "sweep_dt.csv", exp["n_mu"], problems, keep=True):
                if not low <= float(row[1]) < high:
                    problems.append(f"critical dt {row[1]} outside the sweep bracket")
        elif subcommand == "compare-baseline":
            _expect_rows(out_dir / "se_compare.csv", horizon, problems)
            summary = _load_json(out_dir / "compare_summary.json", problems)
            if not summary.get("window_se_gap", 0.0) > 0.0:
                problems.append(f"window_se_gap {summary.get('window_se_gap')} is not positive")
        else:
            problems.append(f"unknown subcommand {subcommand!r}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems
