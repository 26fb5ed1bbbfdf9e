"""Command-line harness: design | simulate | sweep-dt | compare-baseline.

Each subcommand takes `--config` and `--out` only: the config file sets the
whole run, seed and horizon included. The CLI parses it, calls the
subcommand's function in `uiobeam.simulate`, which checks the config and
writes every output file, and prints its result. Exit codes, mapped in one
table (`_EXIT_CODES`): 0 success, 1 validation error (any other package
error), 2 infeasibility (`InfeasibleError`, `BracketError`), 3 I/O error
(`OSError`), 4 non-finite output (`NumericalError`; nothing written for that
file). A failure prints one `error: ...` line to stderr.
"""

import argparse
import sys

from .config import mu_label, parse_config
from .errors import BracketError, InfeasibleError, NumericalError, UiobeamError
from .simulate import run_compare, run_simulate, run_sweep_dt, write_design

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
# The exit code of a failure: the first entry whose classes match it.
_EXIT_CODES = (
    ((InfeasibleError, BracketError), EXIT_INFEASIBLE),
    (NumericalError, EXIT_NUMERICAL),
    (OSError, EXIT_IO),
    (UiobeamError, EXIT_VALIDATION),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="uiobeam",
        description=(
            "Delay-tolerant observer design and prediction-driven zero-forcing "
            "beamforming for a UAV network"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("design", "solve the observer feasibility problems and print the gains"),
        ("simulate", "run the tracking + link simulation and write CSVs"),
        ("sweep-dt", "bisect the largest feasible measurement interval per mu bound"),
        ("compare-baseline", "paired blockage comparison against echo-based sensing"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="YAML config path (omit for defaults)")
        cmd.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def _cmd_design(cfg, out):
    for rec in write_design(cfg, out):
        print(
            f"mu_max={mu_label(rec['mu_max'])}: gamma={rec['gamma']:.6g} "
            f"L_diag[0]={rec['L_diag'][0]:.6g} Q_diag[0]={rec['Q_diag'][0]:.6g} "
            f"certified={rec['certified']}"
        )
    return EXIT_OK


def _cmd_simulate(cfg, out):
    manifest = run_simulate(cfg, out)
    for name, rows in manifest["files"].items():
        print(f"{name}: {rows} rows")
    print(f"manifest: {out}/manifest.json (config {manifest['config_hash'][:12]})")
    return EXIT_OK


def _cmd_sweep_dt(cfg, out):
    rows = run_sweep_dt(cfg, out)
    print("mu_max,critical_dt_s")
    for mu_max, dt_crit in rows:
        print(f"{mu_label(mu_max)},{dt_crit:.3f}")
    return EXIT_OK


def _cmd_compare(cfg, out):
    summary = run_compare(cfg, out)
    print(
        f"window mean SE: uio={summary['window_mean_se_uio']:.4f} "
        f"echo_baseline={summary['window_mean_se_echo_baseline']:.4f} "
        f"gap={summary['window_se_gap']:.4f} bit/s/Hz over "
        f"{summary['blocked_steps']} blocked steps"
    )
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        handler = {
            "design": _cmd_design,
            "simulate": _cmd_simulate,
            "sweep-dt": _cmd_sweep_dt,
            "compare-baseline": _cmd_compare,
        }[args.command]
        return handler(cfg, args.out)
    except (UiobeamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
