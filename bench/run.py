"""Benchmark of the uiobeam CLI: end-to-end metrics, or per-layer ones with --trace 1.

    python3 bench/run.py --workload ref-long --seed 0 --seconds 30 --trace 0

Generates the workload's YAML config from the seed, then runs the workload's
subcommands in a fresh worker process (`bench/worker.py`) and checks every
output. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; everything above it is for people.
Each run also writes `bench/results/<workload>-seed<seed>-trace<t>.json`
with the environment, config hash, per-call samples and output hashes, so
two commits can be diffed. At the default seed the output hashes must match
`bench/reference_hashes.json`; after an intended change of the program's
output, copy `config_sha256` and `output_hashes` of the default-seed results
file into that workload's entry there.

End-to-end metrics, measured with tracing off:
- `setup_s`: median over fresh interpreters that import `uiobeam` and parse
  the config, launched between the measured calls (about one per 1.5 s).
- `batch_s`: after one warm-up pass, one client calls the workload's
  subcommands one after another for `--seconds` (at least three passes);
  the metric sums each subcommand's median call. The two-core virtual
  machine this was tuned on switches between a fast and a ~1.7x slower
  CPU state for seconds to minutes at a time (process CPU time slows down
  with wall-clock, so it is not stolen time), which moves both times
  between runs whatever statistic is taken; per-call samples are kept in
  the results file.
- `peak_rss_mb`: maximum resident set of the worker process.
Per-subcommand times are not end-to-end metrics because every workload must
report every such metric and no workload runs all four subcommands; the
traced run reports them as `cli.<subcommand>.s`.

Run from the repository root; the program is imported from `src/`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFERENCE = HERE / "reference_hashes.json"
RESULTS = HERE / "results"
DEADLINE_S = 170.0  # the whole run, worker included
# Pinned here, in the worker's environment, before it imports numpy.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SUBCOMMANDS = ("design", "simulate", "sweep-dt", "compare-baseline")

END_TO_END = (
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# (metric, unit, better): per-layer statistics from the traced passes; the
# name is <layer>.<callable>.<stat> with stat in calls / s / self_s / rows / bytes.
_LAYER_STATS = (
    ("config.parse_config", ("s",)),
    ("design.design", ("calls", "s", "self_s")),
    ("design.feasible", ("calls", "s")),
    ("design.critical_dt", ("calls", "s")),
    ("design.mu_feasible", ("calls", "s")),
    ("linalg.check_definiteness", ("calls", "s")),
    ("linalg.solve_hermitian", ("calls", "s")),
    ("dynamics.simulate_truth", ("calls", "s")),
    ("observer.track", ("calls", "s", "self_s")),
    ("beamforming.safe_beamformer", ("calls", "s")),
    ("beamforming.beamformer", ("calls", "self_s")),
    ("beamforming.steering_vector", ("calls",)),
    ("beamforming.signed_angular_position", ("calls",)),
    ("beamforming.line_of_sight", ("calls", "s")),
    ("beamforming.link_report", ("calls", "s")),
    ("beamforming.empirical_link_se", ("calls", "s")),
    ("beamforming.draw_link_samples", ("calls", "s")),
    ("beamforming.beam_pattern", ("calls", "s")),
    ("simulate.link_timeseries", ("calls", "s", "self_s")),
    ("simulate.write_csv", ("calls", "s", "rows", "bytes")),
    ("simulate.run_design", ("s",)),
    ("simulate.run_simulate", ("self_s",)),
    ("simulate.run_compare", ("self_s",)),
    ("simulate.run_sweep_dt", ("self_s",)),
)
_UNITS = {"calls": "count", "rows": "count", "bytes": "bytes", "s": "s", "self_s": "s"}
PER_LAYER = tuple(
    (f"{name}.{stat}", _UNITS[stat], "lower")
    for name, stats in _LAYER_STATS for stat in stats
) + (("beamforming.strict_zf_frac", "ratio", "higher"),) + tuple(
    (f"cli.{sub}.s", "s", "lower") for sub in SUBCOMMANDS
) + tuple(
    (f"trace.overhead_frac.{sub}", "ratio", "lower") for sub in SUBCOMMANDS
)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark run exceeded its deadline")
    return left


def layer_metrics(timing):
    """Per-layer metric values: medians over the traced passes.

    Every traced run reports every per-layer metric. Calls and seconds of a
    callable the workload never reaches are a measured 0; `cli.<sub>.s`,
    `trace.overhead_frac.<sub>` and `strict_zf_frac` read 0 for a subcommand
    the workload does not run or when no precoder is built.
    """
    stats = timing["stats"]

    def stat(key, field):
        return statistics.median(p.get(key, {}).get(field, 0) for p in stats)

    values = {}
    for name, fields in _LAYER_STATS:
        for field in fields:
            values[f"{name}.{field}"] = stat(name, field)
    safe = stat("beamforming.safe_beamformer", "calls")
    fallbacks = stat("beamforming.beamformer", "calls") - safe
    # share of precoder builds that needed no ridge fallback
    values["beamforming.strict_zf_frac"] = 1.0 - fallbacks / safe if safe else 0.0
    plain, traced = timing["untraced_median_s"], timing["traced_median_s"]
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.s"] = plain.get(sub, 0.0)
        values[f"trace.overhead_frac.{sub}"] = (
            traced[sub] / plain[sub] - 1.0 if sub in plain else 0.0
        )
    return values


def check_reference(name, seed, config_sha, hashes):
    """Problems against the recorded default-seed output hashes."""
    if seed != workloads.DEFAULT_SEED or not REFERENCE.exists():
        return []
    ref = json.loads(REFERENCE.read_text()).get(name)
    if ref is None:
        return [f"no reference hashes recorded for {name}"]
    problems = []
    if ref["config_sha256"] != config_sha:
        problems.append("generated config differs from the reference config")
    for sub, files in ref["output_hashes"].items():
        if hashes.get(sub) != files:
            problems.append(f"{sub}: output hashes differ from the reference")
    return problems


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "uiobeam" / "__init__.py").is_file():
        print(f"error: no uiobeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    text, config_sha = workloads.generate(args.workload, args.seed)
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.yaml"
        config_path.write_text(text, encoding="utf-8")
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result_path = work / "result.json"
        # own session, so that a timeout also ends the worker's set-up launches
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--config", str(config_path),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work / "out"), "--result", str(result_path)],
            env=env, cwd=ROOT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=remaining(deadline))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(result["problems"])
    ref_problems = check_reference(args.workload, args.seed, config_sha, result["hashes"])
    problems += ref_problems
    attempted = result["attempted"]
    failed = result["failed"] + len(ref_problems)
    timing = result["timing"]
    if args.trace:
        values = layer_metrics(timing)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(timing["setup_s"]),
            "batch_s": sum(statistics.median(v) for v in timing["calls_s"].values()),
            "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "why": workload.why,
        "subcommands": list(workload.subcommands),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_sha256": config_sha,
        "git_sha": git_sha(),
        "env": result["env"],
        "timing": timing,
        "peak_rss_kib": result["peak_rss_kib"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "output_hashes": result["hashes"],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} config {config_sha[:12]} "
          f"({', '.join(workload.subcommands)}); one client, closed loop")
    env_rec = result["env"]
    print(f"nproc {env_rec['nproc']} python {env_rec['python']} numpy {env_rec['numpy']} "
          f"blas {env_rec['blas']} threads {env_rec['threads']}")
    if not args.trace:
        for sub, samples in timing["calls_s"].items():
            print(f"  {sub}: min {min(samples):.4f} s, median {statistics.median(samples):.4f} s "
                  f"over {len(samples)} calls")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  results: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
