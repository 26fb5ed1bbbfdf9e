"""Benchmark worker: one workload's subcommands in one fresh process.

Runs each subcommand through the public entry point `uiobeam.cli.main`, one
call after another (a closed loop with a single client). The first pass is a
warm-up whose outputs get the full check; every later call must reproduce
them byte for byte. Between the measured calls it launches fresh interpreters
that import `uiobeam` and parse the config (`setup_s`), so that set-up time is
sampled over the same stretch of time as the calls. With --trace 1, untraced
and traced passes alternate after the warm-up, and the traced ones feed the
per-layer statistics. Writes one JSON result file.

Started by `bench/run.py`, which pins the BLAS and OpenMP thread counts in
the environment before this process imports numpy:

    python3 bench/worker.py --workload ref-long --config cfg.yaml \
        --seconds 30 --trace 0 --work-dir DIR --result result.json
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_ENV  # noqa: E402
from tracer import Tracer  # noqa: E402
from uiobeam import cli  # noqa: E402
from uiobeam.config import parse_config  # noqa: E402

MIN_PASSES = 3  # untraced measured passes, whatever --seconds says
SETUP_INTERVAL_S = 1.5  # one set-up launch per this much of the measured loop
SETUP_TIMEOUT_S = 60.0
SETUP_SNIPPET = (
    "import sys, uiobeam; from uiobeam.config import parse_config; parse_config(sys.argv[1])"
)


class Runner:
    """Calls subcommands, times them and checks what they wrote."""

    def __init__(self, config_path, work_dir, exp):
        self.config_path = str(config_path)
        self.work_dir = Path(work_dir)
        self.exp = exp
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.hashes = {}  # subcommand -> outputs of its first call

    def call(self, sub):
        """Seconds taken by one `cli.main` call of `sub`."""
        out = self.work_dir / sub
        shutil.rmtree(out, ignore_errors=True)
        argv = [sub, "--config", self.config_path, "--out", str(out)]
        self.attempted += 1
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # any escape from the entry point is a failed call
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        problems = [] if code == 0 else [f"exit code {code}"]
        if not problems:
            hashes = check.hash_outputs(out)
            if sub not in self.hashes:
                problems = check.check_outputs(sub, out, self.exp)
                self.hashes[sub] = hashes
            elif hashes != self.hashes[sub]:
                changed = sorted(k for k in hashes.keys() | self.hashes[sub].keys()
                                 if hashes.get(k) != self.hashes[sub].get(k))
                problems = [f"outputs differ from the first call: {changed}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{sub}: {p}" for p in problems)
            print(f"FAILED {sub}: {problems}", file=sys.stderr)
        return elapsed

    def run_pass(self, subcommands):
        """{sub: wall seconds} for one call of each subcommand."""
        return {sub: self.call(sub) for sub in subcommands}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_ENV},
        "platform": platform.platform(),
    }


def _medians(passes, subcommands):
    return {sub: statistics.median(p[sub] for p in passes) for sub in subcommands}


def time_setup(config_path):
    """Wall seconds of one fresh interpreter importing uiobeam and parsing the config.

    The wait blocks instead of passing a timeout to subprocess, whose polling
    would round the sample up to its 50 ms sleep; a timer kills a hung launch.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, config_path])
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def measure(runner, subcommands, seconds):
    """Untraced passes for `seconds` (at least MIN_PASSES) after a warm-up pass,
    with a set-up launch after a call whenever one is due."""
    runner.run_pass(subcommands)
    passes, setup = [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        times = {}
        for sub in subcommands:
            times[sub] = runner.call(sub)
            while len(setup) * SETUP_INTERVAL_S <= time.perf_counter() - t0:
                setup.append(time_setup(runner.config_path))
        passes.append(times)
    return {
        "calls_s": {sub: [p[sub] for p in passes] for sub in subcommands},
        "setup_s": setup,
    }


def measure_traced(runner, subcommands, seconds):
    """Alternating untraced and traced passes after an untraced warm-up."""
    runner.run_pass(subcommands)
    tracer = Tracer()
    plain, traced, stats = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        plain.append(runner.run_pass(subcommands))
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(subcommands))
        finally:
            tracer.uninstall()
        stats.append(tracer.snapshot())
    return {
        "untraced_median_s": _medians(plain, subcommands),
        "traced_median_s": _medians(traced, subcommands),
        "passes": len(traced),
        "stats": stats,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    exp = check.expectations(parse_config(args.config))
    runner = Runner(args.config, args.work_dir, exp)
    measure_fn = measure_traced if args.trace else measure
    result = {"timing": measure_fn(runner, workload.subcommands, args.seconds)}
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "hashes": runner.hashes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    })
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
