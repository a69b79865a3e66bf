"""lanekit benchmark: one workload, closed loop, one caller, fresh interpreter.

    python3 perfbench/run.py --workload extract-cli --seed 1 --seconds 10 --trace 0

Run from the root of a lanekit checkout; lanekit is imported from ``src/``.
The run builds the workload's inputs from ``--seed`` in a scratch directory
under the checkout, times ``setup_s`` over several cold starts, runs the
workload in a child interpreter and checks every output.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit and record the environment.  Metric names,
units and the default run length come from ``BENCHMARK.json`` at the root.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"

# Cold starts timed for setup_s besides the workload child's own, half
# before the workload and half after it, so the samples span the whole run
# rather than one moment of it.
SETUP_SAMPLES = 8
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150
IMPORTED = {"lanekit": "import.lanekit_ms", "scipy.special": "import.scipy_special_ms",
            "scipy.optimize": "import.scipy_optimize_ms"}


def fixed_env():
    """Environment of every child: one BLAS/OpenMP thread and, as children
    run pinned to one core, one lanekit loader thread; lanekit from this
    checkout."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", LANEKIT_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    return env


def benchmark_spec():
    """BENCHMARK.json: workloads, metric names, units and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit():
    """HEAD's commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def pin_to_one_cpu():
    """Runs in every child before it starts: keep it on one core, the highest
    CPU it may use, so a run uses one core whatever the host has."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def start_child(args, env):
    return subprocess.Popen([sys.executable, str(HERE / "child.py")] + args, env=env,
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
                            preexec_fn=pin_to_one_cpu)


def finish(proc):
    """Waits for a child, killing it past the timeout."""
    try:
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child timed out")
    return proc.returncode


def timed_start(args, env):
    """Starts a child; returns it and the seconds until it printed ``ready``."""
    start = time.perf_counter()
    proc = start_child(args, env)
    ready = proc.stdout.readline().strip() == "ready"
    elapsed = time.perf_counter() - start
    if not ready:
        proc.kill()
        finish(proc)
        raise RuntimeError(f"child exited before it was ready (code {proc.returncode})")
    return proc, elapsed


def import_times(env):
    """Median cumulative import time per module from ``-X importtime``."""
    samples = {metric: [] for metric in IMPORTED.values()}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lanekit"],
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True, preexec_fn=pin_to_one_cpu)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTED:
                seen[IMPORTED[parts[2].strip()]] = int(parts[1]) / 1e3
        for metric in samples:
            # A module lanekit no longer imports costs nothing.
            samples[metric].append(seen.get(metric, 0.0))
    return {metric: statistics.median(values) for metric, values in samples.items()}


def run(args):
    env = fixed_env()
    sys.path.insert(0, str(SRC))
    from workloads import POOL_SIZES, WORKLOADS
    import numpy
    import scipy

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "cores": len(os.sched_getaffinity(0)), "pinned_cpu": max(os.sched_getaffinity(0)),
              "commit": git_commit(),
              **{k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "LANEKIT_THREADS", "PYTHONHASHSEED")}}
    pool = POOL_SIZES[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        child_args = ["--workload", args.workload, "--seed", str(args.seed),
                      "--workdir", str(workdir), "--pool", str(pool)]
        setup = []
        metrics = {}

        def time_setup(samples):
            for _ in range(samples):
                proc, elapsed = timed_start(child_args + ["--setup-only"], env)
                finish(proc)
                setup.append(elapsed)

        if not args.trace:
            time_setup(SETUP_SAMPLES // 2)
        else:
            metrics.update(import_times(env))

        WORKLOADS[args.workload](workdir, pool).generate(args.seed)
        loop_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            SPANS.mkdir(exist_ok=True)
            loop_args += ["--spans-out", str(SPANS / f"spans-{args.workload}.json")]
        proc, elapsed = timed_start(child_args + loop_args, env)
        code = finish(proc)
        if code != 0:
            raise RuntimeError(f"workload child exited with {code}")
        setup.append(elapsed)
        result = json.loads((workdir / "result.json").read_text())
        if not args.trace:
            time_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if setup and not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
    metrics.update(result["metrics"])
    return record, result, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not (SRC / "lanekit" / "__init__.py").is_file():
        print(f"error: no lanekit sources under {SRC}; run from a lanekit checkout",
              file=sys.stderr)
        return 2

    record, result, metrics = run(args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = {}
    print("lanekit benchmark " + json.dumps(record, sort_keys=True))
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            reported[name] = {"value": metrics[name], "unit": unit}
            print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
        else:
            print(f"  {name:32s} {'absent':>14s}")
    for name in sorted(set(metrics) - {m["name"] for m in wanted}):
        print(f"  {name:32s} {metrics[name]:14.6g} {units.get(name, '')}"
              "  (not in this run's set)")
    for name, (value, unit) in result.get("info", {}).items():
        print(f"  {name:32s} {value:14.6g} {unit}  (not gated)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':32s} {failed / max(attempted, 1):14.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": bool(result["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
