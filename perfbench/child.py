"""Runs one workload in a fresh interpreter; started by ``run.py``.

The child prints ``ready`` once the user's one-time set-up is done (the
parent times the interval from launch to that line as ``setup_s``), then
loads the generated inputs, runs the closed loop with a single caller and
writes its figures to ``result.json`` in the work directory.

Loop: one untimed pass over the input pool records each input's reference
output and checks it in full; timed ops then run for ``--seconds`` of wall
time, and each op's output must equal its input's reference byte for byte.
Between two ops the loop times a fixed reference kernel; each op's time is
also reported divided by the mean of the kernel times on either side of it
(``op_ref``), which cancels the slow and fast spells of a shared host.  With
``--trace 1`` whole passes over the pool alternate between untraced and
traced, so both cover every input; per-layer figures come from the traced
ops, ``trace.overhead_pct`` from comparing the two halves.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import tracing
from workloads import WORKLOADS, CheckFailed


def _report(message):
    print(message, file=sys.stderr, flush=True)


class ReferenceKernel:
    """A fixed piece of work timed next to every op: an interpreter loop, a
    random walk over a 200,000-element list (cache misses) and small numpy
    calls, about 5 ms in all, the kinds of work lanekit's ops are made of.
    It uses no lanekit code, so a change to lanekit does not move it, while
    a slow spell of the host slows it together with the op."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = [float(i) for i in range(200_000)]
        self.walk = rng.permutation(len(self.values))[:6000].tolist()
        self.small = rng.random((64, 64))
        self.ms()   # warm-up

    def ms(self):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i
        values = self.values
        for j in self.walk:
            total += values[j]
        for _ in range(150):
            total += float((self.small * 2.0).sum())
        return (time.perf_counter() - start) * 1e3


def run_loop(workload, seconds, tracer=None):
    """Reference pass, then timed ops; returns the loop's raw figures."""
    pool = workload.pool_size
    references, results, failed, attempted = {}, {}, 0, 0
    for k in range(pool):
        attempted += 1
        try:
            workload.prepare(k)
            result = workload.collect(k, workload.op(k))
            workload.validate(k, result)
        except Exception:  # every failure of the library counts, none stops the run
            failed += 1
            _report(f"reference op on input {k} failed:\n{traceback.format_exc()}")
            continue
        references[k] = workload.fingerprint(result)
        results[k] = result

    plain_ms, plain_ref, traced_ref, traced_ops = [], [], [], []
    kernel = ReferenceKernel()
    before = kernel.ms()
    kernel_ms = [before]
    loop_start, i = time.perf_counter(), 0
    while time.perf_counter() - loop_start < seconds:
        k = i % pool
        traced = tracer is not None and (i // pool) % 2 == 1
        workload.prepare(k)
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            raw = tracer.run_op(i, workload.op, k) if traced else workload.op(k)
            error = None
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        after = kernel.ms()
        relative = 2.0 * elapsed * 1e3 / (before + after)
        before = after
        kernel_ms.append(after)
        attempted += 1
        if error is None:
            try:
                result = workload.collect(k, raw)
                if k not in references or workload.fingerprint(result) != references[k]:
                    raise CheckFailed(f"output for input {k} differs from its reference")
            except Exception:  # a missing or unreadable output counts as a failed op
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            if failed <= 3:
                _report(f"op {i} on input {k} failed:\n{error}")
        elif traced:
            traced_ref.append(relative)
            traced_ops.append(i)
        else:
            plain_ms.append(elapsed * 1e3)
            plain_ref.append(relative)
        i += 1
    return dict(results=results, failed=failed, attempted=attempted,
                wall=time.perf_counter() - loop_start, kernel_ms=kernel_ms,
                plain_ms=plain_ms, plain_ref=plain_ref, traced_ref=traced_ref,
                traced_ops=traced_ops)


def canary(workload, results):
    """True when a deliberately corrupted output is caught by the checks."""
    if not results:
        return False
    k, result = next(iter(results.items()))
    bad = workload.corrupt(result)
    if workload.fingerprint(bad) == workload.fingerprint(result):
        return False
    try:
        workload.validate(k, bad)
    except CheckFailed:
        return True
    return False


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 \
        else values[0]


def summarize(workload, loop, tracer, layer_names=()):
    """End-to-end figures of an untraced run, per-layer ones of a traced run.

    ``info`` holds figures that are printed but not gated: the wall-clock
    op times, which follow the host's spells, and ``ops_per_s``, completed
    ops per second of the loop's wall time (which also holds the untimed
    input preparation, output checks and reference kernel).
    """
    correct = loop["failed"] == 0 and canary(workload, loop["results"])
    metrics = workload.quality(loop["results"]) if loop["results"] else {}
    info = {}
    if tracer is None:
        ops, ref = loop["plain_ms"], loop["plain_ref"]
        if ops:
            metrics["op_ref.p50"] = statistics.median(ref)
            metrics["op_ref.p90"] = p90(ref)
            info = {"ops": (len(ops), "count"),
                    "ops_per_s": (len(ops) / loop["wall"], "1/s"),
                    "op_ms.p50": (statistics.median(ops), "ms"),
                    "op_ms.p90": (p90(ops), "ms"),
                    "reference_ms.p50": (statistics.median(loop["kernel_ms"]), "ms")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        names = [n for n in layer_names if n.split(".")[0] in tracing.LAYERS]
        metrics.update(tracing.layer_metrics(tracer, loop["traced_ops"], names,
                                             workload.is_cli))
        if loop["plain_ref"] and loop["traced_ref"]:
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(loop["traced_ref"]) / statistics.median(loop["plain_ref"])
                - 1.0)
    return {"correct": correct, "attempted": loop["attempted"], "failed": loop["failed"],
            "metrics": metrics, "info": info}


def write_spans(tracer, path):
    names = sorted({s[1] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"names": names,
                   "columns": ["id", "name", "start_s", "end_s", "parent", "op"],
                   "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]]
                             for s in tracer.spans]}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, help="timed op seconds; not with --setup-only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", type=int, required=True, help="inputs in the pool")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workdir, args.pool)
    workload.setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # The CLI prints progress lines; the parent only reads "ready".
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)

    workload.load()
    tracer = tracing.Tracer() if args.trace else None
    loop = run_loop(workload, args.seconds, tracer)
    from run import benchmark_spec   # after "ready": not part of setup_s
    layer_names = [m["name"] for m in benchmark_spec()["per_layer"]]
    summary = summarize(workload, loop, tracer, layer_names)
    if tracer is not None and args.spans_out:
        write_spans(tracer, args.spans_out)
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
