"""Golden outputs: every perfbench workload's per-input fingerprints and
quality metrics at seeds 1 and 2, and the standard output of demos 01-07,
rebuilt and compared with ``tests/golden.json``.

A fingerprint is the one perfbench compares an op's output by, as a
SHA-256 hex digest where it is bytes (a lane file, an eval report).
Integers are held exactly, and so are lane points, confidences and eval
reports.  match-train's connection-head probabilities come from the BLAS
matrix products of ``connection_head._mlp`` and ``adjacency_forward``, whose
sums may run in another order on another CPU or thread count, so its input
holds a digest of the matched pairs and the 0/1 connection targets, and the
probabilities' sum, compared to a relative 1e-9.

extract-cli runs a pool of 2 inputs, not perfbench's 10: each input is a
dense 7.8 MB frame file that is written and read back, and 2 of them keep
this test short.  The other workloads run perfbench's own pool sizes.

The file records the numpy version it was made with; on another version
every comparison fails, saying so, since float bytes may legitimately move
with it.  After a change that moves outputs on purpose, regenerate the file
and list the entries that changed:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
DEMOS = sorted((ROOT / "demos").glob("0[1-7]_*.py"))
SEEDS = (1, 2)

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

POOLS = {**workloads.POOL_SIZES, "extract-cli": 2}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def workload_record(name, seed, workdir):
    """``{"quality": ..., "inputs": [...]}`` of one reference pass of
    workload ``name`` at ``seed``, its inputs built in ``workdir``."""
    workload = workloads.WORKLOADS[name](workdir, POOLS[name])
    workload.generate(seed)
    workload.setup(seed)
    workload.load()
    results = {}
    for k in range(workload.pool_size):
        workload.prepare(k)
        results[k] = workload.collect(k, workload.op(k))
        workload.validate(k, results[k])
    if name == "match-train":
        inputs = [{"pairs": _sha256(repr((r.dup, r.strong)).encode() + r.targets.tobytes()),
                   "probs_sum": float(r.probs.sum())} for r in results.values()]
    else:
        inputs = [workload.fingerprint(r) for r in results.values()]
        inputs = [_sha256(f) if isinstance(f, bytes) else f for f in inputs]
    return {"quality": workload.quality(results), "inputs": inputs}


def demo_stdout(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def build_golden():
    records = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="lanekit-golden-") as workdir:
                records[f"{name}/{seed}"] = workload_record(name, seed, workdir)
    return {"numpy": np.__version__, "pools": POOLS, "workloads": records,
            "demos": {demo.name: demo_stdout(demo) for demo in DEMOS}}


def _golden():
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.fail(f"{GOLDEN.name} was made with numpy {golden['numpy']}, this is numpy "
                    f"{np.__version__}; float outputs may differ between versions, so "
                    "regenerate the file on this version and review its diff")
    return golden


@pytest.mark.parametrize("key", [f"{name}/{seed}" for name in sorted(workloads.WORKLOADS)
                                 for seed in SEEDS])
def test_workload_outputs_match_the_golden_file(key, tmp_path):
    golden = _golden()
    name, seed = key.split("/")
    assert golden["pools"][name] == POOLS[name]
    want = golden["workloads"][key]
    have = workload_record(name, int(seed), tmp_path)
    assert have["quality"] == want["quality"]
    if name == "match-train":
        assert [i["pairs"] for i in have["inputs"]] == [i["pairs"] for i in want["inputs"]]
        assert [i["probs_sum"] for i in have["inputs"]] == pytest.approx(
            [i["probs_sum"] for i in want["inputs"]], rel=1e-9)
    else:
        assert have["inputs"] == want["inputs"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_matches_the_golden_file(demo):
    assert demo_stdout(demo) == _golden()["demos"][demo.name]


def test_golden_file_covers_every_workload_and_demo():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden["workloads"]) == {f"{name}/{seed}" for name in workloads.WORKLOADS
                                        for seed in SEEDS}
    assert sorted(golden["demos"]) == [demo.name for demo in DEMOS] and len(DEMOS) == 7


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build_golden(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
