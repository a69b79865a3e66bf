"""Importing lanekit and running the inference commands loads numpy only.

scipy is imported in two places, each inside the function that calls it:
``matching.linear_sum_assignment`` (a component of an assignment that
takes no closed form) and ``connection_head.adjacency_forward``
(``expit``).  Each case
runs in a fresh interpreter, because this test process has scipy loaded
already.  A meta-path hook in the child records which lanekit function
first asked for scipy.  orjson, the JSON decoder, is imported on the
first file read, so the commands that read files load it and
``import lanekit`` does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from lanekit import connection_head
from lanekit.cli import main
from lanekit.connection_head import ConnectionFeatures, adjacency_forward, random_head_weights

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, os, sys, traceback

class FirstScipyImport:
    origin = None

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" and FirstScipyImport.origin is None:
            calls = [f for f in traceback.extract_stack()
                     if os.sep + "lanekit" + os.sep in f.filename]
            FirstScipyImport.origin = (
                f"{os.path.basename(calls[-1].filename)}:{calls[-1].name}"
                if calls else "outside lanekit")
        return None

sys.meta_path.insert(0, FirstScipyImport())
exec(sys.argv[1])
print(json.dumps({"scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy.")),
                  "origin": FirstScipyImport.origin}))
"""


def run_child(code):
    """Runs ``code`` in a fresh interpreter with lanekit from ``src``;
    returns the scipy modules it loaded and where scipy was first imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli(*argv):
    return f"import lanekit.cli; assert lanekit.cli.main({[str(a) for a in argv]!r}) == 0"


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    (root / "frames").mkdir()
    pred, gt = root / "frames" / "frame.json", root / "gt.json"
    assert main(["synth", "--seed", "3", "--lanes", "2", "--out-pred", str(pred),
                 "--out-gt", str(gt)]) == 0
    return root, pred, gt


NUMPY_ONLY = {
    "import": lambda root, pred: "import lanekit",
    "extract": lambda root, pred: cli("extract", "--pred", pred, "--out", root / "lanes.json"),
    "extract-dir": lambda root, pred: cli("extract", "--pred", pred.parent,
                                          "--out", root / "lanes"),
    "nms": lambda root, pred: cli("nms", "--pred", pred, "--out", root / "kept.json"),
    "synth": lambda root, pred: cli("synth", "--seed", 4, "--out-pred", root / "synth.json"),
}


@pytest.mark.parametrize("case", sorted(NUMPY_ONLY))
def test_inference_path_loads_no_scipy(scene, case):
    root, pred, _ = scene
    assert run_child(NUMPY_ONLY[case](root, pred)) == {"scipy": [], "origin": None}


def test_match_and_eval_load_no_scipy(scene):
    """The scene's assignments split into single cells, stars and GT
    keypoints' copy blocks, which take closed forms and no solver."""
    root, pred, gt = scene
    lanes = root / "eval-lanes.json"
    assert main(["extract", "--pred", str(pred), "--out", str(lanes)]) == 0
    for code in (cli("match", "--pred", pred, "--gt", gt, "--out", root / "m.json"),
                 cli("eval", "--pred", lanes, "--gt", gt)):
        assert run_child(code) == {"scipy": [], "origin": None}


@pytest.mark.parametrize("side", [24, 25])
def test_a_general_component_imports_scipy_from_its_solver(side):
    """A chain of cells is one component with no closed form: up to and
    above the 24 x 24 tie-break limit, the one dense solver loads
    ``scipy.optimize``, and ``scipy.sparse.csgraph`` never loads."""
    loaded = run_child(
        "import numpy as np\n"
        "from lanekit.matching import solve_assignment\n"
        f"chain = np.eye({side}, dtype=bool) | np.eye({side}, k=1, dtype=bool)\n"
        "solve_assignment(np.where(chain, 1.0, np.inf))\n")
    assert "scipy.optimize" in loaded["scipy"]
    assert "scipy.sparse.csgraph" not in loaded["scipy"]
    assert loaded["origin"] == "matching.py:linear_sum_assignment"


def test_head_forward_imports_scipy_special_only():
    loaded = run_child(
        "import numpy as np\n"
        "from lanekit.connection_head import (ConnectionFeatures, adjacency_forward,\n"
        "                                     random_head_weights)\n"
        "rng = np.random.default_rng(0)\n"
        "adjacency_forward(ConnectionFeatures(rng.normal(size=(5, 4)),\n"
        "                                     rng.uniform(0, 9, (5, 2))),\n"
        "                  random_head_weights(0, d_c=4, dims_per_axis=4))\n")
    assert "scipy.special" in loaded["scipy"]
    assert "scipy.optimize" not in loaded["scipy"]
    assert loaded["origin"] == "connection_head.py:adjacency_forward"


def test_head_probabilities_equal_scipy_expit_of_the_logits():
    rng = np.random.default_rng(11)
    features = ConnectionFeatures(rng.normal(size=(9, 6)), rng.uniform(-5, 40, (9, 2)))
    weights = random_head_weights(5, d_c=6, dims_per_axis=8)
    # The logits, recomputed with the head's own fixed-order einsums.
    pe = connection_head.positional_encode(features.positions, dims_per_axis=8)
    full = np.concatenate([pe, features.f_c], axis=1)
    f_orig = connection_head._mlp(full, weights.origin_w1, weights.origin_b1,
                                  weights.origin_w2, weights.origin_b2)
    f_dest = connection_head._mlp(full, weights.dest_w1, weights.dest_b1,
                                  weights.dest_w2, weights.dest_b2)
    logits = np.einsum("ik,jk->ij", f_orig * weights.final_w, f_dest,
                       optimize=False) + weights.final_b
    assert np.array_equal(adjacency_forward(features, weights).probs, expit(logits))


def loads_orjson(code):
    """Whether running ``code`` in a fresh interpreter with lanekit from
    ``src`` loads orjson."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\n"
                           "print('orjson' in sys.modules)"], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_import_loads_no_orjson():
    assert not loads_orjson("import lanekit")


def test_extract_and_eval_load_orjson(scene):
    root, pred, gt = scene
    lanes = root / "orjson-lanes.json"
    assert loads_orjson(cli("extract", "--pred", pred, "--out", lanes))
    assert loads_orjson(cli("eval", "--pred", lanes, "--gt", gt))
