"""The four workloads: how their inputs are built, one op each, output checks.

A workload object lives in two processes.  ``generate`` runs in the parent
(``run.py``) and writes the inputs for one seed into a work directory; it is
not timed.  In the child (``child.py``) ``setup`` is the one-time cost a user
pays before the first op (imports, grid, projection, head weights) and is
what ``setup_s`` measures, ``load`` reads the generated inputs back, and the
timed loop calls ``prepare`` (untimed), ``op`` (timed) and ``collect``
(untimed) once per op.  ``validate`` checks one output against the rules it
must meet, ``fingerprint`` lets later repetitions be compared byte for byte
with the first, and ``corrupt`` builds a wrong output that ``validate`` must
reject, so the checks are known not to be vacuous.

Every op calls lanekit through module attributes (``lanekit.pipeline
.run_pipeline``, ``lanekit.cli.main``, ...) so that the traced run can wrap
them without editing the library.  Only ``synthetic`` builds inputs and the
timed ops never touch it.
"""

import hashlib
import importlib
import json
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BASE_SHAPE = (56, 64)
LARGE_SHAPE = (72, 128)
BASE_BUDGET = 512
LARGE_BUDGET = 1536
EVAL_THRESHOLDS = (1.5, 0.5)
F1_THRESHOLD = 1.5
# Weak adjacency values a sigmoid head emits between unrelated keypoints:
# never exactly 0, always below the 0.5 edge threshold.
WEAK_EDGE = (1e-3, 0.45)


class CheckFailed(Exception):
    """An op's output broke a rule it must meet."""


def _lanekit(*modules):
    for name in modules:
        importlib.import_module(name)
    return importlib.import_module("lanekit")


def _scene_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _dump(obj, path):
    with open(path, "wb") as fh:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _undump(path):
    # Only files this benchmark's own generate step wrote are unpickled.
    with open(path, "rb") as fh:
        return pickle.load(fh)


def scene(grid, seed, lanes, n):
    """A head-like synthetic scene: sigma_x 0.1, dropout 0.05 and weak
    distractor values on every pair, as a sigmoid head never emits 0."""
    lk = _lanekit()
    spec = lk.SceneSpec(seed=seed, lane_count=lanes, sigma_x=0.1,
                        proposals_per_target=n, dropout_p=0.05,
                        distractor_edge_rate=1.0)
    return lk.generate_scene(spec, grid)


def pad_frame(frame, grid, budget, rng):
    """Pads a frame with low-score background proposals to exactly
    ``budget`` proposals, the count a top-N head always returns.

    Padding sits on grid cells no real proposal uses, with class scores
    below 0.2 and weak connections to everything.  Proposals come out in
    descending confidence order, as top-N selection emits them.
    """
    lk = _lanekit()
    real = list(frame.keypoints)
    if len(real) > budget:
        raise ValueError(f"{len(real)} proposals exceed the budget of {budget}")
    taken = {k.grid_index for k in real}
    free = [(r, c) for r in range(grid.rows) for c in range(grid.cols)
            if (r, c) not in taken]
    categories = len(real[0].class_scores)
    keypoints = list(real)
    for pick in np.sort(rng.choice(len(free), budget - len(real), replace=False)):
        r, c = free[pick]
        scores = np.zeros(categories)
        scores[rng.integers(1, categories)] = rng.uniform(0.02, 0.2)
        keypoints.append(lk.Keypoint(
            grid_index=(r, c), x=float(grid.positions[r, c, 0]),
            y=float(grid.row_y[r]), dx=float(rng.normal(0.0, 0.1)), z=0.0,
            fg_score=float(rng.uniform(0.02, 0.2)), class_scores=scores))
    adjacency = rng.uniform(*WEAK_EDGE, (budget, budget))
    adjacency[:len(real), :len(real)] = frame.adjacency
    np.fill_diagonal(adjacency, rng.uniform(*WEAK_EDGE, budget))
    order = np.argsort([-k.confidence for k in keypoints], kind="stable")
    return lk.PredictionFrame(
        frame_id=frame.frame_id,
        keypoints=lk.ProposalSet([keypoints[i] for i in order],
                                 repeats_n=frame.keypoints.repeats_n),
        adjacency=adjacency[np.ix_(order, order)])


def base_grid():
    return _lanekit().build_custom_grid(rows=BASE_SHAPE[0], cols=BASE_SHAPE[1])


def large_grid():
    return _lanekit().build_custom_grid(rows=LARGE_SHAPE[0], cols=LARGE_SHAPE[1])


def check_forward(lanes):
    """Every lane has >= 2 points and runs strictly forward in y."""
    for i, lane in enumerate(lanes):
        ys = np.asarray(lane.points, dtype=float)[:, 1]
        if len(ys) < 2 or not np.all(np.diff(ys) > 0):
            raise CheckFailed(f"lane {i} does not run strictly forward in y")


def lane_quality(pred_frames, gt_frames, grid):
    """``lane_f1``: F1 at 1.5 m of the predicted lanes against the planted GT.
    ``gt_match_rate``: share of GT keypoints that the strongest matching
    pairs with a distinct point of the predicted lanes, under the matcher's
    1 m / 2 m / same-row rules."""
    lk = _lanekit()
    report, = lk.evaluate(pred_frames, gt_frames, thresholds=(F1_THRESHOLD,))
    matched = total = 0
    for fid, lanes in pred_frames.items():
        gts = lk.gt_keypoints(gt_frames[fid], grid)
        total += len(gts)
        if not lanes:
            continue
        points = np.unique(np.concatenate([np.asarray(l.points)[:, :2] for l in lanes]), axis=0)
        rows = np.searchsorted(grid.row_y, points[:, 1])
        proposals = [lk.Keypoint(grid_index=(int(r), 0), x=float(x), y=float(y))
                     for (x, y), r in zip(points, rows)]
        pairs = lk.match_keypoints(proposals, gts, strongest=True).pairs
        matched += len({g for _, g in pairs})
    return {"lane_f1": report.f1, "gt_match_rate": matched / total}


class Workload:
    """Shared defaults; see the module docstring for the protocol."""

    name = None
    is_cli = False   # the op is one CLI call, so cli.self_ms applies

    def __init__(self, workdir, pool_size):
        self.workdir = Path(workdir)
        self.pool_size = pool_size

    def prepare(self, k):
        pass

    def collect(self, k, raw):
        return raw


class ExtractCli(Workload):
    """``lanekit extract`` in-process on one dense 512-proposal frame file."""

    name = "extract-cli"
    is_cli = True

    def generate(self, seed):
        lk = _lanekit()
        grid = base_grid()
        gts = {}
        for k in range(self.pool_size):
            # 3 and 4 lanes alternate: 5 lanes of 56 rows at n=2 would
            # already exceed the 512-proposal budget before padding.
            gt, frame = scene(grid, _scene_seed(seed, k), 3 + k % 2, 2)
            frame = pad_frame(frame, grid, BASE_BUDGET,
                              np.random.default_rng(_scene_seed(seed, 1000 + k)))
            lk.save_prediction_frame(frame, self.workdir / f"frame-{k}.json")
            gts[frame.frame_id] = gt
        _dump(gts, self.workdir / "gt.pkl")

    def setup(self, seed):
        self.cli = _lanekit("lanekit.cli").cli

    def load(self):
        self.gts = _undump(self.workdir / "gt.pkl")
        (self.workdir / "out").mkdir(exist_ok=True)

    def _out(self, k):
        return self.workdir / "out" / f"lanes-{k}.json"

    def prepare(self, k):
        self._out(k).unlink(missing_ok=True)

    def op(self, k):
        return self.cli.main(["extract", "--pred", str(self.workdir / f"frame-{k}.json"),
                              "--out", str(self._out(k))])

    def collect(self, k, raw):
        if raw != 0:
            raise CheckFailed(f"lanekit extract exited with {raw}")
        return self._out(k).read_bytes()

    def fingerprint(self, result):
        return result

    def _load(self, result):
        check = self.workdir / "check.json"
        check.write_bytes(result)
        return _lanekit().load_lane_frame(check)

    def validate(self, k, result):
        try:
            frame_id, lanes = self._load(result)
        except ValueError as exc:
            raise CheckFailed(f"lane file does not load back: {exc}") from exc
        if frame_id not in self.gts:
            raise CheckFailed(f"unknown frame id {frame_id!r}")
        check_forward(lanes)

    def corrupt(self, result):
        raw = json.loads(result)
        raw["lanes"][0]["points"].reverse()
        return json.dumps(raw).encode()

    def quality(self, results):
        preds = dict(self._load(result) for result in results.values())
        return lane_quality(preds, {fid: self.gts[fid] for fid in preds}, base_grid())


class PipelineLarge(Workload):
    """``run_pipeline`` on in-memory large-preset frames, README thresholds."""

    name = "pipeline-large"

    def generate(self, seed):
        grid = large_grid()
        frames = []
        for k in range(self.pool_size):
            gt, frame = scene(grid, _scene_seed(seed, k), 5, 4)
            frame = pad_frame(frame, grid, LARGE_BUDGET,
                              np.random.default_rng(_scene_seed(seed, 1000 + k)))
            np.save(self.workdir / f"adjacency-{k}.npy", frame.adjacency)
            frames.append((frame.frame_id, frame.keypoints, gt))
        _dump(frames, self.workdir / "frames.pkl")

    def setup(self, seed):
        lk = _lanekit("lanekit.pipeline")
        self.pipeline = lk.pipeline
        self.thresholds = lk.default_nms_thresholds(large_grid())

    def load(self):
        self.frames = _undump(self.workdir / "frames.pkl")
        self.frame = None

    def prepare(self, k):
        # Only the current frame's adjacency is resident, so peak_rss_mb
        # shows lanekit's memory rather than the size of the input pool.
        self.frame = None
        frame_id, keypoints, _ = self.frames[k]
        self.frame = _lanekit().PredictionFrame(
            frame_id=frame_id, keypoints=keypoints,
            adjacency=np.load(self.workdir / f"adjacency-{k}.npy"))

    def op(self, k):
        tx, ty = self.thresholds
        return self.pipeline.run_pipeline(self.frame, thresh_x=tx, thresh_y=ty)

    def collect(self, k, raw):
        return SimpleNamespace(kept=np.asarray(raw.kept_indices), lanes=raw.lanes)

    def fingerprint(self, result):
        return _digest(result.kept.tobytes(),
                       *((l.path, l.points.tobytes(), l.category, l.confidence)
                         for l in result.lanes))

    def validate(self, k, result):
        check_forward(result.lanes)
        lk = _lanekit()
        path = self.workdir / "check.json"
        try:
            lk.save_lane_frame("check", result.lanes, path)
            _, loaded = lk.load_lane_frame(path)
        except ValueError as exc:
            raise CheckFailed(f"lanes do not load back: {exc}") from exc
        if len(loaded) != len(result.lanes) or any(
                not np.array_equal(a.points, b.points) for a, b in zip(loaded, result.lanes)):
            raise CheckFailed("lanes change on a save/load round trip")

    def corrupt(self, result):
        lane = result.lanes[0]
        bad = SimpleNamespace(path=lane.path, points=lane.points[::-1].copy(),
                              category=lane.category, confidence=lane.confidence)
        return SimpleNamespace(kept=result.kept, lanes=(bad,) + result.lanes[1:])

    def quality(self, results):
        preds = {k: list(r.lanes) for k, r in results.items()}
        return lane_quality(preds, {k: self.frames[k][2] for k in results}, large_grid())


# eval-seq: every predicted lane is built to have a known outcome at both
# thresholds.  GT lanes sit 3.5 m apart, so no offset used here comes within
# 1.5 m of a neighbouring lane.
OUTCOMES = ("exact", "near", "lateral", "height", "short", "missing")
MATCHES_AT = {1.5: {"exact", "near", "lateral"}, 0.5: {"exact", "near"}}
LANE_GAP_M = 3.5
FRAMES_PER_SEQUENCE = 10


def designed_counts(outcomes, spurious):
    """(tp, fp, fn) per threshold for one frame's outcome list."""
    predicted = sum(o != "missing" for o in outcomes) + spurious
    counts = {}
    for threshold, hits in MATCHES_AT.items():
        tp = sum(o in hits for o in outcomes)
        counts[threshold] = (tp, predicted - tp, len(outcomes) - tp)
    return counts


def eval_frame(rng, spurious):
    """One frame: (GT lanes, one prediction per GT lane or None, spurious
    predictions, outcome per GT lane).

    Each GT lane gets one outcome: an exact copy, a copy 0.2 m off (matched
    at both thresholds), 1.0 m off laterally (matched at 1.5 m only), 2.0 m
    off in height (never matched), a copy covering 60% of the lane (below
    the 75% rule), or no prediction.  ``spurious`` extra predictions run
    one or more lane gaps beyond the outermost GT lane.
    """
    lk = _lanekit()
    outcomes = [str(o) for o in rng.permutation(OUTCOMES)]
    count = len(outcomes)
    base_x = (np.arange(count) - (count - 1) / 2.0) * LANE_GAP_M + rng.uniform(-0.3, 0.3)
    slope, bend = rng.uniform(-0.02, 0.02), rng.uniform(-2e-4, 2e-4)
    z0, z_slope = rng.uniform(0.0, 0.3), rng.uniform(-0.01, 0.01)

    def polyline(x0, y0, y1):
        ys = np.append(np.arange(y0, y1, 2.0), y1)
        return np.column_stack([x0 + slope * ys + bend * ys ** 2, ys, z0 + z_slope * ys])

    def lane(points, category):
        return lk.LaneRecord(points=points, category=category,
                             confidence=float(rng.uniform(0.05, 0.95)))

    gt, preds = [], []
    for x0, outcome in zip(base_x, outcomes):
        category = int(rng.integers(1, 21))
        points = polyline(x0, rng.uniform(0.5, 5.0), rng.uniform(60.0, 100.0))
        gt.append(lk.GroundTruthLane(points=points, category=category))
        pred = points.copy()
        sign = rng.choice((-1.0, 1.0))
        if outcome == "near":
            pred[:, 0] += 0.2 * sign
        elif outcome == "lateral":
            pred[:, 0] += 1.0 * sign
        elif outcome == "height":
            pred[:, 2] += 2.0
        elif outcome == "short":
            cut = points[0, 1] + 0.6 * (points[-1, 1] - points[0, 1])
            pred = pred[pred[:, 1] <= cut]
        preds.append(None if outcome == "missing" else lane(pred, category))
    extra = []
    for j in range(spurious):
        side = 1.0 if j % 2 == 0 else -1.0
        x0 = side * (np.abs(base_x).max() + LANE_GAP_M * (1 + j // 2))
        extra.append(lane(polyline(x0, rng.uniform(0.5, 5.0), 80.0), 1))
    return gt, preds, extra, outcomes


class EvalSeq(Workload):
    """``lanekit eval`` on a directory of 10 lane files and their GT file."""

    name = "eval-seq"
    is_cli = True

    def generate(self, seed):
        lk = _lanekit()
        for k in range(self.pool_size):
            rng = np.random.default_rng(_scene_seed(seed, k))
            seq = self.workdir / f"seq-{k}"
            seq.mkdir()
            gts = {}
            totals = {t: [0, 0, 0] for t in EVAL_THRESHOLDS}
            for f in range(FRAMES_PER_SEQUENCE):
                spurious = f % 3
                gt, preds, extra, outcomes = eval_frame(rng, spurious)
                lanes = [p for p in preds if p is not None] + extra
                frame_id = f"s{k}-f{f:02d}"
                lk.save_lane_frame(frame_id, [lanes[i] for i in rng.permutation(len(lanes))],
                                   seq / f"{frame_id}.json")
                gts[frame_id] = gt
                for t, counts in designed_counts(outcomes, spurious).items():
                    totals[t] = [a + b for a, b in zip(totals[t], counts)]
            lk.save_ground_truth(gts, self.workdir / f"seq-{k}.gt.json")
            (self.workdir / f"seq-{k}.design.json").write_text(json.dumps(
                {str(t): c for t, c in totals.items()}))

    def setup(self, seed):
        self.cli = _lanekit("lanekit.cli").cli

    def load(self):
        self.design = {}
        for k in range(self.pool_size):
            raw = json.loads((self.workdir / f"seq-{k}.design.json").read_text())
            self.design[k] = {float(t): tuple(c) for t, c in raw.items()}
        (self.workdir / "out").mkdir(exist_ok=True)

    def _report(self, k):
        return self.workdir / "out" / f"report-{k}.json"

    def prepare(self, k):
        self._report(k).unlink(missing_ok=True)

    def op(self, k):
        return self.cli.main(["eval", "--pred", str(self.workdir / f"seq-{k}"),
                              "--gt", str(self.workdir / f"seq-{k}.gt.json"),
                              "--threshold", ",".join(str(t) for t in EVAL_THRESHOLDS),
                              "--report", str(self._report(k))])

    def collect(self, k, raw):
        if raw != 0:
            raise CheckFailed(f"lanekit eval exited with {raw}")
        return self._report(k).read_bytes()

    def fingerprint(self, result):
        return result

    def _counts(self, result):
        try:
            rows = json.loads(result)["aggregate"]
            return {float(r["threshold"]): (r["tp"], r["fp"], r["fn"]) for r in rows}
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"unreadable report: {exc}") from exc

    def validate(self, k, result):
        counts = self._counts(result)
        if counts != self.design[k]:
            raise CheckFailed(f"tp/fp/fn {counts} differ from the designed {self.design[k]}")

    def corrupt(self, result):
        raw = json.loads(result)
        raw["aggregate"][0]["tp"] += 1
        return json.dumps(raw).encode()

    def quality(self, results):
        tp = fp = fn = 0
        for result in results.values():
            a, b, c = self._counts(result)[F1_THRESHOLD]
            tp, fp, fn = tp + a, fp + b, fn + c
        return {"lane_f1": 2 * tp / (2 * tp + fp + fn), "gt_match_rate": tp / (tp + fn)}


class MatchTrain(Workload):
    """One training sample: sample features, run the connection head, match
    all proposals (duplicated) and the kept ones (strongest), build targets."""

    name = "match-train"
    FEATURE_SHAPE = (120, 160, 64)

    def generate(self, seed):
        lk = _lanekit()
        grid = base_grid()
        tx, ty = lk.default_nms_thresholds(grid)
        scenes = []
        for k in range(self.pool_size):
            gt, frame = scene(grid, _scene_seed(seed, k), 4, 2)
            kept = lk.run_pipeline(frame, thresh_x=tx, thresh_y=ty).kept
            scenes.append(SimpleNamespace(
                proposals=frame.keypoints, kept=kept, gt_lanes=gt,
                gts=lk.gt_keypoints(gt, grid),
                rows=np.array([p.grid_index[0] for p in kept]),
                cols=np.array([p.grid_index[1] for p in kept])))
        _dump(scenes, self.workdir / "scenes.pkl")
        rng = np.random.default_rng(_scene_seed(seed, 2000))
        np.save(self.workdir / "features.npy", rng.standard_normal(self.FEATURE_SHAPE))

    def setup(self, seed):
        lk = _lanekit("lanekit.geometry", "lanekit.connection_head", "lanekit.matching")
        self.lk = lk
        # A feature map at 1/8 of a 960x1280 image: focal length scaled alike.
        camera = lk.make_forward_camera(focal=125.0, image_size=self.FEATURE_SHAPE[:2])
        self.pmap = lk.project_grid_to_image(base_grid(), camera)
        self.weights = lk.random_head_weights(seed, d_c=self.FEATURE_SHAPE[2])

    def load(self):
        self.scenes = _undump(self.workdir / "scenes.pkl")
        self.features = np.load(self.workdir / "features.npy")

    def op(self, k):
        lk, s = self.lk, self.scenes[k]
        sampled = lk.geometry.bilinear_sample(self.features, self.pmap)
        features = lk.ConnectionFeatures(f_c=sampled[s.rows, s.cols],
                                         positions=s.kept.refined_xy)
        probs = lk.connection_head.adjacency_forward(features, self.weights).probs
        dup = lk.matching.match_keypoints(s.proposals, s.gts, repeats_n=2)
        strong = lk.matching.match_keypoints(s.kept, s.gts, strongest=True)
        targets = lk.matching.build_connection_targets(strong, s.gts, len(s.kept))
        return SimpleNamespace(probs=probs, dup=dup.pairs, strong=strong.pairs,
                               targets=targets)

    def fingerprint(self, result):
        return _digest(result.probs.tobytes(), result.dup, result.strong,
                       result.targets.tobytes())

    @staticmethod
    def check_pairs(proposals, gts, pairs, per_gt):
        """The 1 m refined / 2 m anchor / same-row rules, each proposal at
        most once and each GT at most ``per_gt`` times."""
        used = set()
        uses = {}
        for p, g in pairs:
            prop, gt = proposals[p], gts[g]
            if abs(prop.refined_x - gt.x) > 1.0:
                raise CheckFailed(f"pair ({p}, {g}) is more than 1 m off when refined")
            if abs(prop.x - gt.x) > 2.0:
                raise CheckFailed(f"pair ({p}, {g}) anchor is more than 2 m off")
            if prop.grid_index[0] != gt.row:
                raise CheckFailed(f"pair ({p}, {g}) spans two grid rows")
            if p in used:
                raise CheckFailed(f"proposal {p} matched twice")
            used.add(p)
            uses[g] = uses.get(g, 0) + 1
            if uses[g] > per_gt:
                raise CheckFailed(f"gt {g} matched more than {per_gt} times")

    @staticmethod
    def expected_targets(strong, gts, size):
        proposal_of = {g: p for p, g in strong}
        chains = {}
        for g in sorted(proposal_of, key=lambda g: (gts[g].lane_id, gts[g].order_in_lane)):
            chains.setdefault(gts[g].lane_id, []).append(proposal_of[g])
        targets = np.zeros((size, size))
        for chain in chains.values():
            for a, b in zip(chain[:-1], chain[1:]):
                targets[a, b] = 1.0
        return targets

    def validate(self, k, result):
        s = self.scenes[k]
        size = len(s.kept)
        if result.probs.shape != (size, size) or not np.all(
                (result.probs >= 0.0) & (result.probs <= 1.0)):
            raise CheckFailed("adjacency is not a (S, S) matrix of probabilities")
        if not result.strong:
            raise CheckFailed("strongest matching is empty")
        self.check_pairs(s.proposals, s.gts, result.dup, 2)
        self.check_pairs(s.kept, s.gts, result.strong, 1)
        if not np.array_equal(result.targets, self.expected_targets(result.strong, s.gts, size)):
            raise CheckFailed("connection targets do not chain the matched proposals")

    def corrupt(self, result):
        s = self.scenes[result.scene]
        (p, g), rest = result.strong[0], result.strong[1:]
        other = next(j for j, gt in enumerate(s.gts) if gt.row != s.gts[g].row)
        return SimpleNamespace(**{**vars(result), "strong": ((p, other),) + rest})

    def collect(self, k, raw):
        raw.scene = k
        return raw

    def quality(self, results):
        lk = _lanekit()
        preds, gts, matched, total = {}, {}, 0, 0
        for k, r in results.items():
            s = self.scenes[k]
            preds[k] = lk.extract_lanes(s.kept, r.targets)
            gts[k] = s.gt_lanes
            matched += len({g for _, g in r.strong})
            total += len(s.gts)
        report, = lk.evaluate(preds, gts, thresholds=(F1_THRESHOLD,))
        return {"lane_f1": report.f1, "gt_match_rate": matched / total}


WORKLOADS = {cls.name: cls for cls in (ExtractCli, PipelineLarge, EvalSeq, MatchTrain)}

# Distinct inputs cycled through in one run.
POOL_SIZES = {"extract-cli": 10, "pipeline-large": 6, "eval-seq": 3, "match-train": 3}
