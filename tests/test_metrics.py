import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lanekit.metrics
from lanekit.cli import main
from lanekit.config import NEAR_FAR_SPLIT_M
from lanekit.errors import ValidationError
from lanekit.io import LaneRecord, save_ground_truth, save_lane_frame
from lanekit.matching import solve_assignment
from lanekit.metrics import (
    AP_CONF_STEPS,
    INLIER_FRACTION,
    EvalReport,
    GroundTruthLane,
    _prefix_matching_sizes,
    _resample,
    default_y_samples,
    evaluate,
    match_lanes,
    resample_lane,
)
from lanekit.oracles import MAX_ASSIGNMENT_SIDE, oracle_assignment


def lane(points, category=0):
    return GroundTruthLane(points=np.asarray(points, float), category=category)


def straight(x, y0=1.0, y1=100.0, z=0.0):
    return lane([[x, y0, z], [x, y1, z]])


class ConfLane:
    """A lane-like object that is not a LaneRecord, which evaluate refuses."""

    def __init__(self, points, confidence):
        self.points = np.asarray(points, float)
        self.confidence = confidence


def random_lanes(rng, count=3):
    lanes = []
    for i in range(count):
        ys = np.linspace(rng.uniform(1, 25), rng.uniform(60, 100), 12)
        t = ys / 100.0
        x = (4.0 * i - 4.0) + rng.uniform(-1, 1) * t + rng.uniform(-2, 2) * t ** 2
        z = rng.uniform(0, 0.5) * t
        lanes.append(lane(np.column_stack([x, ys, z])))
    return lanes


class TestResample:
    def test_straight_lane_constant_x(self):
        pts, valid = resample_lane(straight(2.0, 5.0, 50.0), default_y_samples())
        assert_allclose(pts[valid, 0], 2.0)
        assert valid.sum() == 46   # y = 5..50 inclusive

    def test_samples_beyond_extent_invalid(self):
        pts, valid = resample_lane(straight(0.0, 10.0, 20.0), np.array([5.0, 15.0, 25.0]))
        assert valid.tolist() == [False, True, False]
        assert_allclose(pts[~valid, 0], 0.0)

    def test_midpoint_between_knots(self):
        lw = lane([[0.0, 10.0, 0.0], [4.0, 20.0, 2.0]])
        pts, valid = resample_lane(lw, np.array([15.0]))
        assert valid.all()
        assert_allclose(pts[0], [2.0, 15.0, 1.0], atol=1e-9)

    def test_too_short_lane_rejected(self):
        with pytest.raises(ValidationError, match="N >= 2"):
            resample_lane(lane([[0.0, 5.0, 0.0]]), default_y_samples())

    def test_descending_samples_rejected(self):
        with pytest.raises(ValueError):
            resample_lane(straight(0.0), np.array([5.0, 3.0]))


class TestGroundTruthLane:
    def test_rejects_decreasing_y(self):
        with pytest.raises(ValueError):
            lane([[0, 10, 0], [0, 5, 0]])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            lane([[0, 10, 0]])

    def test_allows_flat_y_steps(self):
        lane([[0, 10, 0], [1, 10, 0], [2, 20, 0]])


class TestMatchLanes:
    def test_identical_sets_fully_matched(self):
        gts = [straight(-4.0), straight(0.0), straight(4.0)]
        m = match_lanes(gts, gts, 1.5)
        assert m.pairs == ((0, 0), (1, 1), (2, 2))

    def test_far_shift_never_matches(self):
        m = match_lanes([straight(3.0)], [straight(0.0)], 1.5)
        assert m.pairs == ()

    @pytest.mark.parametrize("switch_y,expected", [(74.5, False), (76.5, True)])
    def test_75_percent_rule_boundary(self, switch_y, expected):
        # 100 GT samples; the prediction tracks x=0 then jumps far away, so
        # exactly floor(switch_y) samples are inliers
        pred = lane([[0.0, 1.0, 0.0], [0.0, switch_y, 0.0],
                     [10.0, switch_y + 0.1, 0.0], [10.0, 100.0, 0.0]])
        m = match_lanes([pred], [straight(0.0)], 1.5)
        assert bool(m.pairs) == expected

    @pytest.mark.parametrize("dz, expected", [(0.0, True), (0.25, False)])
    def test_offset_of_exactly_the_threshold_is_an_inlier(self, dz, expected):
        # Every sample lies exactly 0.5 m off in x: an inlier at 0.5 m
        # unless the height differs too.
        m = match_lanes([straight(0.5, z=dz)], [straight(0.0)], 0.5)
        assert bool(m.pairs) == expected
        rep, = evaluate([straight(0.5, z=dz)], [straight(0.0)], thresholds=(0.5,))
        assert rep.tp == expected

    def test_prefers_nearer_lane_on_double_admissibility(self):
        preds = [straight(0.3)]
        gts = [straight(0.0), straight(1.0)]
        m = match_lanes(preds, gts, 1.5)
        assert m.pairs == ((0, 0),)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            match_lanes([], [], 0.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0, 0.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValidationError, match="threshold"):
            match_lanes([straight(0.0)], [straight(0.0)], threshold)


class TestEvaluate:
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0, 0.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValidationError, match="threshold"):
            evaluate([straight(0.0)], [straight(0.0)], thresholds=(1.5, threshold))

    def test_identical_sets_perfect(self):
        gts = [straight(-4.0), straight(0.0), straight(4.0)]
        reports = evaluate(gts, gts)
        assert len(reports) == 2
        for rep in reports:
            assert rep.f1 == 1.0 and rep.precision == 1.0 and rep.recall == 1.0
            assert rep.ap == 1.0
            assert rep.tp == 3 and rep.fp == 0 and rep.fn == 0
            assert rep.x_err_near == rep.x_err_far == 0.0
            assert rep.z_err_near == rep.z_err_far == 0.0

    def test_empty_predictions(self):
        reports = evaluate({0: []}, {0: [straight(0.0), straight(4.0)]})
        for rep in reports:
            assert rep.recall == 0.0 and rep.f1 == 0.0
            assert rep.fn == 2 and rep.tp == 0

    def test_constant_lateral_offset_reported(self):
        gts = [straight(-3.0), straight(3.0)]
        preds = [straight(-2.8), straight(3.2)]
        rep = evaluate(preds, gts, thresholds=(1.5,))[0]
        assert rep.f1 == 1.0
        assert rep.x_err_near == pytest.approx(0.2, abs=1e-6)
        assert rep.x_err_far == pytest.approx(0.2, abs=1e-6)
        assert rep.z_err_near == pytest.approx(0.0, abs=1e-9)

    def test_f1_monotone_in_threshold(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            gts = random_lanes(rng)
            preds = [lane(l.points + np.array([rng.normal(0, 0.4), 0.0, 0.0]))
                     for l in gts if rng.random() > 0.2]
            rep_15, rep_05 = evaluate(preds, gts, thresholds=(1.5, 0.5))
            assert rep_05.f1 <= rep_15.f1 + 1e-12

    def test_lane_order_irrelevant(self):
        rng = np.random.default_rng(77)
        gts = random_lanes(rng, count=4)
        preds = [lane(l.points + np.array([0.3, 0.0, 0.0])) for l in gts]
        base = evaluate(preds, gts)
        shuffled = evaluate(list(reversed(preds)), gts[2:] + gts[:2])
        for a, b in zip(base, shuffled):
            assert a == b

    def test_duplicate_prediction_is_one_fp(self):
        gts = [straight(0.0), straight(4.0)]
        preds = [straight(0.1), straight(4.1)]
        base = evaluate(preds, gts, thresholds=(1.5,))[0]
        dup = evaluate(preds + [straight(0.1)], gts, thresholds=(1.5,))[0]
        assert dup.fp == base.fp + 1
        assert dup.tp == base.tp and dup.fn == base.fn

    def test_rigid_y_translation_invariance(self):
        rng = np.random.default_rng(99)
        gts = []
        preds = []
        for i in range(3):
            ys = np.linspace(20.0, 70.0, 8)
            x = i * 4.0 + 0.02 * (ys - 20.0) * rng.uniform(0.5, 1.0)
            gts.append(lane(np.column_stack([x, ys, 0.1 * np.ones_like(ys)])))
            preds.append(lane(np.column_stack([x + 0.25, ys, 0.05 * np.ones_like(ys)])))
        shift = np.array([0.0, 7.0, 0.0])   # whole sampling steps, stays in range
        base = evaluate(preds, gts)
        moved = evaluate([lane(p.points + shift) for p in preds],
                         [lane(g.points + shift) for g in gts])
        for a, b in zip(base, moved):
            assert a.tp == b.tp and a.fp == b.fp and a.fn == b.fn
            assert a.x_err_near == pytest.approx(b.x_err_near, abs=1e-9)
            assert a.z_err_far == pytest.approx(b.z_err_far, abs=1e-9)

    def test_mismatched_frame_ids_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"gt_frames: frame ids do not align .* unpaired: \[0, 1\]"):
            evaluate({0: []}, {1: []})

    def test_out_of_range_lanes_excluded(self):
        in_range = straight(0.0)
        beyond = lane([[0.0, 120.0, 0.0], [0.0, 150.0, 0.0]])
        rep = evaluate({0: [in_range]}, {0: [in_range, beyond]}, thresholds=(1.5,))[0]
        assert rep.tp == 1 and rep.fn == 0
        rep2 = evaluate({0: [in_range, beyond]}, {0: [in_range]}, thresholds=(1.5,))[0]
        assert rep2.fp == 0

    def test_ap_averages_achieved_cutoffs_only(self):
        gts = [straight(0.0)]
        preds = [LaneRecord(straight(0.1).points, confidence=0.6)]
        rep = evaluate(preds, gts, thresholds=(1.5,))[0]
        assert rep.ap == 1.0   # every achieved cutoff has precision 1
        half_bad = [LaneRecord(straight(0.1).points, confidence=0.6),
                    LaneRecord(straight(30.0).points, confidence=0.3)]
        rep2 = evaluate(half_bad, gts, thresholds=(1.5,))[0]
        # cutoffs <= 0.3 see both lanes (precision 1/2), 0.35..0.6 see one
        n_low = sum(1 for c in AP_CONF_STEPS if c <= 0.3)
        n_mid = sum(1 for c in AP_CONF_STEPS if 0.3 < c <= 0.6)
        want = (n_low * 0.5 + n_mid * 1.0) / (n_low + n_mid)
        assert rep2.ap == pytest.approx(want)

    def test_report_fields_roundtrip_dict(self):
        rep = evaluate([straight(0.0)], [straight(0.0)], thresholds=(1.5,))[0]
        d = rep.as_dict()
        assert d["threshold"] == 1.5 and d["tp"] == 1
        assert set(d) == set(EvalReport.__dataclass_fields__)


def reference_resample(lane, y_samples):
    """One lane on the grid by two np.interp calls: (x, z, valid)."""
    ys = lane.points[:, 1]
    valid = (y_samples >= ys[0]) & (y_samples <= ys[-1])
    x, z = np.zeros(len(y_samples)), np.zeros(len(y_samples))
    x[valid] = np.interp(y_samples[valid], ys, lane.points[:, 0])
    z[valid] = np.interp(y_samples[valid], ys, lane.points[:, 2])
    return x, z, valid


def reference_stack(lanes, y_samples):
    """The lanes with a valid sample, resampled one at a time and stacked:
    (x, z, valid, those lanes)."""
    rows = [(reference_resample(lane, y_samples), lane) for lane in lanes]
    rows = [(r, lane) for r, lane in rows if r[2].any()]
    width = len(y_samples)
    x = np.array([r[0] for r, _ in rows]).reshape(-1, width)
    z = np.array([r[1] for r, _ in rows]).reshape(-1, width)
    valid = np.array([r[2] for r, _ in rows], dtype=bool).reshape(-1, width)
    return x, z, valid, [lane for _, lane in rows]


class ReferenceFrame:
    """One frame's lanes on the grid, with the (P, G, Y) pair arrays
    rebuilt for every threshold."""

    def __init__(self, preds, gts, y_samples):
        self.px, self.pz, self.pv, kept = reference_stack(preds, y_samples)
        self.gx, self.gz, self.gv, _ = reference_stack(gts, y_samples)
        self.conf = np.array([lane.confidence for lane in kept], dtype=float)
        self.n_pred, self.n_gt = len(self.px), len(self.gx)

    def cost(self, threshold):
        if self.n_pred == 0 or self.n_gt == 0:
            return np.full((self.n_pred, self.n_gt), np.inf)
        dist = np.hypot(self.px[:, None, :] - self.gx[None, :, :],
                        self.pz[:, None, :] - self.gz[None, :, :])
        both = self.pv[:, None, :] & self.gv[None, :, :]
        gt_counts = self.gv.sum(axis=1)
        inliers = (both & (dist <= threshold)).sum(axis=2)
        admissible = inliers / gt_counts[None, :] >= INLIER_FRACTION
        both_counts = both.sum(axis=2)
        sums = np.where(both, dist, 0.0).sum(axis=2)
        mean_dist = np.where(both_counts > 0, sums / np.maximum(both_counts, 1), np.inf)
        return np.where(admissible & (both_counts > 0), mean_dist, np.inf)

    def pair_errors(self, pairs, near_mask):
        sums, counts = np.zeros(4), np.zeros(4)
        for p, g in pairs:
            both = self.pv[p] & self.gv[g]
            adx = np.abs(self.px[p] - self.gx[g])
            adz = np.abs(self.pz[p] - self.gz[g])
            for idx, mask in enumerate((both & near_mask, both & ~near_mask)):
                sums[idx] += adx[mask].sum()
                counts[idx] += mask.sum()
                sums[idx + 2] += adz[mask].sum()
                counts[idx + 2] += mask.sum()
        return sums, counts


def reference_frames(pred_frames, gt_frames):
    return [ReferenceFrame(pred_frames[fid], gt_frames[fid], default_y_samples())
            for fid in sorted(pred_frames)]


def reference_ap(frames, threshold, conf_steps=AP_CONF_STEPS):
    """AP with one canonical assignment per frame and cutoff."""
    cutoff_tp = np.zeros(len(conf_steps))
    cutoff_pred = np.zeros(len(conf_steps))
    for frame in frames:
        costs = frame.cost(threshold)
        for c_idx, cutoff in enumerate(conf_steps):
            rows = np.nonzero(frame.conf >= cutoff)[0]
            cutoff_pred[c_idx] += len(rows)
            if len(rows) == 0:
                continue
            cutoff_tp[c_idx] += len(solve_assignment(costs[rows]).pairs)
    achieved = cutoff_pred > 0
    return float((cutoff_tp[achieved] / cutoff_pred[achieved]).mean()) \
        if achieved.any() else 0.0


def reference_report(pred_frames, gt_frames, threshold):
    """The report at one threshold, with AP from ``reference_ap``; it shares
    no code with evaluate beyond solve_assignment and EvalReport."""
    near_mask = default_y_samples() < NEAR_FAR_SPLIT_M
    frames = reference_frames(pred_frames, gt_frames)
    tp = fp = fn = 0
    err_sums, err_counts = np.zeros(4), np.zeros(4)
    for frame in frames:
        pairs = solve_assignment(frame.cost(threshold)).pairs
        tp += len(pairs)
        fp += frame.n_pred - len(pairs)
        fn += frame.n_gt - len(pairs)
        sums, counts = frame.pair_errors(pairs, near_mask)
        err_sums += sums
        err_counts += counts
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    errs = np.where(err_counts > 0, err_sums / np.maximum(err_counts, 1), 0.0)
    return EvalReport(threshold=float(threshold), f1=f1, precision=precision,
                      recall=recall, ap=reference_ap(frames, threshold),
                      x_err_near=float(errs[0]), x_err_far=float(errs[1]),
                      z_err_near=float(errs[2]), z_err_far=float(errs[3]),
                      tp=tp, fp=fp, fn=fn)


# Confidences on the cutoffs themselves, between them, and at the ends.
TIED_CONFIDENCES = tuple(AP_CONF_STEPS[::3]) + (0.0, 0.33, 0.5, 0.97, 1.0)


def crowded_frame(rng):
    """GT lanes 0.3-1.2 m apart, so one prediction is often admissible for
    several of them; predictions share a handful of confidences."""
    gts, preds = [], []
    x = rng.uniform(-3, 0)
    for _ in range(rng.integers(0, 6)):
        x += rng.uniform(0.3, 1.2)
        ys = np.linspace(rng.uniform(1, 30), rng.uniform(50, 100), 6)
        gts.append(lane(np.column_stack([x + rng.uniform(-0.01, 0.01) * ys, ys,
                                         rng.uniform(0, 0.3) * np.ones(6)])))
    for _ in range(rng.integers(0, 7)):
        if gts and rng.random() < 0.8:
            points = gts[rng.integers(len(gts))].points.copy()
            points[:, 0] += rng.normal(0, 0.5)
            points[:, 1] += rng.choice((0.0, 0.0, 25.0, 120.0))
        else:
            ys = np.linspace(rng.uniform(1, 30), 100, 5)
            points = np.column_stack([rng.uniform(-4, 4) * np.ones(5), ys, np.zeros(5)])
        preds.append(LaneRecord(points, confidence=float(rng.choice(TIED_CONFIDENCES))))
    return preds, gts


# Outcomes of the designed frames, as in the eval-seq benchmark: an exact
# copy of the GT lane, 0.2 m or 1.0 m off laterally, 2.0 m off in height,
# its first 60% only, or no prediction.
DESIGNED_OUTCOMES = ("exact", "near", "lateral", "height", "short", "missing")


def designed_frame(rng, spurious):
    """GT lanes 3.5 m apart, one per outcome in random order, knots every
    2 m; ``spurious`` more predictions run beyond the outermost lane.
    Predictions carry untied random confidences and come shuffled."""
    count = len(DESIGNED_OUTCOMES)
    base_x = (np.arange(count) - (count - 1) / 2.0) * 3.5 + rng.uniform(-0.3, 0.3)
    slope, bend = rng.uniform(-0.02, 0.02), rng.uniform(-2e-4, 2e-4)
    z0, z_slope = rng.uniform(0.0, 0.3), rng.uniform(-0.01, 0.01)

    def polyline(x0, y0, y1):
        ys = np.append(np.arange(y0, y1, 2.0), y1)
        return np.column_stack([x0 + slope * ys + bend * ys ** 2, ys, z0 + z_slope * ys])

    gts, preds = [], []
    for x0, outcome in zip(base_x, rng.permutation(DESIGNED_OUTCOMES)):
        points = polyline(x0, rng.uniform(0.5, 5.0), rng.uniform(60.0, 100.0))
        gts.append(lane(points))
        pred = points.copy()
        if outcome in ("near", "lateral"):
            pred[:, 0] += (0.2 if outcome == "near" else 1.0) * rng.choice((-1.0, 1.0))
        elif outcome == "height":
            pred[:, 2] += 2.0
        elif outcome == "short":
            pred = pred[pred[:, 1] <= points[0, 1] + 0.6 * (points[-1, 1] - points[0, 1])]
        if outcome != "missing":
            preds.append(pred)
    for j in range(spurious):
        x0 = (1.0 if j % 2 == 0 else -1.0) * (np.abs(base_x).max() + 3.5 * (1 + j // 2))
        preds.append(polyline(x0, rng.uniform(0.5, 5.0), 80.0))
    preds = [LaneRecord(preds[i], confidence=float(rng.uniform(0.05, 0.95)))
             for i in rng.permutation(len(preds))]
    return preds, gts


class TestCardinalityCutoffs:
    def test_reports_match_per_cutoff_reference(self):
        rng = np.random.default_rng(2024)
        thresholds = (1.5, 0.8, 0.5)
        crowded = 0
        for _ in range(60):
            frames = [crowded_frame(rng) for _ in range(int(rng.integers(1, 5)))]
            preds = {f: p for f, (p, _) in enumerate(frames)}
            gts = {f: g for f, (_, g) in enumerate(frames)}
            got = evaluate(preds, gts, thresholds=thresholds)
            assert got == [reference_report(preds, gts, t) for t in thresholds]
            for frame in reference_frames(preds, gts):
                finite = np.isfinite(frame.cost(1.5))
                crowded += bool((finite.sum(axis=0) > 1).any() and
                                (finite.sum(axis=1) > 1).any())
        assert crowded >= 20   # many components are larger than 1x1
        # Sequences shaped like the eval-seq benchmark's: ten designed frames.
        for _ in range(3):
            frames = [designed_frame(rng, f % 3) for f in range(10)]
            preds = {f"f{f:02d}": p for f, (p, _) in enumerate(frames)}
            gts = {f"f{f:02d}": g for f, (_, g) in enumerate(frames)}
            got = evaluate(preds, gts, thresholds=thresholds)
            assert got == [reference_report(preds, gts, t) for t in thresholds]

    def test_custom_steps_in_any_order(self):
        rng = np.random.default_rng(7)
        frames = [crowded_frame(rng) for _ in range(8)]
        preds = {f: p for f, (p, _) in enumerate(frames)}
        gts = {f: g for f, (_, g) in enumerate(frames)}
        steps = (0.5, 0.05, 0.95, 0.5, 0.0)
        rep, = evaluate(preds, gts, thresholds=(1.5,), conf_steps=steps)
        assert rep.ap == reference_ap(reference_frames(preds, gts), 1.5, steps)


class TestFrameBlocks:
    """A sequence is scored in blocks of whole frames, one solve per block
    and threshold; where the blocks fall changes no report byte."""

    @pytest.mark.parametrize("cap, solves", [(1, 20), (10_000, None)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_per_frame_report_bytes_do_not_depend_on_the_blocks(self, tmp_path, monkeypatch,
                                                                 seed, cap, solves):
        rng = np.random.default_rng(seed)
        lane_dir = tmp_path / "lanes"
        lane_dir.mkdir()
        gts = {}
        for f in range(10):
            fid = f"f{f:02d}"
            preds, gts[fid] = designed_frame(rng, f % 3)
            save_lane_frame(fid, preds, lane_dir / f"{fid}.json")
        save_ground_truth(gts, tmp_path / "gt.json")
        calls = []

        def counted(costs):
            calls.append(costs.shape)
            return solve_assignment(costs)

        def report(name):
            calls.clear()
            assert main(["eval", "--pred", str(lane_dir), "--gt", str(tmp_path / "gt.json"),
                         "--threshold", "1.5,0.5", "--per-frame",
                         "--report", str(tmp_path / name)]) == 0
            return (tmp_path / name).read_bytes()

        monkeypatch.setattr(lanekit.metrics, "solve_assignment", counted)
        whole = report("whole.json")
        assert len(calls) == 2   # one block, one solve per threshold
        monkeypatch.setattr(lanekit.metrics, "_BLOCK_ENTRIES", cap)
        assert report("blocks.json") == whole
        if solves:
            assert len(calls) == solves
        else:   # blocks of several frames
            assert 2 < len(calls) < 20

    @pytest.mark.parametrize("cap", [1, 50, 400, 1 << 16])
    def test_blocks_cover_each_frame_once_within_the_cap(self, monkeypatch, cap):
        rng = np.random.default_rng(cap)
        n_pred, n_gt = rng.integers(0, 9, 40), rng.integers(0, 9, 40)
        bounds = [np.concatenate([[0], np.cumsum(n)]) for n in (n_pred, n_gt)]
        monkeypatch.setattr(lanekit.metrics, "_BLOCK_ENTRIES", cap)
        blocks = lanekit.metrics._frame_blocks(*bounds, 5)
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == 40 and all(a < b for a, b in blocks)
        for a, b in blocks:
            p, g = n_pred[a:b], n_gt[a:b]
            entries = (p * g).sum() * 5 + p.sum() * g.sum()
            assert entries <= cap or b == a + 1
            if b < 40:   # the next frame would not have fit
                p, g = n_pred[a:b + 1], n_gt[a:b + 1]
                assert (p * g).sum() * 5 + p.sum() * g.sum() > cap


# Knot and sample values on a coarse grid, so knots repeat, samples repeat
# and samples fall exactly on knots; lanes reach past the sampled range.
COARSE = st.integers(-8, 48).map(lambda k: k / 4.0)


@st.composite
def lane_sets(draw):
    lanes = []
    for _ in range(draw(st.integers(0, 6))):
        ys = sorted(draw(st.lists(COARSE, min_size=2, max_size=8)))
        xz = draw(st.lists(st.tuples(st.floats(-50, 50), st.floats(-5, 5)),
                           min_size=len(ys), max_size=len(ys)))
        lanes.append(LaneRecord([[x, y, z] for y, (x, z) in zip(ys, xz)]))
    return lanes


class TestOnePassResampler:
    """All lanes resampled together equal each lane through np.interp, bit
    for bit."""

    @staticmethod
    def check(lanes, y_samples):
        y_samples = np.asarray(y_samples, dtype=float)
        x, z, valid = _resample(lanes, y_samples)
        assert x.shape == z.shape == valid.shape == (len(lanes), len(y_samples))
        for i, lane_i in enumerate(lanes):
            want_x, want_z, want_valid = reference_resample(lane_i, y_samples)
            assert np.array_equal(x[i], want_x)
            assert np.array_equal(z[i], want_z)
            assert np.array_equal(valid[i], want_valid)
            got, got_valid = resample_lane(lane_i, y_samples)
            assert np.array_equal(got, np.column_stack([want_x, y_samples, want_z]))
            assert np.array_equal(got_valid, want_valid)

    @settings(max_examples=200, deadline=None)
    @given(lane_sets(), st.lists(COARSE, max_size=12).map(sorted))
    def test_equals_per_lane_interp(self, lanes, y_samples):
        self.check(lanes, y_samples)

    @settings(max_examples=200, deadline=None)
    @given(lane_sets(), st.lists(COARSE, max_size=12).map(sorted))
    @example([lane([[0.0, 2.0, 0.0], [1.0, 3.0, 0.0]])], [1.0, 2.0, 2.0, 2.0, 4.0])
    @example([lane([[0.0, 5.0, 0.0], [1.0, 6.0, 0.0]]),
              lane([[0.0, -3.0, 0.0], [1.0, 0.5, 0.0]])], [1.0, 2.0, 3.0])
    @example([lane([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
              lane([[0.0, 3.0, 0.0], [1.0, 9.0, 0.0]])], [1.0, 2.0, 3.0])
    def test_valid_samples_are_one_run(self, lanes, y_samples):
        # The evaluator's error sums take a pair's samples as slices.
        _, _, valid = _resample(lanes, np.asarray(y_samples, dtype=float))
        for row in valid:
            where = np.flatnonzero(row)
            assert len(where) == 0 or where[-1] - where[0] + 1 == len(where)

    @pytest.mark.parametrize("lanes, y_samples", [
        ([lane([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [5.0, 2.0, 3.0], [6.0, 4.0, 2.0]])],
         [1.0, 1.5, 2.0, 3.0, 4.0]),                                  # repeated y knots
        ([lane([[0.3, 1.0, 0.1], [0.7, 3.0, 0.2]])], [1.0, 2.0, 3.0]),  # samples on knots
        ([lane([[0.0, -5.0, 0.0], [3.0, 1.5, 1.0]]),
          lane([[0.0, 50.0, 0.0], [1.0, 60.0, 0.0]])], [0.0, 1.0, 2.0, 3.0]),  # outside
        ([lane([[0.0, 1.0, 0.0], [4.0, 3.0, 2.0]])], [1.0, 2.0, 2.0, 2.0, 3.0]),  # repeats
        ([], [1.0, 2.0]),
        ([lane([[0.0, 1.0, 0.0], [4.0, 3.0, 2.0]])], []),
    ], ids=["repeated-knots", "on-knots", "outside", "repeated-samples", "no-lanes",
            "no-samples"])
    def test_named_cases(self, lanes, y_samples):
        self.check(lanes, y_samples)

    def test_extreme_slopes_do_not_warn(self):
        # np.interp overflows to inf here without a warning; so must the
        # resampler, under the suite's error::RuntimeWarning filter.
        steep = lane([[-1e308, 0.0, 0.0], [1e308, 1.0, 0.0], [1e308, 1.0, 1.0]])
        self.check([steep], [0.0, 0.5, 1.0])


TIES = (0.2, 0.5, 0.5, 0.9)


@st.composite
def masks_and_confidences(draw):
    rows = draw(st.integers(0, MAX_ASSIGNMENT_SIDE))
    cols = draw(st.integers(0, MAX_ASSIGNMENT_SIDE))
    cells = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    conf = draw(st.lists(st.sampled_from(TIES), min_size=rows, max_size=rows))
    return np.array(cells, dtype=bool).reshape(rows, cols), conf


class TestPrefixMatchingSizes:
    """AP's cutoff counts come from one augmenting-path pass over the rows in
    falling confidence order."""

    @settings(max_examples=150, deadline=None)
    @given(masks_and_confidences())
    @example((np.zeros((2, 3), dtype=bool), [0.5, 0.5]))
    @example((np.zeros((0, 4), dtype=bool), []))
    @example((np.array([[True, True], [False, True]]), [0.2, 0.9]))
    @example((np.array([[True, False], [True, False], [True, True]]), [0.9, 0.5, 0.2]))
    def test_every_confidence_prefix_matches_the_oracle(self, case):
        mask, conf = case
        conf = np.array(conf, dtype=float)
        sizes = _prefix_matching_sizes(mask, np.argsort(-conf, kind="stable"))
        assert len(sizes) == len(conf) + 1 and sizes[0] == 0
        costs = np.where(mask, 1.0, np.inf)
        for cutoff in set(conf.tolist()):
            retained = conf >= cutoff
            assert sizes[retained.sum()] == len(oracle_assignment(costs[retained]))

    def test_path_longer_than_the_recursion_limit(self):
        # Rows 0..n-2 may take columns i and i+1 and are matched i -> i;
        # the last row may take column 0 only, so its augmenting path runs
        # through every other row.
        n = 1500
        assert n > sys.getrecursionlimit()
        mask = np.zeros((n, n), dtype=bool)
        mask[np.arange(n - 1), np.arange(n - 1)] = True
        mask[np.arange(n - 1), np.arange(1, n)] = True
        mask[n - 1, 0] = True
        sizes = _prefix_matching_sizes(mask, np.arange(n))
        assert sizes == list(range(n + 1))
        assert sizes[-1] == len(solve_assignment(np.where(mask, 1.0, np.inf)).pairs)


class TestNonFiniteLanes:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ground_truth_lane_rejects(self, bad):
        with pytest.raises(ValidationError, match=rf"^points\[1\] must be finite, got {bad}$"):
            lane([[0.0, 5.0, 0.0], [bad, 10.0, 0.0]])
        with pytest.raises(ValidationError, match=rf"^points\[0\] must be finite, got {bad}$"):
            lane([[0.0, bad, 0.0], [0.0, 10.0, 0.0]])

    def test_nan_prediction_is_an_error_not_f1_zero(self):
        points = [[0.0, 1.0, 0.0], [np.nan, 100.0, 0.0]]
        with pytest.raises(ValidationError, match=r"^points\[1\] must be finite, got nan$"):
            LaneRecord(points=points, confidence=0.9)
        with pytest.raises(ValidationError, match="expected a LaneRecord"):
            evaluate([np.array(points)], [straight(0.0)])

    def test_descending_y_samples_rejected_by_evaluate(self):
        with pytest.raises(ValueError, match="y_samples"):
            evaluate([straight(0.0)], [straight(0.0)], y_samples=[5.0, 3.0])
        with pytest.raises(ValueError, match="y_samples"):
            match_lanes([straight(0.0)], [straight(0.0)], 1.5, y_samples=[5.0, 3.0])


class TestArgumentsRejectedWhereTheyEnter:
    @pytest.mark.parametrize("y_samples", [[1.0, np.nan, 3.0], [np.inf], [1.0, -np.inf],
                                           [[1.0, 2.0], [3.0, 4.0]], ["a", "b"], [True, 2.0]],
                             ids=["nan", "inf", "-inf", "2-D", "text", "bool"])
    def test_bad_y_samples(self, y_samples):
        with pytest.raises(ValidationError, match="y_samples"):
            evaluate([straight(0.0)], [straight(0.0)], y_samples=y_samples)
        with pytest.raises(ValidationError, match="y_samples"):
            match_lanes([straight(0.0)], [straight(0.0)], 1.5, y_samples=y_samples)
        with pytest.raises(ValidationError, match="y_samples"):
            resample_lane(straight(0.0), y_samples)

    def test_repeated_y_samples_still_score(self):
        rep, = evaluate([straight(0.0)], [straight(0.0)], thresholds=(1.5,),
                        y_samples=[1.0, 2.0, 2.0, 3.0])
        assert rep.tp == 1 and rep.f1 == 1.0

    @pytest.mark.parametrize("split", [np.nan, "40", None])
    def test_near_far_split_must_be_a_number(self, split):
        with pytest.raises(ValidationError, match="near_far_split"):
            evaluate([straight(0.0)], [straight(0.0)], near_far_split=split)

    @pytest.mark.parametrize("split, near", [(np.inf, 1.0), (-np.inf, 0.0)])
    def test_infinite_near_far_split_puts_everything_on_one_side(self, split, near):
        pred = lane([[0.5, 1.0, 0.0], [0.5, 100.0, 0.0]])
        rep, = evaluate([pred], [straight(0.0)], thresholds=(1.5,), near_far_split=split)
        assert (rep.x_err_near, rep.x_err_far) == (0.5 * near, 0.5 * (1 - near))

    @pytest.mark.parametrize("steps", [(0.5, np.nan), (np.inf,), (-0.1, 0.5), (1.5,),
                                       ((0.5,), (0.6,)), ("0.5",)],
                             ids=["nan", "inf", "negative", "above-1", "2-D", "text"])
    def test_conf_steps_must_lie_in_the_unit_interval(self, steps):
        with pytest.raises(ValidationError, match="conf_steps"):
            evaluate([straight(0.0)], [straight(0.0)], conf_steps=steps)

    @pytest.mark.parametrize("pred, gt, name", [({0: [], "a": []}, {0: [], "a": []},
                                                 "pred_frames"),
                                                ({0: []}, {"a": []}, "gt_frames")],
                             ids=["both", "unpaired"])
    def test_frame_ids_must_be_mutually_orderable(self, pred, gt, name):
        with pytest.raises(ValidationError,
                           match=f"{name}: frame ids are not mutually orderable"):
            evaluate(pred, gt)


class TestOneLaneRule:
    """evaluate, match_lanes and resample_lane take LaneRecords only, so
    every lane they see was held to its rule when made."""

    def test_ground_truth_lane_is_lane_record(self):
        assert GroundTruthLane is LaneRecord
        gt = GroundTruthLane([[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]], 4)
        assert gt.category == 4 and gt.confidence == 1.0

    @pytest.mark.parametrize("make", [lambda points: ConfLane(points, 0.5), np.array,
                                      lambda points: points.tolist()],
                             ids=["ConfLane", "ndarray", "list"])
    def test_anything_but_a_lane_record_is_rejected_naming_it(self, make):
        good = straight(0.0)
        other = make(good.points)
        got = type(other).__name__
        with pytest.raises(ValidationError,
                           match=rf"pred_frames\['a'\]\[1\]: expected a LaneRecord, got {got}"):
            evaluate({"a": [good, other]}, {"a": [good]})
        with pytest.raises(ValidationError, match=rf"gt_frames\['a'\]\[0\]: .* got {got}"):
            evaluate({"a": [good]}, {"a": [other]})
        with pytest.raises(ValidationError, match=rf"pred_lanes\[1\]: .* got {got}"):
            match_lanes([good, other], [good], 1.5)
        with pytest.raises(ValidationError, match=rf"gt_lanes\[0\]: .* got {got}"):
            match_lanes([good], [other], 1.5)
        with pytest.raises(ValidationError, match=rf"lane: expected a LaneRecord, got {got}"):
            resample_lane(other, default_y_samples())

    def test_lane_record_points_are_a_read_only_copy(self):
        raw = straight(0.0).points.copy()
        record = LaneRecord(points=raw, confidence=0.5)
        with pytest.raises(ValueError):
            record.points[1, 0] = np.nan   # a checked lane cannot turn invalid
        raw[1, 0] = 30.0                   # the caller's array stays its own
        assert record.points[1, 0] == 0.0
        assert evaluate([record], [straight(0.0)], thresholds=(1.5,))[0].f1 == 1.0

    def test_as_dict_keeps_field_order(self):
        rep = evaluate([straight(0.0)], [straight(0.0)], thresholds=(1.5,))[0]
        assert list(rep.as_dict()) == list(EvalReport.__dataclass_fields__)
        assert list(rep.as_dict().values()) == [getattr(rep, f) for f in rep.as_dict()]
