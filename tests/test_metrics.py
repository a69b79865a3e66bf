import numpy as np
import pytest
from numpy.testing import assert_allclose

from lanekit.config import NEAR_FAR_SPLIT_M
from lanekit.errors import ValidationError
from lanekit.io import LaneRecord
from lanekit.matching import solve_assignment
from lanekit.metrics import (
    AP_CONF_STEPS,
    EvalReport,
    GroundTruthLane,
    _Resampled,
    default_y_samples,
    evaluate,
    match_lanes,
    resample_lane,
)


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
        with pytest.raises(ValueError, match="frame ids"):
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


def reference_ap(frames, costs, conf_steps=AP_CONF_STEPS):
    """AP with one canonical assignment per frame and cutoff."""
    cutoff_tp = np.zeros(len(conf_steps))
    cutoff_pred = np.zeros(len(conf_steps))
    for frame, frame_costs in zip(frames, costs):
        for c_idx, cutoff in enumerate(conf_steps):
            rows = np.nonzero(frame.conf >= cutoff)[0]
            cutoff_pred[c_idx] += len(rows)
            if len(rows) == 0:
                continue
            cutoff_tp[c_idx] += len(solve_assignment(frame_costs[rows]).pairs)
    achieved = cutoff_pred > 0
    return float((cutoff_tp[achieved] / cutoff_pred[achieved]).mean()) \
        if achieved.any() else 0.0


def reference_report(pred_frames, gt_frames, threshold):
    """The report at one threshold, with AP from ``reference_ap``."""
    y_samples = default_y_samples()
    near_mask = y_samples < NEAR_FAR_SPLIT_M
    frames = [_Resampled(pred_frames[fid], gt_frames[fid], y_samples)
              for fid in sorted(pred_frames)]
    costs = [frame.admissible_cost(threshold) for frame in frames]
    tp = fp = fn = 0
    err_sums, err_counts = np.zeros(4), np.zeros(4)
    for frame, frame_costs in zip(frames, costs):
        pairs = solve_assignment(frame_costs).pairs
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
                      recall=recall, ap=reference_ap(frames, costs),
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


class TestCardinalityCutoffs:
    def test_reports_match_per_cutoff_reference(self):
        rng = np.random.default_rng(2024)
        crowded = 0
        for _ in range(60):
            frames = [crowded_frame(rng) for _ in range(int(rng.integers(1, 5)))]
            preds = {f: p for f, (p, _) in enumerate(frames)}
            gts = {f: g for f, (_, g) in enumerate(frames)}
            thresholds = (1.5, 0.8, 0.5)
            got = evaluate(preds, gts, thresholds=thresholds)
            assert got == [reference_report(preds, gts, t) for t in thresholds]
            for f in preds:
                finite = np.isfinite(_Resampled(preds[f], gts[f], default_y_samples())
                                     .admissible_cost(1.5))
                crowded += bool((finite.sum(axis=0) > 1).any() and
                                (finite.sum(axis=1) > 1).any())
        assert crowded >= 20   # many components are larger than 1x1

    def test_custom_steps_in_any_order(self):
        rng = np.random.default_rng(7)
        frames = [crowded_frame(rng) for _ in range(8)]
        preds = {f: p for f, (p, _) in enumerate(frames)}
        gts = {f: g for f, (_, g) in enumerate(frames)}
        steps = (0.5, 0.05, 0.95, 0.5, 0.0)
        rep, = evaluate(preds, gts, thresholds=(1.5,), conf_steps=steps)
        resampled = [_Resampled(preds[f], gts[f], default_y_samples()) for f in sorted(preds)]
        want = reference_ap(resampled, [r.admissible_cost(1.5) for r in resampled], steps)
        assert rep.ap == want


class TestNonFiniteLanes:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ground_truth_lane_rejects(self, bad):
        with pytest.raises(ValidationError, match=r"points\[1\]: not finite"):
            lane([[0.0, 5.0, 0.0], [bad, 10.0, 0.0]])
        with pytest.raises(ValidationError, match=r"points\[0\]: not finite"):
            lane([[0.0, bad, 0.0], [0.0, 10.0, 0.0]])

    def test_nan_prediction_is_an_error_not_f1_zero(self):
        points = [[0.0, 1.0, 0.0], [np.nan, 100.0, 0.0]]
        with pytest.raises(ValidationError, match=r"points\[1\]: not finite"):
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
