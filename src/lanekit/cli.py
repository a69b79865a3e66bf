"""Command-line interface.

Subcommands cover the post-network path end to end: ``nms`` and
``extract`` for inference on saved frames, ``match`` for training-style
assignment, ``eval`` for metrics and ``synth`` for generating test scenes.

``extract`` and ``eval`` also take a directory as ``--pred``: every
``.json`` frame file in it is read in sorted name order, and two files with
the same ``frame_id`` are rejected.  ``extract --pred DIR --out OUT`` writes
one lane file per frame into directory ``OUT`` (created if missing), named
after its input file, so one process start serves a whole sequence.
Nothing is written unless every frame extracts.

No command writes over a file or directory it reads, and no two of its
outputs share a path: an output option that resolves to the path of another
path option, or to a ``.json`` file directly inside a ``--pred`` directory,
is an error (exit 1) naming both, raised before anything is read or
written.

Exit codes: 0 on success, 1 on validation or file errors, 2 on usage errors
(argparse's default).

An option that feeds a library parameter is stored under that parameter's
name (``--iou`` as ``iou_thresh``, ``--lanes`` as ``lane_count``) and is
passed on only when given, so a left-out option takes the library
function's default.  The only defaults stated here are ``synth``'s grid:
``--mode`` (uniform), held in ``_UNIFORM_MODE``, and the uniform grid's
``--rows``, ``--cols``, ``--y-min``, ``--y-max``, ``--x-min`` and
``--x-max``, held in ``_UNIFORM_GRID``.  An option the chosen grid does not
read is an error (exit 1): the custom-grid options (``--spacing-near``,
``--spacing-far``, ``--width``, ``--y-origin``) on the uniform grid (no
``--mode custom``, no ``--preset``), the four range options under ``--mode
custom``, and under ``--preset``, whose model sets the rows and columns,
``--mode`` and all six uniform-grid options.  Every file and report the
CLI writes, ``match``'s and ``eval``'s JSON included, is formatted by
``io``.

``COMMANDS`` is the one table of subcommands.  ``main`` builds the parser
of the command it runs only; any other first argument gets the full one.
"""

import argparse
import os
import sys
from argparse import SUPPRESS
from pathlib import Path

import numpy as np

from .config import MODEL_PRESETS
from .errors import ValidationError
from .geometry import build_custom_grid, build_uniform_grid
from .io import (json_text, load_ground_truth, load_lane_frame, load_prediction_frame,
                 save_ground_truth, save_lane_frame, save_prediction_frame)
from .matching import build_connection_targets, match_keypoints
from .metrics import _evaluate, evaluate
from .pipeline import run_pipeline, suppress
from .synthetic import SceneSpec, generate_scene, gt_keypoints

# PointNMS's parameters, set by the options of ``nms`` and ``extract``.
_NMS = ("thresh_x", "thresh_y", "r", "iou_thresh")
# Path options: those a command reads, then those it writes.
_READS, _WRITES = ("pred", "gt"), ("out", "report", "out_pred", "out_gt")
# ``synth``'s grid mode and uniform grid where their options are left out;
# ``--mode custom`` takes the uniform grid's rows and columns too.
_UNIFORM_MODE = "uniform"
_UNIFORM_GRID = {"rows": 12, "cols": 32, "y_min": 3.0, "y_max": 58.0,
                 "x_min": -8.0, "x_max": 8.0}


def _given(args, *names):
    """The options among parameters ``names`` that the command line set; a
    left-out one is absent, so the called function's default holds."""
    return {name: getattr(args, name) for name in names if name in args}


def _threshold_list(text):
    """``--threshold``'s comma-separated numbers.  A list that is empty or
    holds a word is a usage error (exit 2) that argparse prints with this
    message; a number out of range is ``evaluate``'s to reject (exit 1)."""
    values = []
    for i, word in enumerate(w for w in text.split(",") if w.strip()):
        try:
            values.append(float(word))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"thresholds[{i}]: not a number: {word!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("thresholds: empty threshold list")
    return tuple(values)


def _option(name):
    return "--" + name.replace("_", "-")


def _check_paths(args):
    """Rejects an output option that resolves to the path of an input or of
    an earlier output, or to a ``.json`` file directly inside a ``--pred``
    directory (the files such a ``--pred`` reads), naming both options."""
    named = [(name, os.path.realpath(value))
             for name, value in _given(args, *_READS, *_WRITES).items() if value is not None]
    for i, (name, path) in enumerate(named):
        if name not in _WRITES:
            continue
        for other, other_path in named[:i]:
            if path == other_path:
                raise ValidationError(f"{_option(name)} and {_option(other)} "
                                      f"name the same path {path}")
            if (other == "pred" and Path(path).suffix == ".json"
                    and os.path.dirname(path) == other_path and os.path.isdir(other_path)):
                raise ValidationError(f"{_option(name)} names a .json file in the "
                                      f"{_option(other)} directory {other_path}")


def _grid_from_args(args):
    """``synth``'s grid; an option the chosen grid does not read is an
    error (module docstring)."""
    custom = _given(args, "spacing_near", "spacing_far", "width", "y_origin")
    given = _given(args, *_UNIFORM_GRID)
    grid = {**_UNIFORM_GRID, **given}
    mode = getattr(args, "mode", _UNIFORM_MODE)
    if args.preset:
        unread, rule = {**_given(args, "mode"), **given}, "is not read under --preset"
    elif mode == "custom":
        unread = _given(args, "y_min", "y_max", "x_min", "x_max")
        rule = "is not read under --mode custom"
    else:
        unread, rule = custom, "shapes the custom grid only; give --mode custom or --preset"
    if unread:
        raise ValidationError(f"{_option(next(iter(unread)))} {rule}")
    if args.preset:
        return build_custom_grid(*MODEL_PRESETS[args.preset].bev_shape, **custom)
    if mode == "custom":
        return build_custom_grid(grid["rows"], grid["cols"], **custom)
    return build_uniform_grid(rows=grid["rows"], cols=grid["cols"],
                              y_range=(grid["y_min"], grid["y_max"]),
                              x_range=(grid["x_min"], grid["x_max"]))


def _cmd_nms(args):
    frame = load_prediction_frame(args.pred)
    keep, kept, adjacency = suppress(frame, **_given(args, *_NMS))
    save_prediction_frame(type(frame)(frame_id=frame.frame_id, keypoints=kept,
                                      adjacency=adjacency, camera=frame.camera), args.out)
    print(f"kept {len(keep)} of {len(frame.keypoints)} proposals")
    return 0


def _sequence(path, load, frame_id):
    """Loads every ``.json`` file in directory ``path`` in sorted name order;
    yields ``(file, loaded)`` and rejects a frame id seen twice.  A file
    that does not load raises its error prefixed with the file's name."""
    files = sorted(p for p in path.iterdir() if p.suffix == ".json")
    if not files:
        raise ValidationError(f"no .json frame files in {path}")
    seen = set()
    for file in files:
        try:
            loaded = load(file)
        except ValidationError as exc:
            raise ValidationError(f"{file.name}: {exc}") from exc
        fid = frame_id(loaded)
        if fid in seen:
            raise ValidationError(f"duplicate frame_id {fid!r} in {file}")
        seen.add(fid)
        yield file, loaded


def _cmd_extract(args):
    pred, out = Path(args.pred), Path(args.out)
    options = _given(args, "t_a", "min_lane_points", *_NMS)
    if not pred.is_dir():
        frame = load_prediction_frame(pred)
        result = run_pipeline(frame, **options)
        save_lane_frame(frame.frame_id, result.lanes, out)
        print(f"extracted {len(result.lanes)} lanes from {len(result.kept)} "
              f"kept proposals")
        return 0
    if out.exists() and not out.is_dir():
        raise ValidationError(f"--out {out} is not a directory, and --pred is one")
    # Every frame is extracted before any lane file is written, so a bad
    # frame leaves no partial output.
    outputs = [(out / file.name, frame.frame_id, run_pipeline(frame, **options).lanes)
               for file, frame in _sequence(pred, load_prediction_frame,
                                            lambda frame: frame.frame_id)]
    out.mkdir(parents=True, exist_ok=True)
    for path, frame_id, lanes in outputs:
        save_lane_frame(frame_id, lanes, path)
    print(f"extracted {sum(len(lanes) for _, _, lanes in outputs)} lanes "
          f"from {len(outputs)} frames into {out}")
    return 0


def _cmd_match(args):
    frame = load_prediction_frame(args.pred)
    gt_frames = load_ground_truth(args.gt)
    frame_id = args.frame_id or frame.frame_id
    if frame_id not in gt_frames:
        raise ValidationError(f"frame {frame_id!r} not present in {args.gt}")
    gts = gt_keypoints(gt_frames[frame_id])
    matching = match_keypoints(frame.keypoints, gts, **_given(
        args, "repeats_n", "strongest", "lambda_dist", "lambda_cls"))
    report = {
        "frame_id": frame_id,
        "pairs": [[int(p), int(g)] for p, g in matching.pairs],
        "unmatched_proposals": [int(p) for p in matching.unmatched_proposals],
        "unmatched_gts": [int(g) for g in matching.unmatched_gts],
        # Chain targets exist only for one-to-one matchings; duplicated
        # matchings (repeats > 1) put several proposals on one GT.
        "connection_targets": None,
    }
    matched_gts = [g for _, g in matching.pairs]
    if len(set(matched_gts)) == len(matched_gts):
        targets = build_connection_targets(matching, gts, len(frame.keypoints))
        src, dst = np.nonzero(targets)
        report["connection_targets"] = [[int(i), int(j)] for i, j in zip(src, dst)]
    text = json_text(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"matched {len(matching.pairs)} proposal-GT pairs covering "
          f"{len(set(matched_gts))} of {len(gts)} ground-truth keypoints",
          file=sys.stderr)
    return 0


def _load_pred_lanes(path):
    path = Path(path)
    if path.is_dir():
        return dict(loaded for _, loaded in
                    _sequence(path, load_lane_frame, lambda loaded: loaded[0]))
    frame_id, lanes = load_lane_frame(path)
    return {frame_id: lanes}


def _cmd_eval(args):
    preds = _load_pred_lanes(args.pred)
    gts = load_ground_truth(args.gt)
    thresholds = _given(args, "thresholds")
    payload = {}
    if args.per_frame:
        # One pass gives the aggregate and each frame's reports.
        reports, per_frame = _evaluate(preds, gts, per_frame=True, **thresholds)
        payload["per_frame"] = {fid: [r.as_dict() for r in frame_reports]
                                for fid, frame_reports in per_frame.items()}
    else:
        reports = evaluate(preds, gts, **thresholds)
    payload["aggregate"] = [r.as_dict() for r in reports]
    for r in reports:
        print(f"threshold {r.threshold:g} m: F1={r.f1:.4f} "
              f"precision={r.precision:.4f} recall={r.recall:.4f} AP={r.ap:.4f} "
              f"x_err near/far={r.x_err_near:.3f}/{r.x_err_far:.3f} "
              f"z_err near/far={r.z_err_near:.3f}/{r.z_err_far:.3f}")
    if args.report:
        Path(args.report).write_text(json_text(payload))
    return 0


def _cmd_synth(args):
    grid = _grid_from_args(args)
    spec = SceneSpec(seed=args.seed, **_given(
        args, "lane_count", "sigma_x", "sigma_z", "dropout_p", "proposals_per_target",
        "distractor_edge_rate", "strong_distractors"))
    gt_lanes, frame = generate_scene(spec, grid)
    save_prediction_frame(frame, args.out_pred)
    if args.out_gt:
        save_ground_truth({frame.frame_id: gt_lanes}, args.out_gt)
    print(f"scene {frame.frame_id}: {len(gt_lanes)} lanes, "
          f"{len(frame.keypoints)} proposals")
    return 0


def _add_nms_args(p):
    """PointNMS's options, the same in ``nms`` and ``extract``."""
    p.add_argument("--thresh-x", type=float, default=SUPPRESS)
    p.add_argument("--thresh-y", type=float, default=SUPPRESS)
    p.add_argument("--r", type=int, default=SUPPRESS)
    p.add_argument("--iou", dest="iou_thresh", type=float, default=SUPPRESS)


def _nms_args(p):
    p.add_argument("--pred", required=True)
    _add_nms_args(p)
    p.add_argument("--out", required=True)


def _extract_args(p):
    p.add_argument("--pred", required=True,
                   help="prediction frame, or directory of per-frame prediction files")
    p.add_argument("--t-a", type=float, default=SUPPRESS)
    p.add_argument("--min-lane-points", type=int, default=SUPPRESS)
    _add_nms_args(p)
    p.add_argument("--out", required=True,
                   help="lane file, or with a --pred directory the output directory")


def _match_args(p):
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--frame-id")
    p.add_argument("--repeats", dest="repeats_n", type=int, default=SUPPRESS)
    p.add_argument("--strongest", action="store_true", default=SUPPRESS)
    p.add_argument("--lambda-dist", type=float, default=SUPPRESS)
    p.add_argument("--lambda-cls", type=float, default=SUPPRESS)
    p.add_argument("--out")


def _eval_args(p):
    p.add_argument("--pred", required=True,
                   help="lane file or directory of per-frame lane files")
    p.add_argument("--gt", required=True)
    p.add_argument("--threshold", dest="thresholds", type=_threshold_list, default=SUPPRESS,
                   help="comma-separated distance thresholds in meters")
    p.add_argument("--report", help="write the full JSON report here")
    p.add_argument("--per-frame", action="store_true")


def _synth_args(p):
    p.add_argument("--mode", choices=(_UNIFORM_MODE, "custom"), default=SUPPRESS)
    p.add_argument("--rows", type=int, default=SUPPRESS)
    p.add_argument("--cols", type=int, default=SUPPRESS)
    p.add_argument("--y-min", type=float, default=SUPPRESS)
    p.add_argument("--y-max", type=float, default=SUPPRESS)
    p.add_argument("--x-min", type=float, default=SUPPRESS)
    p.add_argument("--x-max", type=float, default=SUPPRESS)
    p.add_argument("--spacing-near", type=float, default=SUPPRESS)
    p.add_argument("--spacing-far", type=float, default=SUPPRESS)
    p.add_argument("--width", type=float, default=SUPPRESS)
    p.add_argument("--y-origin", type=float, default=SUPPRESS)
    p.add_argument("--preset", choices=sorted(MODEL_PRESETS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lanes", dest="lane_count", type=int, default=SUPPRESS)
    p.add_argument("--noise-x", dest="sigma_x", type=float, default=SUPPRESS)
    p.add_argument("--noise-z", dest="sigma_z", type=float, default=SUPPRESS)
    p.add_argument("--dropout", dest="dropout_p", type=float, default=SUPPRESS)
    p.add_argument("--n", dest="proposals_per_target", type=int, default=SUPPRESS)
    p.add_argument("--distractors", dest="distractor_edge_rate", type=float, default=SUPPRESS)
    p.add_argument("--strong-distractors", action="store_true", default=SUPPRESS)
    p.add_argument("--out-pred", required=True)
    p.add_argument("--out-gt")


# The one list of subcommands: name -> (help, handler, argument adder).
COMMANDS = {
    "nms": ("suppress duplicate proposals in a frame", _cmd_nms, _nms_args),
    "extract": ("run NMS and extract lane instances", _cmd_extract, _extract_args),
    "match": ("assign proposals to ground-truth keypoints", _cmd_match, _match_args),
    "eval": ("score extracted lanes against ground truth", _cmd_eval, _eval_args),
    "synth": ("generate a synthetic scene", _cmd_synth, _synth_args),
}


def build_parser(command=None):
    """The ``lanekit`` parser with every subcommand, or with ``command``'s
    alone.  The usage line lists every command either way, so the two
    parsers print the same usage and errors for ``command``."""
    parser = argparse.ArgumentParser(prog="lanekit",
                                     description="keypoint-graph lane detection toolkit")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name, (help_text, func, add_args) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # A call builds only the subparser it runs; anything else (no command,
    # -h, an unknown name) gets the full parser and its listing.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    except (ValueError, OSError) as exc:   # ValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
