"""Command-line harness: scene generation, optimization, evaluation, gradient checks.

Exit codes: 0 success, 2 config error, 3 IO/format error, 4 gradient-check
failure, 5 divergence in at least one seed.

Every run directory gets a manifest.json recording the resolved config,
seed list, tool version, and timestamp.  All other outputs are pure
functions of config + seeds + version; the manifest's timestamp is the
only byte that varies between identical runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    ConfigInvalid,
    Diverged,
    FileFormatError,
    TrajCoupleError,
)
from .fixtures import gradcheck_sweep, random_coupling_fixture
from .metrics import (
    MetricReport,
    TrajectoryPair,
    ate,
    depth_metrics,
    pointmap_metrics,
    rel_pose_accuracy,
    rpe,
    tapvid3d_metrics,
)
from .optimize import ABLATIONS, OptimConfig, ablation_config, optimize
from .parallel import map_ordered
from .synthetic import (SceneConfig, generate, initial_store, load_scene, read_frames,
                        read_pose_file, read_track_file, save_scene, scene_dir, scene_dirs)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_GRADCHECK = 4
EXIT_DIVERGED = 5

OUTPUT_ROOT_ENV = "TRAJCOUPLE_OUT"

ALL_METRICS = ("ate", "rpe", "relpose", "tracks3d", "pointmap", "depth")


def _default_out(sub):
    return os.path.join(os.environ.get(OUTPUT_ROOT_ENV, "runs"), sub)


def _write_manifest(out_dir, command, config_doc, config_path, seeds):
    manifest = {
        "tool_version": __version__,
        "command": command,
        "config": config_doc,
        "config_path": config_path,
        "seeds": list(seeds),
        "out_dir": os.path.abspath(out_dir),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _parse_seeds(text):
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigInvalid("seeds", f"not a comma-separated integer list: {text!r}")
    if not seeds or min(seeds) < 0:
        raise ConfigInvalid("seeds", f"need one or more seeds, each >= 0: {text!r}")
    if len(set(seeds)) < len(seeds):
        # each seed names one output directory, which two workers must not share
        raise ConfigInvalid("seeds", f"a seed is repeated: {text!r}")
    return seeds


def _check_jobs(jobs):
    if jobs < 1:
        raise ConfigInvalid("jobs", f"must be >= 1, got {jobs}")


def _map_jobs(fn, work, jobs):
    """[fn(item) for item in work], in that order, over min(jobs, len(work)) processes.

    A pool starts all its workers at its first submit, so it gets no more than
    there are items; a single item or job runs in this process.
    """
    jobs = min(jobs, len(work))
    if jobs <= 1:
        return [fn(item) for item in work]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, work))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


# ------------------------------------------------------------------ gen ---

def _gen_one(args):
    config_dict, seed, out_dir = args
    cfg = SceneConfig.from_dict({**config_dict, "seed": seed})
    save_scene(generate(cfg), scene_dir(out_dir, seed))


def cmd_gen(args):
    config = SceneConfig.from_json_file(args.config) if args.config else SceneConfig()
    seeds = _parse_seeds(args.seeds)
    _check_jobs(args.jobs)
    out_dir = args.out or _default_out("scenes")

    # save_scene makes out_dir with the first seed directory, so a failed generation leaves none
    _map_jobs(_gen_one, [(config.to_dict(), seed, out_dir) for seed in seeds], args.jobs)
    _write_manifest(out_dir, "gen", config.to_dict(), args.config, seeds)
    print(f"wrote {len(seeds)} scene(s) under {out_dir}")
    return EXIT_OK


# ------------------------------------------------------------- optimize ---

def _optimize_one(args):
    path, cfg = args
    scene, name = load_scene(path), os.path.basename(path)
    try:
        return {**optimize(initial_store(scene), scene, cfg).to_dict(), "scene": name}
    except Diverged as exc:
        return {"scene": name, "diverged": str(exc)}


def cmd_optimize(args):
    base = OptimConfig.from_json_file(args.config) if args.config else OptimConfig()
    cfg = ablation_config(args.ablation, base)
    _check_jobs(args.jobs)
    scenes = scene_dirs(args.scenes)
    out_dir = args.out or _default_out(f"optimize_{args.ablation}")
    # the directory is made once every scene is read and refined
    results = _map_jobs(_optimize_one, [(path, cfg) for _, path in scenes], args.jobs)
    os.makedirs(out_dir, exist_ok=True)

    any_diverged = False
    summary_rows = []
    for res in results:
        name = res["scene"]
        with open(os.path.join(out_dir, f"report_{name}.json"), "w") as fh:
            json.dump(res, fh, indent=2, sort_keys=True)
        if "diverged" in res:
            any_diverged = True
            summary_rows.append([name, args.ablation, "diverged", "", "", "", ""])
            continue
        _write_csv(
            os.path.join(out_dir, f"epochs_{name}.csv"),
            list(res["epochs"][0]),
            [list({**e, "accepted": int(e["accepted"])}.values()) for e in res["epochs"]],
        )
        ini, fin = res["initial_metrics"], res["final_metrics"]
        summary_rows.append(
            [
                name, args.ablation, res["termination"],
                ini.get("pose_tangent_rms", ""), fin.get("pose_tangent_rms", ""),
                ini.get("ate", ""), fin.get("ate", ""),
            ]
        )
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        ["scene", "ablation", "termination", "pose_err_init", "pose_err_final",
         "ate_init", "ate_final"],
        summary_rows,
    )
    _write_manifest(
        out_dir, "optimize",
        {"optim": cfg.to_dict(), "ablation": args.ablation, "scenes": args.scenes},
        args.config,
        [seed for seed, _ in scenes],
    )
    print(f"wrote {len(results)} report(s) under {out_dir}")
    return EXIT_DIVERGED if any_diverged else EXIT_OK


# ----------------------------------------------------------------- eval ---

def _paired_grids(pred_dir, gt_dir):
    """(prediction, ground truth) points of each frame, paired by file name, in name order."""
    pred, gt = ({os.path.basename(p): (p, g) for p, g in read_frames(d).items()}
                for d in (pred_dir, gt_dir))
    for name in sorted(pred.keys() ^ gt.keys()):
        if name in pred:
            raise FileFormatError(pred[name][0], f"no ground-truth frame {name} in {gt_dir}")
        raise FileFormatError(gt[name][0], f"no predicted frame {name} in {pred_dir}")
    pairs = [(pred[name], gt[name]) for name in sorted(pred)]
    for (path, p), (gt_path, g) in pairs:
        if p.points.shape != g.points.shape:
            (h, w), (gh, gw) = p.points.shape[:2], g.points.shape[:2]
            raise FileFormatError(path, f"{h}x{w} frame, but {gt_path} is {gh}x{gw}")
    return [(p.points, g.points) for (_, p), (_, g) in pairs]


def cmd_eval(args):
    selected = (
        list(ALL_METRICS) if args.metrics == "all" else args.metrics.split(",")
    )
    unknown = set(selected) - set(ALL_METRICS)
    if unknown:
        raise ConfigInvalid("metrics", f"unknown metric(s) {sorted(unknown)}")

    # input paths go in the manifest, not the report, so identical runs in
    # different directories stay byte-identical
    report = MetricReport(metadata={
        "ate_alignment": "similarity",
        "rpe_step": args.rpe_step,
        "accuracy_convention": "percent",
        "depth_convention": "fraction",
    })

    if {"ate", "rpe", "relpose"} & set(selected):
        (path, est), (gt_path, gt) = read_pose_file(args.pred), read_pose_file(args.gt)
        if len(est) != len(gt):
            raise FileFormatError(path, f"{len(est)} poses, but {gt_path} holds {len(gt)}")
        pair = TrajectoryPair(est, gt)
        if "rpe" in selected and not 1 <= args.rpe_step < len(pair):
            raise ConfigInvalid("rpe_step", f"must be in [1, {len(pair)}), {len(pair)} frames")
        if "ate" in selected:
            report.add("ate", ate(pair))
        if "rpe" in selected:
            res = rpe(pair, step=args.rpe_step)
            report.add("rpe_trans", res.trans)
            report.add("rpe_rot_deg", res.rot_deg)
        if "relpose" in selected:
            acc = rel_pose_accuracy(pair)
            report.add("rra_30", acc.rra)
            report.add("rta_30", acc.rta)
            report.add("auc_30", acc.auc)
            report.metadata["relpose_skipped_pairs"] = acc.n_skipped

    if "tracks3d" in selected:
        (path, (est_pts, est_vis, _)), (gt_path, (gt_pts, gt_vis, _)) = (
            read_track_file(d) for d in (args.pred, args.gt))
        if est_pts.shape != gt_pts.shape:
            (n, t), (gn, gt_t) = est_pts.shape[:2], gt_pts.shape[:2]
            raise FileFormatError(path, f"{n}x{t} tracks, but {gt_path} is {gn}x{gt_t}")
        res = tapvid3d_metrics(est_pts, est_vis, gt_pts, gt_vis)
        report.add("aj_3d", res.aj)
        report.add("apd_3d", res.apd)
        report.add("oa", res.oa)

    if {"pointmap", "depth"} & set(selected):
        pairs = _paired_grids(args.pred, args.gt)
        if "pointmap" in selected:
            per_frame = map_ordered(
                lambda pair: pointmap_metrics(
                    pair[0].reshape(-1, 3), pair[1].reshape(-1, 3), use_icp=args.icp
                ),
                pairs,
            )
            for field_name in (
                "acc_mean", "acc_median", "comp_mean", "comp_median",
                "nc_mean", "nc_median",
            ):
                report.add(
                    f"pointmap_{field_name}",
                    float(np.mean([getattr(r, field_name) for r in per_frame])),
                )
        if "depth" in selected:
            # depth is the z channel of the camera-frame grids
            preds, gts = [p[..., 2] for p, _ in pairs], [g[..., 2] for _, g in pairs]
            for mode in ("scale", "scale_and_shift"):
                res = depth_metrics(preds, gts, mode=mode, per="sequence")
                tag = "scale" if mode == "scale" else "scaleshift"
                report.add(f"depth_absrel_{tag}", res.abs_rel)
                report.add(f"depth_delta125_{tag}", res.delta_125)
            res = depth_metrics(preds, gts, mode="scale", per="image")
            report.add("depth_absrel_perimage", res.abs_rel)
            report.add("depth_delta125_perimage", res.delta_125)

    # the directory is made once every input is read and every metric computed
    out_dir = args.out or _default_out("eval")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        fh.write(report.to_json())
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write(report.to_csv())
    _write_manifest(
        out_dir, "eval",
        {"metrics": selected, "pred": os.path.abspath(args.pred),
         "gt": os.path.abspath(args.gt)},
        None, [],
    )
    print(report.to_json())
    return EXIT_OK


# ------------------------------------------------------------ gradcheck ---

def cmd_gradcheck(args):
    if args.fixtures < 1:
        raise ConfigInvalid("fixtures", f"must be >= 1, got {args.fixtures}")
    if args.seed < 0:
        raise ConfigInvalid("seed", f"must be >= 0, got {args.seed}")
    for name in ("h", "tol"):
        value = getattr(args, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigInvalid(name, f"must be a positive finite number, got {value}")
    rows = []
    failed = False
    for k in range(args.fixtures):
        for selfsup in (False, True):
            problem, store = random_coupling_fixture(1000 * k + args.seed, selfsup=selfsup)
            for row in gradcheck_sweep(problem, store, h=args.h, tol=args.tol, seed=k):
                rows.append(
                    [k, "selfsup" if selfsup else "supervised", row["term"],
                     row["block"], row["max_rel_err"], "pass" if row["passed"] else "FAIL"]
                )
                failed |= not row["passed"]

    widths = [8, 11, 14, 7, 13, 5]
    header = ["fixture", "mode", "term", "block", "max_rel_err", "status"]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [str(row[0]), row[1], row[2], row[3], f"{row[4]:.3e}", row[5]]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    n_failed = sum(r[5] == "FAIL" for r in rows)
    print(f"{len(rows) - n_failed}/{len(rows)} checks passed (h={args.h}, tol={args.tol})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(os.path.join(args.out, "gradcheck.csv"), header, rows)
    return EXIT_GRADCHECK if failed else EXIT_OK


# ----------------------------------------------------------------- main ---

def build_parser():
    parser = argparse.ArgumentParser(
        prog="trajcouple",
        description="Coupled track/pointmap/pose optimization experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic scenes")
    p.add_argument("--config", help="scene config JSON (defaults apply if omitted)")
    p.add_argument("--out", help=f"output directory (default ${OUTPUT_ROOT_ENV}/scenes)")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("optimize", help="run the joint optimizer over scenes")
    p.add_argument("--scenes", required=True, help="scene root written by gen")
    p.add_argument("--config", help="optimizer config JSON")
    p.add_argument(
        "--ablation", default="cons_cam", help=f"one of {sorted(ABLATIONS)}"
    )
    p.add_argument("--out", help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True, help="prediction directory")
    p.add_argument("--gt", required=True, help="ground-truth directory")
    p.add_argument("--metrics", default="all", help=f"comma list of {ALL_METRICS}")
    p.add_argument("--out", help="output directory")
    p.add_argument("--rpe-step", type=int, default=1)
    p.add_argument("--icp", action="store_true", help="refine pointmap alignment with ICP")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--fixtures", type=int, default=10)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional output directory for the CSV table")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileFormatError, OSError) as exc:  # an OSError's message names its file
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TrajCoupleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
