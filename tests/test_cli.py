import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from trajcouple import cli, parallel
from trajcouple.cli import main
from trajcouple.errors import DegenerateConfiguration
from trajcouple.grad import Tape
from trajcouple.metrics import TrajectoryPair, ate, pointmap_metrics
from trajcouple.pointmap import PointMapGrid, read_pointmap, write_pointmap
from trajcouple.pose import read_poses, write_poses
from trajcouple.tracks import read_static_mask, read_tracks, write_static_mask, write_tracks


def tree_digest(root, skip=("manifest.json",)):
    """Stable digest of every file under root except the skipped names."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


SRC = os.path.dirname(os.path.dirname(cli.__file__))  # the directory that holds the package

# run by fresh_python: the CLI's exit code, then the scipy modules the process loaded on stdout
RUN_CLI = """
import sys
from trajcouple.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


def fresh_python(code, *args, timeout=120, **env):
    """Run code with args in a new interpreter that imports this package."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=path, **env))


SMALL_SCENE = {
    "n_frames": 5, "n_static": 16, "n_dynamic": 0, "height": 10, "width": 10,
    "sigma_pointmap": 0.01, "sigma_pose": 0.04,
}
FAST_OPTIM = {
    "step_poses": 0.01, "step_tracks": 0.02, "step_grids": 0.01, "max_epochs": 40,
}


class TestGen:
    def test_deterministic_across_runs(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "a"), "--seeds", "7"]) == 0
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "b"), "--seeds", "7"]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_manifest_stable_apart_from_timestamp(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        main(["gen", "--config", cfg, "--out", str(tmp_path / "a"), "--seeds", "1,2"])
        main(["gen", "--config", cfg, "--out", str(tmp_path / "b"), "--seeds", "1,2"])
        docs = []
        for sub in ("a", "b"):
            with open(tmp_path / sub / "manifest.json") as fh:
                doc = json.load(fh)
            doc.pop("timestamp")
            doc.pop("out_dir")
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("field,value", [("n_frames", 0), ("n_static", -1), ("n_dynamic", -1)])
    def test_invalid_config_exit_2_names_field(self, tmp_path, capsys, field, value):
        cfg = write_json(tmp_path / "scene.json", {field: value})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"invalid config field '{field}'" in err and str(cfg) in err

    def test_layout_error_leaves_no_out_dir(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "scene.json",
                         {"height": 2, "width": 2, "n_static": 1, "n_dynamic": 1})
        out = tmp_path / "o"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 2
        assert "grid too small" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["-1", "3,-2"])
    def test_negative_seed_exit_2_names_field(self, tmp_path, capsys, seeds):
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--seeds", seeds]) == 2
        assert "'seeds'" in capsys.readouterr().err

    def test_no_dynamic_tracks_all_static_mask(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", {**SMALL_SCENE, "n_dynamic": 0})
        main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--seeds", "3"])
        mask = read_static_mask(tmp_path / "o" / "seed_0003" / "gt" / "static_mask.txt")
        assert mask.all()

    def test_env_var_default_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRAJCOUPLE_OUT", str(tmp_path / "root"))
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        assert main(["gen", "--config", cfg, "--seeds", "1"]) == 0
        assert (tmp_path / "root" / "scenes" / "seed_0001").is_dir()

    def test_parallel_jobs_identical_output(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        main(["gen", "--config", cfg, "--out", str(tmp_path / "a"), "--seeds", "1,2,3"])
        main(["gen", "--config", cfg, "--out", str(tmp_path / "b"), "--seeds", "1,2,3",
              "--jobs", "3"])
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


class SerialPool:
    """A ProcessPoolExecutor stand-in that maps in this process and records max_workers."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, work):
        return map(fn, work)


class TestMapJobs:
    @pytest.fixture(autouse=True)
    def serial_pool(self, monkeypatch):
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(SerialPool, "made", [])

    @pytest.mark.parametrize("jobs, items, workers", [
        (3, 0, []), (3, 1, []), (1, 4, []), (3, 2, [2]), (2, 5, [2]),
    ])
    def test_no_more_workers_than_items(self, jobs, items, workers):
        assert cli._map_jobs(abs, [-k for k in range(items)], jobs) == list(range(items))
        assert SerialPool.made == workers

    def test_gen_of_one_seed_runs_in_process(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "a"), "--seeds", "0",
                     "--jobs", "3"]) == 0
        assert SerialPool.made == [] and (tmp_path / "a" / "seed_0000").is_dir()


def poison_pointmap(path, value=float("nan")):
    """Overwrite one float of a .pm file in place (after its 24-byte header)."""
    with open(path, "r+b") as fh:
        fh.seek(24 + 8 * 7)
        fh.write(np.array([value], dtype="<f8").tobytes())
    return str(path)


def poison_row_file(path, line, field, value):
    """Set one whitespace-separated field of one line of a text row file."""
    lines = path.read_text().splitlines()
    fields = lines[line].split()
    fields[field] = value
    lines[line] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def poison_bytes(path, where):
    """Insert a 0xff byte, which no UTF-8 text holds, at the start or in the last line."""
    data = path.read_bytes()
    at = 0 if where == "start" else data.rindex(b"\n", 0, -1) + 2
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    return str(path)


def cut_rows(path, keep):
    """Rewrite a track or static-mask file with only its samples keep selects."""
    if path.name == "static_mask.txt":
        write_static_mask(path, read_static_mask(path)[keep])
    else:
        write_tracks(path, *(a[keep] for a in read_tracks(path, pseudo=True)))
    return path


def rewrite_frame(path, size=None, index=None):
    """Rewrite a .pm frame cut to size x size pixels, or with another header frame index."""
    grid = read_pointmap(path)
    points = grid.points if size is None else grid.points[:size, :size]
    write_pointmap(path, PointMapGrid(points, grid.frame_index if index is None else index))
    return path


def damage_scene(scene, case):
    """Damage a 4-frame 16x16 scene, or its root, as case says; returns the path to name."""
    gt, est = scene / "gt", scene / "est"
    if case == "est_tracks_2_short":
        return cut_rows(est / "tracks.txt", np.s_[:-2])
    if case == "gt_tracks_frame_short":
        return cut_rows(gt / "tracks.txt", np.s_[:, :-1])
    if case == "est_rel_poses_short":
        write_poses(est / "rel_poses.txt", read_poses(est / "rel_poses.txt")[:-1])
        return est / "rel_poses.txt"
    if case == "static_mask_track_short":
        return cut_rows(gt / "static_mask.txt", np.s_[:-1])
    if case == "pseudo_tracks_track_short":
        return cut_rows(gt / "pseudo_tracks.txt", np.s_[:-1])
    if case == "one_frame_8x8":
        return rewrite_frame(est / "pointmaps" / "frame_002.pm", size=8)
    if case == "all_frames_8x8":
        for sub in (gt, est):
            for frame in (sub / "pointmaps").iterdir():
                rewrite_frame(frame, size=8)
        return gt / "pointmaps" / "frame_000.pm"
    if case == "gt_pixel_off_domain":
        return poison_row_file(gt / "tracks.txt", 2, 6, "42.0")
    if case == "est_pixel_differs":
        return poison_row_file(est / "tracks.txt", 2, 6, "1.5")
    if case == "pseudo_pixel_differs":
        return poison_row_file(gt / "pseudo_tracks.txt", 2, 6, "1.5")
    if case == "header_index_5":
        return rewrite_frame(est / "pointmaps" / "frame_002.pm", index=5)
    if case == "extra_frame":
        extra = est / "pointmaps" / "frame_007.pm"
        extra.write_bytes((est / "pointmaps" / "frame_003.pm").read_bytes())
        return extra
    if case == "seed_00005":  # a second name for seed 5
        return shutil.copytree(scene, scene.parent / "seed_00005")
    assert case == "seed_abc"
    (scene.parent / "seed_abc").mkdir()
    return scene.parent / "seed_abc"


ROW_FILES = ["gt/tracks.txt", "gt/pseudo_tracks.txt", "gt/static_mask.txt", "gt/poses.txt",
             "gt/rel_poses.txt", "est/tracks.txt", "est/rel_poses.txt"]


class TestOptimize:
    def run_gen(self, tmp_path, seeds="5", scene=SMALL_SCENE):
        cfg = write_json(tmp_path / "scene.json", scene)
        out = tmp_path / "scenes"
        assert main(["gen", "--config", cfg, "--out", str(out), "--seeds", seeds]) == 0
        return out

    def test_non_finite_pointmap_exit_3_names_path(self, tmp_path, capsys):
        scenes = self.run_gen(tmp_path)
        bad = poison_pointmap(scenes / "seed_0005" / "est" / "pointmaps" / "frame_002.pm")
        code = main(["optimize", "--scenes", str(scenes), "--ablation", "cons_cam",
                     "--out", str(tmp_path / "opt")])
        assert code == 3
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize("file,line,field,value", [
        ("tracks.txt", 3, 5, "nan"),  # visibility of one sample
        ("static_mask.txt", 0, 1, "x"),  # header
        ("static_mask.txt", 2, 1, "-1"),  # frame index
        ("tracks.txt", 4, 2, "nan"),  # x of one sample
        ("tracks.txt", 4, 6, "nan"),  # px of one sample
        ("rel_poses.txt", 2, 4, "x"),  # rotation entry
        ("rel_poses.txt", 2, 11, "nan"),  # translation
        ("rel_poses.txt", 2, 0, "7"),  # index of the second pose
    ])
    def test_bad_row_file_exit_3_names_path(self, tmp_path, capsys, file, line, field, value):
        scenes = self.run_gen(tmp_path)
        bad = poison_row_file(scenes / "seed_0005" / "gt" / file, line, field, value)
        code = main(["optimize", "--scenes", str(scenes), "--ablation", "cons_cam",
                     "--out", str(tmp_path / "opt")])
        assert code == 3
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize("file,line,field,value", [
        ("est/tracks.txt", 6, 3, "inf"),  # y of one sample
        ("est/tracks.txt", 6, 7, "nan"),  # py of one sample
        ("gt/pseudo_tracks.txt", 9, 6, "nan"),  # px of one sample
    ])
    def test_non_finite_track_value_exit_3_names_line(
        self, tmp_path, capsys, file, line, field, value
    ):
        scenes = self.run_gen(tmp_path)
        bad = poison_row_file(scenes / "seed_0005" / file, line, field, value)
        code = main(["optimize", "--scenes", str(scenes), "--ablation", "selfsup",
                     "--out", str(tmp_path / "opt")])
        assert code == 3
        assert f"{bad}:{line + 1}" in capsys.readouterr().err

    # with 48 tracks the track files outgrow the reader's first 8 KiB chunk, so
    # a byte in their last line fails in the row parser, not the header read
    @pytest.mark.parametrize("where", ["start", "last_line"])
    @pytest.mark.parametrize("file", ROW_FILES)
    def test_non_utf8_file_exit_3_names_path(self, tmp_path, capsys, file, where):
        scenes = self.run_gen(tmp_path, scene={**SMALL_SCENE, "n_static": 48})
        bad = poison_bytes(scenes / "seed_0005" / file, where)
        code = main(["optimize", "--scenes", str(scenes), "--ablation", "cons_cam",
                     "--out", str(tmp_path / "opt")])
        assert code == 3
        assert f"{bad}: not " in capsys.readouterr().err

    # the tau_* cases hold a leftover 'derived' object of earlier versions,
    # which is ignored: the run matches the clean scene's byte for byte
    @pytest.mark.parametrize(
        "case", ["truncated", "not_object", "no_config", "config_not_object", "bad_field",
                 "tau_string", "tau_null", "tau_list", "tau_nan", "tau_negative"]
    )
    def test_damaged_scene_config(self, tmp_path, capsys, case):
        scenes = self.run_gen(tmp_path)
        cfg = write_json(tmp_path / "optim.json", {**FAST_OPTIM, "max_epochs": 3})
        argv = ["optimize", "--scenes", str(scenes), "--config", cfg, "--out"]
        assert main(argv + [str(tmp_path / "clean")]) == 0
        path = scenes / "seed_0005" / "scene_config.json"
        text = path.read_text()
        doc = json.loads(text)
        path.write_text({
            "truncated": text[:40],
            "not_object": "[1]",
            "no_config": "{}",
            "config_not_object": json.dumps({**doc, "config": [1]}),
            "bad_field": json.dumps({**doc, "config": {**doc["config"], "n_frames": 4.5}}),
            "tau_string": json.dumps({**doc, "derived": {"tau_static": "x"}}),
            "tau_null": json.dumps({**doc, "derived": {"tau_static": None}}),
            "tau_list": json.dumps({**doc, "derived": {"tau_static": [1]}}),
            "tau_nan": json.dumps({**doc, "derived": {"tau_static": float("nan")}}),
            "tau_negative": json.dumps({**doc, "derived": {"tau_static": -1.0}}),
        }[case])
        capsys.readouterr()
        code = main(argv + [str(tmp_path / "opt")])
        err = capsys.readouterr().err
        if case == "bad_field":
            assert code == 2 and "'n_frames'" in err and str(path) in err
        elif case.startswith("tau_"):
            assert code == 0 and err == ""
            assert tree_digest(tmp_path / "opt") == tree_digest(tmp_path / "clean")
        else:
            assert code == 3 and str(path) in err

    @pytest.mark.parametrize("ablation", ["cons_cam", "selfsup"])
    @pytest.mark.parametrize("case", [
        "est_tracks_2_short", "gt_tracks_frame_short", "est_rel_poses_short",
        "static_mask_track_short", "pseudo_tracks_track_short", "gt_pixel_off_domain",
        "est_pixel_differs", "pseudo_pixel_differs", "one_frame_8x8", "all_frames_8x8",
        "header_index_5", "extra_frame", "seed_abc", "seed_00005",
    ])
    def test_scene_off_config_exit_3_names_file(self, tmp_path, capsys, case, ablation):
        scenes = self.run_gen(tmp_path, scene={
            "n_frames": 4, "n_static": 12, "n_dynamic": 4, "height": 16, "width": 16,
            "sigma_pose": 0.04,
        })
        bad = damage_scene(scenes / "seed_0005", case)
        capsys.readouterr()
        code = main(["optimize", "--scenes", str(scenes), "--ablation", ablation,
                     "--out", str(tmp_path / "opt")])
        assert code == 3
        assert str(bad) in capsys.readouterr().err
        if case.startswith("seed_"):  # found before any scene is refined
            assert not (tmp_path / "opt").exists()

    @pytest.mark.parametrize("case", ["bad_field", "est_tracks_2_short"])
    def test_bad_scene_same_error_under_jobs(self, tmp_path, capsys, case):
        # a worker's error crosses the process pool intact
        scenes = self.run_gen(tmp_path, seeds="4,5", scene={
            "n_frames": 4, "n_static": 12, "n_dynamic": 4, "height": 16, "width": 16,
        })
        if case == "bad_field":
            bad = scenes / "seed_0005" / "scene_config.json"
            doc = json.loads(bad.read_text())
            bad.write_text(json.dumps({**doc, "config": {**doc["config"], "height": 1}}))
        else:
            bad = damage_scene(scenes / "seed_0005", case)
        runs = []
        for jobs in ("1", "2"):
            capsys.readouterr()
            code = main(["optimize", "--scenes", str(scenes), "--ablation", "cons_cam",
                         "--jobs", jobs, "--out", str(tmp_path / f"opt_{jobs}")])
            runs.append((code, capsys.readouterr().err))
        assert runs[0] == runs[1]
        assert runs[0][0] == (2 if case == "bad_field" else 3) and str(bad) in runs[0][1]

    def test_parallel_jobs_identical_output(self, tmp_path):
        scenes = self.run_gen(tmp_path, seeds="1,2,3")
        cfg = write_json(tmp_path / "optim.json", FAST_OPTIM)
        for jobs in ("1", "2"):
            assert main(["optimize", "--scenes", str(scenes), "--config", cfg,
                         "--ablation", "selfsup", "--jobs", jobs,
                         "--out", str(tmp_path / f"jobs_{jobs}")]) == 0
        one = tree_digest(tmp_path / "jobs_1")
        assert len(one) == 7  # report and epochs per seed, summary
        assert tree_digest(tmp_path / "jobs_2") == one

    def test_ablation_none_keeps_metrics(self, tmp_path):
        scenes = self.run_gen(tmp_path)
        cfg = write_json(tmp_path / "optim.json", FAST_OPTIM)
        out = tmp_path / "opt"
        assert main(["optimize", "--scenes", str(scenes), "--config", cfg,
                     "--ablation", "none", "--out", str(out)]) == 0
        with open(out / "report_seed_0005.json") as fh:
            doc = json.load(fh)
        assert doc["termination"] == "stationary"
        assert doc["initial_metrics"]["pose_tangent_rms"] == doc["final_metrics"]["pose_tangent_rms"]

    def test_full_coupling_reduces_pose_error(self, tmp_path):
        scenes = self.run_gen(tmp_path)
        cfg = write_json(tmp_path / "optim.json", {**FAST_OPTIM, "max_epochs": 200})
        out = tmp_path / "opt"
        assert main(["optimize", "--scenes", str(scenes), "--config", cfg,
                     "--ablation", "cons_cam", "--out", str(out)]) == 0
        with open(out / "report_seed_0005.json") as fh:
            doc = json.load(fh)
        assert (
            doc["final_metrics"]["pose_tangent_rms"]
            < 0.6 * doc["initial_metrics"]["pose_tangent_rms"]
        )
        assert (out / "epochs_seed_0005.csv").exists()
        assert (out / "summary.csv").exists()

    def test_matched_seed_rows_in_summary(self, tmp_path):
        scenes = self.run_gen(tmp_path, seeds="1,2")
        cfg = write_json(tmp_path / "optim.json", FAST_OPTIM)
        for name in ("none", "cam"):
            assert main(["optimize", "--scenes", str(scenes), "--config", cfg,
                         "--ablation", name, "--out", str(tmp_path / name)]) == 0
        rows = {}
        for name in ("none", "cam"):
            with open(tmp_path / name / "summary.csv") as fh:
                lines = fh.read().strip().splitlines()
            rows[name] = [ln.split(",")[0] for ln in lines[1:]]
        assert rows["none"] == rows["cam"]  # same seed column, comparable rows

    def test_unknown_ablation_exit_2(self, tmp_path, capsys):
        scenes = self.run_gen(tmp_path)
        assert main(["optimize", "--scenes", str(scenes), "--ablation", "wat"]) == 2

    def test_unloadable_scene_leaves_no_out_dir(self, tmp_path, capsys):
        scenes = self.run_gen(tmp_path)
        bad = scenes / "seed_0005" / "est" / "rel_poses.txt"
        bad.write_text("garbage\n")
        out = tmp_path / "opt"
        assert main(["optimize", "--scenes", str(scenes), "--out", str(out)]) == 3
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenes_exit_3(self, tmp_path):
        assert main(["optimize", "--scenes", str(tmp_path / "nope"),
                     "--ablation", "none"]) == 3

    def test_divergence_flagged_row_exit_5(self, tmp_path):
        scenes = self.run_gen(tmp_path)
        cfg = write_json(
            tmp_path / "optim.json",
            {"step_poses": 1e8, "step_tracks": 1e8, "step_grids": 1e8,
             "max_backtracks": 0, "max_epochs": 5},
        )
        out = tmp_path / "opt"
        code = main(["optimize", "--scenes", str(scenes), "--config", cfg,
                     "--ablation", "cons_cam", "--out", str(out)])
        assert code == 5
        with open(out / "summary.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert any("diverged" in ln for ln in lines[1:])
        with open(out / "report_seed_0005.json") as fh:
            assert "diverged" in json.load(fh)


NAN = float("nan")


@pytest.fixture(scope="module")
def noisy_scenes(tmp_path_factory):
    """One generated scene with noise and occlusion, shared by the config tests."""
    root = tmp_path_factory.mktemp("noisy")
    cfg = write_json(root / "scene.json", {**SMALL_SCENE, "n_dynamic": 4, "occlusion_span": 2})
    assert main(["gen", "--config", cfg, "--out", str(root / "scenes"), "--seeds", "5"]) == 0
    return root / "scenes"


def config_argv(command, cfg, scenes, out):
    if command == "gen":
        return ["gen", "--config", cfg, "--out", str(out)]
    return ["optimize", "--scenes", str(scenes), "--config", cfg, "--out", str(out)]


class TestConfigDocuments:
    """A config file is checked field by field before any scene is written or read."""

    @pytest.mark.parametrize("command,doc,field", [
        ("gen", {"n_frames": 4.5}, "n_frames"),
        ("gen", {"n_static": True}, "n_static"),
        ("gen", {"sigma_pointmap": NAN}, "sigma_pointmap"),
        ("gen", {"tau_scale": NAN}, "tau_scale"),
        ("gen", {"camera_magnitude": "0.5"}, "camera_magnitude"),
        ("optimize", {"loss": {"delta": NAN}}, "delta"),
        ("optimize", {"step_grids": NAN}, "step_grids"),
        ("optimize", {"step_poses": float("inf")}, "step_poses"),
        ("optimize", {"loss": {"min_weight": 2}}, "min_weight"),
        ("optimize", {"loss": {"min_weight": NAN}}, "min_weight"),
        ("optimize", {"loss": {"use_cam": 1}}, "use_cam"),
        ("optimize", {"loss": [1]}, "loss"),
        ("optimize", {"tol_window": 0}, "tol_window"),  # no longer a field
        ("optimize", {"wat": 1}, "wat"),
        ("optimize", {"loss": {"gate_static": False}}, "gate_static"),  # set by the ablation
        ("optimize", {"mode": "selfsup"}, "mode"),  # no longer a field
        ("optimize", {"clip_norm": 1.0}, "clip_norm"),  # no longer a field
        ("optimize", {"step_growth": 2.0}, "step_growth"),  # no longer a field
        ("optimize", {"loss": {"weight_cons": 2.5}}, "weight_cons"),  # no longer a field
        ("optimize", {"loss": {"weight_anchor": 1.0}}, "weight_anchor"),  # no longer a field
    ])
    def test_bad_field_exit_2_names_field(
        self, tmp_path, capsys, noisy_scenes, command, doc, field
    ):
        cfg = write_json(tmp_path / "cfg.json", doc)
        assert main(config_argv(command, cfg, noisy_scenes, tmp_path / "o")) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [b'{"n_frames": 4', b"[4]", b"\xff\xfe"])
    @pytest.mark.parametrize("command", ["gen", "optimize"])
    def test_unreadable_file_exit_3_names_file(
        self, tmp_path, capsys, noisy_scenes, command, content
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert main(config_argv(command, str(cfg), noisy_scenes, tmp_path / "o")) == 3
        assert str(cfg) in capsys.readouterr().err


class TestFlagValues:
    """A command-line value that can never work exits 2 before any output is written."""

    @pytest.mark.parametrize("command,flag,value", [
        ("gen", "--jobs", "0"),
        ("gen", "--jobs", "-3"),
        ("gen", "--seeds", "1,1"),
        ("gen", "--seeds", "3,1,3"),
        ("optimize", "--jobs", "-3"),
        ("gradcheck", "--h", "0"),
        ("gradcheck", "--h", "-0.5"),
        ("gradcheck", "--h", "nan"),
        ("gradcheck", "--tol", "0"),
        ("gradcheck", "--tol", "inf"),
        ("gradcheck", "--seed", "-1"),
    ])
    def test_out_of_range_exit_2_names_field(
        self, tmp_path, capsys, noisy_scenes, command, flag, value
    ):
        out = tmp_path / "o"
        argv = {"gen": ["gen"], "optimize": ["optimize", "--scenes", str(noisy_scenes)],
                "gradcheck": ["gradcheck", "--fixtures", "1"]}[command]
        assert main(argv + ["--out", str(out), flag, value]) == 2
        assert f"'{flag[2:]}'" in capsys.readouterr().err
        assert not out.exists()


class TestOsErrors:
    @pytest.mark.parametrize("case", ["gen_config_is_dir", "gen_out_is_file", "eval_tracks_is_dir"])
    def test_os_error_exit_3_names_path(self, tmp_path, capsys, case):
        if case == "gen_config_is_dir":
            bad = tmp_path / "cfg"
            bad.mkdir()
            argv = ["gen", "--config", str(bad), "--out", str(tmp_path / "o")]
        elif case == "gen_out_is_file":
            bad = tmp_path / "o"
            bad.write_text("a file\n")
            argv = ["gen", "--out", str(bad)]
        else:
            cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
            assert main(["gen", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
            scene = tmp_path / "s" / "seed_0000"
            bad = scene / "est" / "tracks.txt"
            os.remove(bad)
            bad.mkdir()
            argv = ["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                    "--metrics", "tracks3d", "--out", str(tmp_path / "e")]
        capsys.readouterr()
        assert main(argv) == 3
        assert str(bad) in capsys.readouterr().err


class TestEval:
    def make_dirs(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", {**SMALL_SCENE, "sigma_pointmap": 0.0, "sigma_pose": 0.0})
        out = tmp_path / "scenes"
        main(["gen", "--config", cfg, "--out", str(out), "--seeds", "2"])
        return out / "seed_0002"

    def test_identical_dirs_perfect_report(self, tmp_path):
        scene = self.make_dirs(tmp_path)
        out = tmp_path / "eval"
        assert main(["eval", "--pred", str(scene / "gt"), "--gt", str(scene / "gt"),
                     "--out", str(out)]) == 0
        with open(out / "metrics.json") as fh:
            doc = json.load(fh)["values"]
        assert doc["ate"] < 1e-12
        assert doc["rpe_trans"] < 1e-12
        assert doc["rpe_rot_deg"] < 1e-9
        assert doc["rra_30"] == 100.0 and doc["rta_30"] == 100.0 and doc["auc_30"] == 100.0
        assert doc["aj_3d"] == 100.0 and doc["apd_3d"] == 100.0 and doc["oa"] == 100.0
        assert doc["pointmap_acc_mean"] < 1e-12
        assert doc["pointmap_nc_mean"] == pytest.approx(1.0, abs=1e-12)
        assert doc["depth_absrel_scale"] == 0.0
        assert doc["depth_delta125_scale"] == 1.0

    def test_known_offset_matches_direct_metrics(self, tmp_path):
        scene = self.make_dirs(tmp_path)
        out = tmp_path / "eval"
        # est differs from gt only through the generator's noise settings;
        # rebuild one with pose noise for a non-trivial comparison
        cfg = write_json(tmp_path / "noisy.json", {**SMALL_SCENE, "sigma_pose": 0.05})
        main(["gen", "--config", cfg, "--out", str(tmp_path / "noisy"), "--seeds", "2"])
        noisy = tmp_path / "noisy" / "seed_0002"
        assert main(["eval", "--pred", str(noisy / "est"), "--gt", str(noisy / "gt"),
                     "--metrics", "ate,rpe", "--out", str(out)]) == 0
        with open(out / "metrics.json") as fh:
            doc = json.load(fh)["values"]
        est = read_poses(noisy / "est" / "rel_poses.txt")
        gt = read_poses(noisy / "gt" / "rel_poses.txt")
        assert doc["ate"] == pytest.approx(ate(TrajectoryPair(est, gt)), abs=1e-12)

    def test_missing_file_exit_3_names_path(self, tmp_path, capsys):
        scene = self.make_dirs(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["eval", "--pred", str(empty), "--gt", str(scene / "gt"),
                     "--metrics", "tracks3d", "--out", str(tmp_path / "e")])
        assert code == 3
        assert "tracks.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", ["no_pointmaps_dir", "no_frames", "no_pose_file", "pointmaps_is_file"]
    )
    def test_missing_input_exit_3_names_path(self, tmp_path, capsys, case):
        scene = self.make_dirs(tmp_path)
        est = scene / "est"
        if case == "no_pose_file":  # est carries rel_poses.txt only
            missing, metrics = est / "rel_poses.txt", "ate"
            os.remove(missing)
        else:
            missing, metrics = est / "pointmaps", "pointmap"
            for name in os.listdir(missing):
                os.remove(missing / name)
            if case != "no_frames":
                os.rmdir(missing)
            if case == "pointmaps_is_file":
                missing.write_text("not a directory\n")
        code = main(["eval", "--pred", str(est), "--gt", str(scene / "gt"),
                     "--metrics", metrics, "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("metrics,message", [("relpose", "needs at least 2 frames"),
                                                 ("ate", "needs at least 3 poses")])
    def test_one_frame_scene_exit_2(self, tmp_path, capsys, metrics, message):
        cfg = write_json(tmp_path / "scene.json", {**SMALL_SCENE, "n_frames": 1})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        scene = tmp_path / "s" / "seed_0000"
        capsys.readouterr()
        code = main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--metrics", metrics, "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("value", ["nan", "inf", "1.5"])
    def test_bad_visibility_exit_3_names_path(self, tmp_path, capsys, value):
        scene = self.make_dirs(tmp_path)
        bad = poison_row_file(scene / "est" / "tracks.txt", 7, 5, value)
        code = main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--metrics", "tracks3d", "--out", str(tmp_path / "e")])
        assert code == 3
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value", [(4, "x"), (0, "1.5"), (11, "nan"), (12, "-inf"), (0, "7")])
    def test_bad_pose_file_exit_3_names_line(self, tmp_path, capsys, field, value):
        scene = self.make_dirs(tmp_path)
        bad = poison_row_file(scene / "est" / "rel_poses.txt", 2, field, value)
        code = main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--metrics", "ate", "--out", str(tmp_path / "e")])
        assert code == 3
        assert f"{bad}:3" in capsys.readouterr().err

    def test_huge_rotation_entry_exit_3_under_warnings_as_errors(self, tmp_path):
        scene = self.make_dirs(tmp_path)
        bad = poison_row_file(scene / "est" / "rel_poses.txt", 2, 5, "1e200")
        run = fresh_python(RUN_CLI, "eval", "--pred", scene / "est", "--gt", scene / "gt",
                           "--metrics", "ate", "--out", tmp_path / "e", PYTHONWARNINGS="error")
        assert run.returncode == 3
        assert run.stderr == f"io error: {bad}:3: rotation not orthonormal\n"

    @pytest.mark.parametrize("where", ["start", "last_line"])
    @pytest.mark.parametrize("file,metrics", [("tracks.txt", "tracks3d"), ("rel_poses.txt", "ate")])
    def test_non_utf8_file_exit_3_names_path(self, tmp_path, capsys, file, metrics, where):
        scene = self.make_dirs(tmp_path)
        bad = poison_bytes(scene / "est" / file, where)
        code = main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--metrics", metrics, "--out", str(tmp_path / "e")])
        assert code == 3
        assert f"{bad}: not " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_pointmap_exit_3_names_path(self, tmp_path, capsys, value):
        scene = self.make_dirs(tmp_path)
        bad = poison_pointmap(scene / "est" / "pointmaps" / "frame_000.pm", value)
        code = main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--metrics", "pointmap", "--out", str(tmp_path / "e")])
        assert code == 3
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize("metrics", ["pointmap", "depth", "pointmap,depth"])
    @pytest.mark.parametrize("case", ["renamed_pred", "missing_gt", "shape"])
    def test_unpaired_frame_exit_3_names_file(self, tmp_path, capsys, case, metrics):
        scene = self.make_dirs(tmp_path)
        pred = scene / "est" / "pointmaps"
        if case == "renamed_pred":  # frame_003 has no prediction, frame_099 no ground truth
            os.rename(pred / "frame_003.pm", pred / "frame_099.pm")
            bad = scene / "gt" / "pointmaps" / "frame_003.pm"
        elif case == "missing_gt":
            bad = pred / "frame_004.pm"
            os.remove(scene / "gt" / "pointmaps" / "frame_004.pm")
        else:
            bad = pred / "frame_002.pm"
            grid = read_pointmap(bad)
            write_pointmap(bad, PointMapGrid(grid.points[:5], grid.frame_index))
        code = main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--metrics", metrics, "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["pose_count", "track_count"])
    def test_mismatched_count_exit_3_names_file(self, tmp_path, capsys, case):
        scene = self.make_dirs(tmp_path)
        if case == "pose_count":  # 4 of the 5 poses
            bad, metrics = scene / "est" / "rel_poses.txt", "ate"
            write_poses(bad, read_poses(bad)[:-1])
        else:  # 15 of the 16 tracks
            bad, metrics = cut_rows(scene / "est" / "tracks.txt", slice(1, None)), "tracks3d"
        code = main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--metrics", metrics, "--out", str(tmp_path / "e")])
        assert code == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "99", "5"])
    def test_rpe_step_out_of_range_exit_2_names_field(self, tmp_path, capsys, step):
        scene = self.make_dirs(tmp_path)  # 5 frames: steps 1 to 4
        assert main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--rpe-step", step, "--out", str(tmp_path / "e")]) == 2
        assert "'rpe_step'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["rpe_step", "missing_pred"])
    def test_rejected_eval_leaves_no_out_dir(self, tmp_path, case):
        scene = self.make_dirs(tmp_path)  # 5 frames
        pred, extra, code = scene / "est", ["--rpe-step", "9"], 2
        if case == "missing_pred":
            pred, extra, code = tmp_path / "no_such_dir", [], 3
        out = tmp_path / "e"
        assert main(["eval", "--pred", str(pred), "--gt", str(scene / "gt"), *extra,
                     "--out", str(out)]) == code
        assert not out.exists()

    def test_unknown_metric_exit_2(self, tmp_path):
        scene = self.make_dirs(tmp_path)
        assert main(["eval", "--pred", str(scene / "gt"), "--gt", str(scene / "gt"),
                     "--metrics", "vibes"]) == 2


def run_eval_on_cpus(monkeypatch, scene, out, n_cpus):
    """eval --icp with the affinity mask patched to n_cpus; returns (code, helper threads)."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        patch.setattr(parallel.threading, "Thread", Thread)
        code = main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--icp", "--out", str(out)])
    return code, len(started)


class TestFramePool:
    def make_scene(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", {**SMALL_SCENE, "n_frames": 8})
        main(["gen", "--config", cfg, "--out", str(tmp_path / "scenes"), "--seeds", "4"])
        return tmp_path / "scenes" / "seed_0004"

    def test_outputs_independent_of_cpu_count(self, tmp_path, monkeypatch):
        scene = self.make_scene(tmp_path)
        runs = {}
        for n_cpus in (1, 4):
            out = tmp_path / f"eval_{n_cpus}"
            code, helpers = run_eval_on_cpus(monkeypatch, scene, out, n_cpus)
            assert (code, helpers) == (0, n_cpus - 1)
            runs[n_cpus] = tree_digest(out)
        assert runs[1] == runs[4]
        assert set(runs[1]) == {"metrics.json", "metrics.csv"}

    def test_eval_without_affinity_mask(self, tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: eval counts os.cpu_count()
        scene = self.make_scene(tmp_path)
        assert run_eval_on_cpus(monkeypatch, scene, tmp_path / "mask", 2) == (0, 1)
        monkeypatch.delattr(os, "sched_getaffinity")
        for cpus, expected in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert parallel.cpu_count() == expected
        out = tmp_path / "no_mask"
        assert main(["eval", "--pred", str(scene / "est"), "--gt", str(scene / "gt"),
                     "--icp", "--out", str(out)]) == 0
        assert tree_digest(out) == tree_digest(tmp_path / "mask")

    def test_degenerate_frame_same_error_on_any_cpu_count(self, tmp_path, monkeypatch, capsys):
        scene = self.make_scene(tmp_path)
        # frames 2 and 5 are collinear (different singular values): frame 2 is reported
        for k in (5, 2):
            path = scene / "est" / "pointmaps" / f"frame_{k:03d}.pm"
            grid = read_pointmap(path)
            line = np.linspace(0.0, 1.0 + k, grid.points[..., :1].size)
            points = np.repeat(line.reshape(grid.points.shape[:2])[..., None], 3, axis=-1)
            write_pointmap(path, PointMapGrid(points, grid.frame_index))
            gt = read_pointmap(scene / "gt" / "pointmaps" / f"frame_{k:03d}.pm").points
            with pytest.raises(DegenerateConfiguration) as exc:
                pointmap_metrics(points.reshape(-1, 3), gt.reshape(-1, 3), use_icp=True)
            expected = str(exc.value)
        capsys.readouterr()
        for n_cpus in (1, 4):
            code, _ = run_eval_on_cpus(monkeypatch, scene, tmp_path / "e", n_cpus)
            assert code == 2
            assert capsys.readouterr().err == f"error: {expected}\n"


class TestMapFrames:
    def test_order_and_each_item_once_under_switching(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        calls = [0] * 3000

        def fn(k):
            calls[k] += 1  # each slot is written by the one thread that took k
            return k * k

        result = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(
                parallel.map_ordered(fn, list(range(3000)))))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not worker.is_alive()
        assert result == [[k * k for k in range(3000)]]
        assert calls == [1] * 3000

    def test_lowest_index_failure_raised(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        ran = []

        def fn(k):
            ran.append(k)
            if k == 5:
                time.sleep(0.2)  # fails after item 9 has failed
            if k in (5, 9):
                raise ValueError(k)
            return k

        with pytest.raises(ValueError) as exc:
            parallel.map_ordered(fn, list(range(1000)))
        assert exc.value.args == (5,)
        assert set(range(10)) <= set(ran) and len(ran) < 1000  # hand-out stopped


class TestGradcheck:
    def test_default_sweep_passes(self, tmp_path):
        out = tmp_path / "g"
        assert main(["gradcheck", "--fixtures", "3", "--out", str(out)]) == 0
        assert (out / "gradcheck.csv").exists()

    def test_corrupted_gradient_fails(self, tmp_path, monkeypatch, capsys):
        # the pose and grid blocks reach the tape through Tape.add, the tracks block does not
        add = Tape.add
        monkeypatch.setattr(Tape, "add", lambda tape, block, values: add(tape, block, 1.5 * values))
        assert main(["gradcheck", "--fixtures", "1", "--out", str(tmp_path)]) == 4
        with open(tmp_path / "gradcheck.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {(r["block"], r["status"]) for r in rows} == {
            ("poses", "FAIL"), ("grids", "FAIL"), ("tracks", "pass")}
        assert "FAIL" in capsys.readouterr().out

    def test_no_fixtures_exit_2_names_field(self, capsys):
        assert main(["gradcheck", "--fixtures", "0"]) == 2
        assert "'fixtures'" in capsys.readouterr().err

    def test_impossible_tolerance_fails(self):
        assert main(["gradcheck", "--fixtures", "1", "--tol", "1e-12"]) == 4


class TestReproducibility:
    def test_full_pipeline_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        ocfg = write_json(tmp_path / "optim.json", FAST_OPTIM)
        trees = []
        for run in ("r1", "r2"):
            root = tmp_path / run
            main(["gen", "--config", cfg, "--out", str(root / "scenes"), "--seeds", "1,2"])
            main(["optimize", "--scenes", str(root / "scenes"), "--config", ocfg,
                  "--ablation", "cons_cam", "--out", str(root / "opt")])
            main(["eval", "--pred", str(root / "scenes" / "seed_0001" / "est"),
                  "--gt", str(root / "scenes" / "seed_0001" / "gt"),
                  "--out", str(root / "eval")])
            trees.append(tree_digest(root))
        assert trees[0] == trees[1]


class TestColdStart:
    """Each command loads only the scipy parts it uses, and only when it first uses them."""

    def test_import_loads_no_scipy(self):
        run = fresh_python("import sys, trajcouple.cli\n"
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert (run.returncode, run.stdout) == (0, "[]\n")

    def test_gen_loads_no_spatial(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        run = fresh_python(RUN_CLI, "gen", "--config", cfg, "--out", tmp_path / "o", "--seeds", "1")
        assert run.returncode == 0
        loaded = run.stdout.split()
        assert "scipy.sparse" in loaded  # the sampler's operator
        assert not any(m.startswith("scipy.spatial") for m in loaded)

    def test_eval_without_pointmaps_loads_neither(self, tmp_path):
        cfg = write_json(tmp_path / "scene.json", SMALL_SCENE)
        main(["gen", "--config", cfg, "--out", str(tmp_path / "o"), "--seeds", "1"])
        scene = tmp_path / "o" / "seed_0001"
        run = fresh_python(RUN_CLI, "eval", "--pred", scene / "est", "--gt", scene / "gt",
                           "--metrics", "ate,rpe,relpose,tracks3d,depth", "--out", tmp_path / "e")
        assert run.returncode == 0 and (tmp_path / "e" / "metrics.json").exists()
        loaded = run.stdout.split()
        assert not any(m.startswith(("scipy.sparse", "scipy.spatial")) for m in loaded)


# run by fresh_python under a 2 GiB address-space cap: load_scene or the CLI on the arguments
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from trajcouple.cli import main
from trajcouple.errors import FileFormatError
from trajcouple.synthetic import load_scene
if sys.argv[1] == "load_scene":
    try:
        load_scene(sys.argv[2])
    except FileFormatError as exc:
        print(exc, file=sys.stderr)
        sys.exit(3)
    sys.exit(0)
sys.exit(main(sys.argv[1:]))
"""


class TestHugeFrameCount:
    @pytest.mark.parametrize("entry", ["load_scene", "optimize"])
    def test_exit_3_names_first_missing_frame(self, tmp_path, entry):
        cfg = write_json(tmp_path / "scene.json", {**SMALL_SCENE, "n_frames": 3})
        main(["gen", "--config", cfg, "--out", str(tmp_path / "scenes"), "--seeds", "0"])
        scene = tmp_path / "scenes" / "seed_0000"
        doc = json.loads((scene / "scene_config.json").read_text())
        doc["config"]["n_frames"] = 2**62
        (scene / "scene_config.json").write_text(json.dumps(doc))
        args = (["load_scene", scene] if entry == "load_scene" else
                ["optimize", "--scenes", tmp_path / "scenes", "--out", tmp_path / "opt"])
        run = fresh_python(CAPPED, *args, timeout=60, OPENBLAS_NUM_THREADS="1")
        message = f"{scene / 'gt' / 'pointmaps' / 'frame_003.pm'}: missing pointmap frame\n"
        assert run.returncode == 3
        assert run.stderr == (message if entry == "load_scene" else f"io error: {message}")
