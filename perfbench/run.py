"""trajcouple benchmark: one workload per process, closed loop, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload refine_large_full --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One client runs one operation at a time and starts the next when the
previous one has returned (a closed loop).  Operations run until the
measured operation time reaches ``--seconds`` and every input has run at
least once.  Every output is checked outside the timed region.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs each operation untraced and then traced, and reports per-layer span
costs.  The last line of standard output is one JSON object.  See
perfbench/README.md.
"""

from __future__ import annotations

import os

# single-threaded BLAS, set before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("refine_large_full", "refine_small_mix", "scene_io_eval")
SETUP_REPS = 3

MODULES = ("pose", "pointmap", "tracks", "grad", "losses", "synthetic", "optimize",
           "metrics", "cli")
METHODS = ("grad.Tape.scatter", "grad.ParamStore.copy_into",
           "losses.CouplingProblem.evaluate",
           "losses.CouplingProblem.refresh_static_mask")
# computed, not measured: a bilinear sample reads 4 corners x 3 float64 and
# does 12 multiplies + 9 adds; a scatter entry reads an index and a partial
# and updates one float64 (read + write) with one add
GATHER_BYTES, GATHER_FLOPS = 4 * 3 * 8, 21
SCATTER_BYTES, SCATTER_FLOPS = 4 * 8, 1

SELF_MS = (
    "pointmap.bilinear_gather", "pointmap.corner_data", "grad.Tape.scatter",
    "grad.ParamStore.copy_into", "losses.CouplingProblem.evaluate",
    "losses.transform_samples", "losses.pose_stacks",
    "losses.CouplingProblem.refresh_static_mask", "optimize.optimize",
    "synthetic.generate", "synthetic.save_scene", "synthetic.load_scene",
    "pointmap.read_pointmap", "pointmap.write_pointmap", "tracks.read_tracks",
    "tracks.write_tracks", "metrics.pointmap_metrics", "metrics.estimate_normals",
    "metrics.tapvid3d_metrics", "metrics.depth_metrics", "metrics.rel_pose_accuracy",
    "pose.icp_refine", "pose.umeyama", "cli.cmd_eval",
)
CALLS = (
    "pointmap.bilinear_gather", "grad.Tape.scatter", "losses.CouplingProblem.evaluate",
    "losses.pose_stacks", "pose.so3_exp", "losses.CouplingProblem.refresh_static_mask",
    "optimize.optimize", "metrics.pointmap_metrics", "metrics.estimate_normals",
    "metrics.tapvid3d_metrics", "metrics.depth_metrics", "metrics.rel_pose_accuracy",
    "metrics.ate", "pose.umeyama", "pose.icp_refine",
)
END_TO_END_UNITS = {
    "setup_s": "s", "scene_s_p50": "s", "scenes_per_s": "scenes/s",
    "epochs_per_s": "epochs/s", "peak_rss_mb": "MiB", "ok_frac": "fraction",
    "pose_rms_final": "tangent", "track_err_final": "diag", "grid_err_final": "diag",
    "loss_ratio_final": "ratio",
}


def gather_counts(args):
    return {"samples": len(args["frames"])}


def scatter_counts(args):
    admitted = args["routing"].admits(args["block"])
    return {"entries": len(args["indices"]) if admitted else 0}


COUNTS = {"pointmap.bilinear_gather": gather_counts, "grad.Tape.scatter": scatter_counts}


def import_program():
    """Import the trajcouple sources of this checkout, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "trajcouple", "__init__.py")):
        print(f"no trajcouple sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]


def import_seconds():
    """Wall time of a fresh interpreter importing the whole program."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import trajcouple.cli"], env=env, cwd=ROOT,
                   check=True)
    return perf_counter() - t0


def environment():
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    for index in range(8):
        cache = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        try:
            with open(f"{cache}/level") as fh, open(f"{cache}/size") as fs:
                level, size = fh.read().strip(), fs.read().strip()
        except OSError:
            break
        if level in ("2", "3"):
            env[f"l{level}_size"] = size
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        env["cpu_model"] = platform.processor()
    return env


@dataclass
class Record:
    """One operation: input index, measured latency and checked outcome."""

    idx: int
    latency: float
    outcome: object


def execute(wl, idx, tracer=None):
    from workloads import Outcome

    t0 = perf_counter()
    try:
        with tracer.op() if tracer else contextlib.nullcontext():
            result = wl.run(idx)
    except Exception as exc:  # a failed operation is counted, the loop goes on
        return Record(idx, perf_counter() - t0, Outcome(failure=f"{type(exc).__name__}: {exc}"))
    latency = perf_counter() - t0
    try:
        outcome = wl.check(idx, result)
    except Exception as exc:
        outcome = Outcome(failure=f"check raised {type(exc).__name__}: {exc}")
    return Record(idx, latency, outcome)


def closed_loop(wl, seconds, op, min_ops=0):
    """Ops until ``seconds`` of op time and at least ``min_ops`` ops.

    ``op(idx)`` runs input ``idx`` and returns its Record.  The loop ends
    only at a multiple of the workload's ``round_size``.
    """
    records = []
    busy = 0.0
    while True:
        n = len(records)
        if n >= min_ops and n % wl.round_size == 0 and busy >= seconds:
            return records
        rec = op(n % wl.n_inputs)
        busy += rec.latency
        records.append(rec)


def verify_repeats(warmup, records):
    """Every re-run of an input must reproduce its first output byte for byte."""
    first = {warmup.idx: warmup.outcome.digest}
    for rec in records:
        if rec.outcome.failure:
            continue
        seen = first.setdefault(rec.idx, rec.outcome.digest)
        if rec.outcome.digest != seen:
            rec.outcome.failure = "output not byte-identical to an earlier run of this input"


def quality(records):
    """Geometric mean of each quality figure over the distinct inputs (first run of each)."""
    per_input = {}
    for rec in records:
        per_input.setdefault(rec.idx, rec.outcome.quality)
    values = [q for q in per_input.values() if q]
    names = [k for k in END_TO_END_UNITS if k.endswith("_final")]
    # all zeros only when every operation failed; the result then reads correct=false
    return {k: math.exp(sum(math.log(q[k]) for q in values) / len(values)) if values else 0.0
            for k in names}


def end_to_end(setup_times, records, attempted, failed):
    busy = sum(r.latency for r in records)
    metrics = {
        "setup_s": (median(setup_times), len(setup_times)),
        "scene_s_p50": (median(r.latency for r in records), len(records)),
        "scenes_per_s": (len(records) / busy, len(records)),
        "epochs_per_s": (sum(r.outcome.epochs for r in records) / busy, len(records)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "ok_frac": ((attempted - failed) / attempted, attempted),
    }
    n_inputs = len({r.idx for r in records})
    for name, value in quality(records).items():
        metrics[name] = (value, n_inputs)
    return {k: (metrics[k][0], END_TO_END_UNITS[k], metrics[k][1]) for k in END_TO_END_UNITS}


def per_layer(wl, tracer, untraced, traced):
    from tracer import OP_SPAN

    n = len(traced)
    self_s, incl_s, calls, outside_gen = tracer.summary(exclude_under="synthetic.generate")
    wall = sum(r.latency for r in traced)
    base = sum(r.latency for r in untraced)
    epochs = sum(r.outcome.epochs for r in traced)
    accepted = sum(r.outcome.accepted for r in traced)
    evals = calls["losses.CouplingProblem.evaluate"]
    opt_calls = calls["optimize.optimize"]
    # per optimize call: one taped evaluation per epoch, one final, the rest are line search
    line_search = evals - (epochs + opt_calls) if opt_calls else 0
    samples = tracer.counters["pointmap.bilinear_gather.samples"]
    entries = tracer.counters["grad.Tape.scatter.entries"]
    terms = wl.term_ms() if hasattr(wl, "term_ms") else {}

    m = {}
    for name in SELF_MS:
        m[f"{name}.self_ms"] = (1000.0 * self_s[name] / n, "ms/op")
    for name in CALLS:
        m[f"{name}.calls"] = (calls[name] / n, "calls/op")
    for mod in MODULES:
        names = [k for k in calls if k.startswith(mod + ".")]
        m[f"layer.{mod}.self_ms"] = (1000.0 * sum(self_s[k] for k in names) / n, "ms/op")
        m[f"layer.{mod}.calls"] = (sum(calls[k] for k in names) / n, "calls/op")
    for mod in ("losses", "grad"):
        count = sum(v for k, v in outside_gen.items() if k.startswith(mod + "."))
        m[f"layer.{mod}.calls_outside_generate"] = (count / n, "calls/op")
    m.update({
        "pointmap.bilinear_gather.samples": (samples / n, "count/op"),
        "pointmap.bilinear_gather.bytes_computed": (samples * GATHER_BYTES / n, "B/op"),
        "pointmap.bilinear_gather.ops_per_byte": (
            GATHER_FLOPS / GATHER_BYTES if samples else 0.0, "flop/B"),
        "pointmap.bilinear_gather.self_share": (
            self_s["pointmap.bilinear_gather"] / wall, "fraction"),
        "grad.Tape.scatter.entries": (entries / n, "count/op"),
        "grad.Tape.scatter.bytes_computed": (entries * SCATTER_BYTES / n, "B/op"),
        "grad.Tape.scatter.ops_per_byte": (
            SCATTER_FLOPS / SCATTER_BYTES if entries else 0.0, "flop/B"),
        "losses.pose_stacks.self_share": (self_s["losses.pose_stacks"] / wall, "fraction"),
        "losses.term_ms.cons": (terms.get("cons", 0.0), "ms"),
        "losses.term_ms.cam": (terms.get("cam", 0.0), "ms"),
        "losses.term_ms.anchor": (terms.get("anchor", 0.0), "ms"),
        "optimize.evals_per_epoch": (evals / epochs if opt_calls else 0.0, "evals/epoch"),
        "optimize.accept_ratio": (accepted / line_search if line_search else 0.0, "fraction"),
        "optimize.optimize.ms_per_epoch": (
            1000.0 * incl_s["optimize.optimize"] / epochs if opt_calls else 0.0, "ms/epoch"),
        "bench.op.self_ms": (1000.0 * self_s[OP_SPAN] / n, "ms/op"),
        "trace.spans": (sum(calls.values()) / n, "count/op"),
        "trace.overhead_ms": (1000.0 * (wall - base) / n, "ms/op"),
        "trace.overhead_frac": ((wall - base) / base, "fraction"),
    })
    return {k: (v, unit, n) for k, (v, unit) in m.items()}


def run_workload(args):
    import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS):
            t_import = import_seconds()
            t0 = perf_counter()
            wl.setup()
            setup_times.append(t_import + perf_counter() - t0)
        warmup = execute(wl, 0)
        if args.trace:
            # each input runs untraced and then traced, back to back, so the
            # overhead compares runs that saw the same machine state
            tracer = Tracer()
            untraced = []

            def paired(idx):
                untraced.append(execute(wl, idx))
                tracer.install(MODULES, METHODS, COUNTS)
                try:
                    return execute(wl, idx, tracer)
                finally:
                    tracer.uninstall()

            traced = closed_loop(wl, args.seconds / 2.0, paired)
            records = untraced + traced
        else:
            # every input runs at least once, for the quality figures
            records = closed_loop(wl, args.seconds, lambda idx: execute(wl, idx), wl.n_inputs)
        verify_repeats(warmup, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(r.idx, r.outcome.failure) for r in [warmup] + records if r.outcome.failure]
    if args.trace:
        metrics = per_layer(wl, tracer, untraced, traced)
        tracer.write(os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl"))
    else:
        metrics = end_to_end(setup_times, records, len(records) + 1, len(failures))
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(records)} ops, "
          f"{len(failures)} failed")
    for idx, reason in failures[:20]:
        print(f"# FAILED input {idx}: {reason}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:12s} (n={n})")
    doc = {
        "correct": not failures,
        "attempted": len(records) + 1,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                   "samples": {k: n for k, (_, _, n) in metrics.items()},
                   "failures": failures, **doc}, fh, indent=1, sort_keys=True)
    print(json.dumps(doc))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for key, val in doc["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
