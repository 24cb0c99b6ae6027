"""The committed reference results, recomputed by the package under test.

tests/make_reference.py wrote tests/reference/*.json; see it for what each
file holds.  Strings, booleans and integers (termination, epoch counts, the
accepted steps, sample counts, metadata, the gradcheck rows) must match
exactly.  A float matches when |got - ref| <= RTOL * max(|ref|, FLOOR).

Why RTOL = 1e-10 and FLOOR = 1e-3.  Perturbing every input entry by up to
2 ulp (the fixtures' stores, the scenes' initial stores, the evaluated
files), three times each, moved no figure by more than 3.6e-14 of
max(|ref|, FLOOR) in evaluate.json, 3.9e-13 in optimize.json (20 epochs)
and 1.3e-14 in eval.json, and changed no exact field.  RTOL is over 250
times the largest of these, so a numpy or BLAS build that sums in another
order still passes, while a change of the objective, the step rule or a
metric that moves a figure in its tenth significant digit fails: shifting
the fixtures' Huber delta by a relative 1e-8 moves evaluate.json figures by
2e-8.  FLOOR is the scale of the figures that are (near) zero: a loss that
descends to round-off (the cons ablation ends near 1e-14) or the error of
an exact estimate (track_err of a scene without track noise), which moved
by up to 3.9e-16 absolute.  Every figure is a loss, a percentage or an
error on a unit-diagonal scene with pointmap and pose noise of 0.01 or
more, so an absolute 1e-13 is far below anything these scenes can show.
"""

import json
import os

import pytest

import make_reference

RTOL = 1e-10
FLOOR = 1e-3


def mismatches(got, ref, path=""):
    """(path, got, ref) of each place where got departs from ref, as the module docstring says."""
    if isinstance(ref, dict):
        if sorted(got) != sorted(ref):
            yield f"{path} keys", sorted(got), sorted(ref)
            return
        for key in sorted(ref):
            yield from mismatches(got[key], ref[key], f"{path}/{key}")
    elif isinstance(ref, list):
        if len(got) != len(ref):
            yield f"{path} length", len(got), len(ref)
            return
        for k, (g, r) in enumerate(zip(got, ref)):
            yield from mismatches(g, r, f"{path}[{k}]")
    elif type(got) is not type(ref):
        yield path, got, ref
    elif isinstance(ref, float):
        if not abs(got - ref) <= RTOL * max(abs(ref), FLOOR):
            yield path, got, ref
    elif got != ref:
        yield path, got, ref


def recompute(name, work_dir):
    if name == "evaluate":
        doc = make_reference.evaluate_reference()
    elif name == "optimize":
        doc = make_reference.optimize_reference()
    elif name == "gradcheck":
        doc = make_reference.gradcheck_reference(str(work_dir))
    else:
        doc = make_reference.eval_reference(str(work_dir))
    return json.loads(json.dumps(doc))  # the types the reference file holds


@pytest.mark.parametrize("name", ["evaluate", "optimize", "eval", "gradcheck"])
def test_matches_committed_reference(name, tmp_path):
    with open(os.path.join(make_reference.REFERENCE_DIR, f"{name}.json")) as fh:
        ref = json.load(fh)
    bad = list(mismatches(recompute(name, tmp_path), ref))
    assert not bad, f"{len(bad)} figure(s) differ from {name}.json, first: {bad[:5]}"


@pytest.mark.parametrize("ref,got,differs", [
    (0.25, 0.25 * (1 + 5e-11), False),
    (0.25, 0.25 * (1 + 2e-10), True),
    (0.0, 5e-14, False),
    (0.0, 2e-13, True),
    (3, 3.0, True),  # an integer figure became a float
    (True, 1, True),
    ([1.0, 2.0], [1.0], True),
])
def test_tolerance(ref, got, differs):
    assert bool(list(mismatches(got, ref))) == differs
