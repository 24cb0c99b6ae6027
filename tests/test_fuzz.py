"""Corrupted scene files: every reader loads them or raises an error naming the file.

Mutations of a saved scene's bytes (byte flips, deletions, truncation,
inserted or substituted tokens) go through read_poses, read_tracks,
read_static_mask and read_pointmap, and scene_config.json's through
load_scene, under warnings-as-errors.  An input may load; any other outcome
than FileFormatError or ConfigInvalid naming the file fails.
"""

import re
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcouple.errors import ConfigInvalid, FileFormatError
from trajcouple.pointmap import read_pointmap
from trajcouple.pose import read_poses
from trajcouple.synthetic import SceneConfig, generate, load_scene, save_scene
from trajcouple.tracks import read_static_mask, read_tracks

TOKENS = (
    b"nan", b"-inf", b"1e400", b"-1", b"0", b"-0.0", b"1.5", b"123456789012345678901234567890",
    b"\xff", b"\x00", b"\n", b" ", b"{", b'"', b"true", b"null",
)

READERS = {
    "gt/poses.txt": read_poses,
    "gt/tracks.txt": read_tracks,
    "gt/pseudo_tracks.txt": lambda path: read_tracks(path, pseudo=True),
    "gt/static_mask.txt": read_static_mask,
    "est/pointmaps/frame_001.pm": read_pointmap,
}

FUZZ = settings(max_examples=150, deadline=None)


@st.composite
def mutants(draw, data):
    """data with one to three mutations applied in turn."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "delete", "truncate", "insert", "substitute")))
        at = draw(st.integers(0, len(data)))
        if op == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif op == "delete":
            del data[at:at + draw(st.integers(1, 16))]
        elif op == "truncate":
            del data[at:]
        elif op == "insert":
            data[at:at] = draw(st.sampled_from(TOKENS))
        else:  # a whole whitespace-delimited field replaced by a token
            fields = list(re.finditer(rb"\S+", bytes(data)))
            if fields:
                field = fields[draw(st.integers(0, len(fields) - 1))]
                data[field.start():field.end()] = draw(st.sampled_from(TOKENS))
    return bytes(data)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A saved scene whose 10x10 grid fits its dynamic tracks."""
    path = tmp_path_factory.mktemp("fuzz") / "scene"
    save_scene(generate(SceneConfig(n_frames=4, n_static=8, n_dynamic=4, height=10, width=10,
                                    sigma_pointmap=0.01, sigma_pose=0.02, occlusion_span=1)),
               path)
    return path


def loads_or_names(read, path, named):
    """read(path) under warnings-as-errors; an error must be ours and satisfy named."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read(path)
        except (FileFormatError, ConfigInvalid) as exc:
            assert named(exc), exc


@pytest.mark.parametrize("name", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_reader_loads_or_names_the_file(scene, name, data):
    path = scene.parent / ("mutant_" + name.replace("/", "_"))
    path.write_bytes(data.draw(mutants((scene / name).read_bytes())))
    loads_or_names(READERS[name], path,
                   lambda exc: isinstance(exc, FileFormatError) and exc.path == str(path))


@FUZZ
@given(data=st.data())
def test_scene_config_loads_or_names_a_file(scene, data):
    # a config that parses may mismatch another file of the scene, which is then the one named
    mutant = scene.parent / "mutant_scene"
    if not mutant.exists():
        shutil.copytree(scene, mutant)
    config = mutant / "scene_config.json"
    config.write_bytes(data.draw(mutants((scene / "scene_config.json").read_bytes())))
    loads_or_names(load_scene, mutant,
                   lambda exc: (str(config) in str(exc)) if isinstance(exc, ConfigInvalid)
                   else exc.path.startswith(str(mutant)))
