"""Fuzzing of the input boundaries: configs, cloud caches and affine maps.

Whatever the input, only ChaosGameError subclasses may escape, so the CLI
can turn every failure into an exit code and a message.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import chaosgame as cg
from chaosgame.errors import ChaosGameError
from chaosgame.harness import PRESETS, parse_config

_PLANE_MAPS = """\
[experiment]
schema_version = 1
name = plane
seed = 3

[ifs]
map1.matrix = 0.5 0 0 0.5
map1.offset = 0 0
map2.matrix = 0.5 0.1 -0.1 0.5
map2.offset = 1 0

[driver]
kind = literal
symbols = 1 2 2 1

[eps]
list = 0.5 0.25

[run]
x0 = 0 0; 1 1
resolution = 0.01
"""

_BASES = [*PRESETS.values(), _PLANE_MAPS]
_TOKENS = st.sampled_from([
    "", "nan", "inf", "-inf", "1e999", "-1", "0", "1", "2", "0.5", "abc", "1 2 3",
    "0.5 0 0 0.5", "1e-320", "99999999999999999999", "%(x)s", "true", "0; 1",
    "1;;2", "[run]", "[ifs]", "preset = cantor", "kind = slow", "map3.offset = 0",
    "symbols = 0 9", "= 1", "x0", "\x00", "é",
]) | st.text(max_size=12)


@st.composite
def _config_text(draw):
    """A preset or a custom config with lines deleted, values replaced by
    odd tokens, lines inserted or sections duplicated."""
    lines = draw(st.sampled_from(_BASES)).splitlines()
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["delete", "value", "insert", "duplicate"]))
        if action == "delete" and i < len(lines):
            del lines[i]
        elif action == "value" and i < len(lines) and "=" in lines[i]:
            lines[i] = lines[i].split("=")[0] + "= " + draw(_TOKENS)
        elif action == "insert":
            lines.insert(i, draw(_TOKENS))
        elif action == "duplicate" and i < len(lines):
            lines.extend(lines[i:i + 3])
    return "\n".join(lines) + "\n"


@given(text=_config_text() | st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parse_config_raises_only_package_errors(text):
    try:
        parse_config(text)
    except ChaosGameError:
        pass


def _cloud_bytes(dim):
    ifs = cg.cantor_ifs() if dim == 1 else cg.sierpinski_ifs()
    cloud = cg.cloud_at_depth(ifs, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ifsc"
        cg.write_cloud(path, cloud)
        return path.read_bytes()


_CLOUDS = {dim: _cloud_bytes(dim) for dim in (1, 2)}


@given(dim=st.sampled_from([1, 2]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_read_cloud_raises_only_package_errors(dim, data):
    raw = bytearray(_CLOUDS[dim])
    # Header: magic 0:4, version 4:8, dim 8:12, count 12:20, resolution
    # 20:28, depth 28:32; then the payload of float64 coordinates.
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.sampled_from([4, 8, 12, 16, 20, 28, 32, 40])
                       | st.integers(0, max(len(raw) - 1, 0)))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        raw[at:at + len(patch)] = patch
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ifsc"
        path.write_bytes(bytes(raw))
        try:
            cloud = cg.read_cloud(path)
        except ChaosGameError:
            return
    assert np.isfinite(cloud.points).all() and cloud.resolution >= 0.0
    assert np.isfinite(cloud.diam_upper)


def _covers_bytes():
    from chaosgame.ifs import write_covers

    cloud = cg.cloud_at_depth(cg.cantor_ifs(), 4)
    for eps in (0.3, 0.1, 0.01):
        cg.covering_estimate(cloud, eps)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.covers"
        write_covers(path, cloud)
        return cloud, path.read_bytes()


_COVERS_CLOUD, _COVERS = _covers_bytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_read_covers_raises_only_package_errors(data):
    from chaosgame.ifs import read_covers

    raw = bytearray(_COVERS)
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, max(len(raw) - 1, 0)))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        raw[at:at + len(patch)] = patch
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.covers"
        path.write_bytes(bytes(raw))
        try:
            sizes = read_covers(path, _COVERS_CLOUD)
        except ChaosGameError:
            return
    assert sizes in ({}, _COVERS_CLOUD.cover_sizes)


_ENTRY = (st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10, 10)
          | st.sampled_from([1e308, -1e308, 5e-324, "0.5", "x", None]))
_ARRAY = st.recursive(_ENTRY, lambda inner: st.lists(inner, max_size=3), max_leaves=10)


@given(matrix=_ARRAY, offset=_ARRAY)
@settings(max_examples=400, deadline=None)
def test_affine_map_create_raises_only_package_errors(matrix, offset):
    try:
        m = cg.AffineMap.create(matrix, offset)
    except ChaosGameError:
        return
    assert m.matrix.shape == (m.dim, m.dim) and 0.0 <= m.lip < 1.0
