"""Fuzzing of the input boundaries: configs, cloud caches and affine maps,
and of the canonical config writer.

Whatever the input, only ChaosGameError subclasses may escape, so the CLI
can turn every failure into an exit code and a message.
"""

import contextlib
import hashlib
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import chaosgame as cg
from chaosgame.cli import main
from chaosgame.errors import ChaosGameError
from chaosgame.harness import PRESETS, emit_config, parse_config, run_experiment
from helpers import cloud_at_depth

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

_LINE_MAPS = """\
[experiment]
schema_version = 1
name = line
seed = 5

[ifs]
map1.matrix = -0.5
map1.offset = -0
map2.matrix = 0.25
map2.offset = 0.75

[driver]
kind = random

[eps]
a = 0.5
r = 0.5
m_lo = 0
m_hi = 3

[run]
x0 = -0; 0.1
resolution = 0.01
dimension = yes
"""

_ITEREXP = PRESETS["slow-power-z1"].replace("psi = power\nz = 1", "psi = iterexp\norder = 2")
_BASES = [*PRESETS.values(), _PLANE_MAPS, _LINE_MAPS, _ITEREXP]
_TOKENS = st.sampled_from([
    "", "nan", "inf", "-inf", "1e999", "-1", "0", "-0", "1", "2", "0.5", "abc", "1 2 3",
    "0.5 0 0 0.5", "-0 0.5 0.5 -0", "1e-320", "99999999999999999999", "%(x)s", "true",
    "0; 1", "-0 -0; 1 0", "1;;2", "[run]", "[ifs]", "preset = cantor", "kind = slow",
    "map3.offset = 0", "symbols = 0 9", "= 1", "x0", "\x00", "é", "random", "iterexp",
]) | st.text(max_size=12)


@st.composite
def _config_text(draw, edits=st.integers(1, 6)):
    """A preset or a custom config with lines deleted, values replaced by
    odd tokens, lines inserted or sections duplicated, as many as edits draws."""
    lines = draw(st.sampled_from(_BASES)).splitlines()
    for _ in range(draw(edits)):
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


@given(text=_config_text(edits=st.integers(0, 2)))
@settings(max_examples=300, deadline=None)
def test_emit_config_round_trips(text):
    # Every config that parses, explicit maps, signed zeros, literal,
    # random and iterexp drivers included, is emitted as text that parses
    # back to it and is emitted again unchanged.
    try:
        cfg = parse_config(text)
    except ChaosGameError:
        return
    canonical = emit_config(cfg)
    assert parse_config(canonical) == cfg
    assert emit_config(parse_config(canonical)) == canonical


def _cloud_bytes(dim):
    ifs = cg.cantor_ifs() if dim == 1 else cg.sierpinski_ifs()
    cloud = cloud_at_depth(ifs, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ifsc"
        cg.write_cloud(path, cloud)
        return path.read_bytes()


_CLOUDS = {dim: _cloud_bytes(dim) for dim in (1, 2)}


def _read_patched(raw: bytearray, data, offsets, recheck: bool):
    """read_cloud of raw with a few byte runs overwritten at drawn offsets,
    and, if recheck, its closing sha256 recomputed so the checks after the
    checksum see the patched values."""
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(offsets | st.integers(0, max(len(raw) - 1, 0)))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        raw[at:at + len(patch)] = patch
    if recheck and len(raw) > 32:
        raw[-32:] = hashlib.sha256(raw[:-32]).digest()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ifsc"
        path.write_bytes(bytes(raw))
        return cg.read_cloud(path)


@given(dim=st.sampled_from([1, 2]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_read_cloud_raises_only_package_errors(dim, data):
    raw = bytearray(_CLOUDS[dim])
    # Header: magic 0:4, version 4:8, dim 8:12, count 12:20, resolution
    # 20:28, depth 28:32, radii 32:40; then the payload of float64
    # coordinates, the cover sizes and the sha256.
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    offsets = st.sampled_from([4, 8, 12, 16, 20, 28, 32, 40])
    try:
        cloud = _read_patched(raw, data, offsets, data.draw(st.booleans()))
    except ChaosGameError:
        return
    assert np.isfinite(cloud.points).all() and cloud.resolution >= 0.0
    assert np.isfinite(cloud.diam_upper)


def _covers_bytes():
    cloud = cloud_at_depth(cg.cantor_ifs(), 4)
    for eps in (0.3, 0.1, 0.01):
        cg.covering_estimate(cloud, eps)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ifsc"
        cg.write_cloud(path, cloud)
        return cloud, path.read_bytes()


_COVERS_CLOUD, _COVERS = _covers_bytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_read_covers_raises_only_package_errors(data):
    # The cover sizes: six (radius <f8, size <u8) pairs before the sha256.
    raw = bytearray(_COVERS)
    start = len(raw) - 32 - 16 * len(_COVERS_CLOUD.cover_sizes)
    offsets = st.integers(start, len(raw) - 33)
    try:
        cloud = _read_patched(raw, data, offsets, recheck=True)
    except ChaosGameError:
        return
    radii = list(cloud.cover_sizes)
    assert radii == sorted(set(radii)) and all(r > 0.0 for r in radii)
    assert all(1 <= n <= cloud.size for n in cloud.cover_sizes.values())


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


# ---------------------------------------------------------------------------
# cli.main, in-process: every argv ends in exit 0, 2, 3 or 4, never in a
# traceback.
# ---------------------------------------------------------------------------

def _cache_files():
    """The cloud cache file of _PLANE_MAPS (name, bytes) after one run, and
    the same cloud in the version 1 layout (no cover sizes, no sha256)."""
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(parse_config(_PLANE_MAPS), cache_dir=tmp)
        (path,) = Path(tmp).iterdir()
        cloud, raw = cg.read_cloud(path), path.read_bytes()
    v1 = (b"IFSC" + struct.pack("<IIQdI", 1, 2, cloud.size, cloud.resolution,
                                cloud.depth) + cloud.points.tobytes())
    return path.name, raw, v1


_CACHE_NAME, _CACHE_V2, _CACHE_V1 = _cache_files()
_GARBLED = {"v2": _CACHE_V2, "v1": _CACHE_V1, "truncated": _CACHE_V2[:-9],
            "trailing": _CACHE_V2 + b"\0", "flipped": _CACHE_V2[:60] + b"\xff" + _CACHE_V2[61:],
            "junk": b"IFSC" + bytes(40), "empty": b""}

# Paths an argument may name: they are made afresh in a temporary directory.
_PATH_KINDS = ["missing", "dir", "text", "config", "bad-config", "binary",
               *(f"cloud-{k}" for k in _GARBLED)]


def _make_path(root: Path, kind: str, i: int) -> str:
    path = root / f"{i}-{kind}"
    if kind == "dir":
        path.mkdir()
    elif kind == "text":
        path.write_text("notes\n")
    elif kind == "config":
        path.write_text(_PLANE_MAPS)
    elif kind == "bad-config":
        path.write_text(_PLANE_MAPS.replace("resolution = 0.01", "resolution = -1"))
    elif kind == "binary":
        path.write_bytes(b"\xff\xfe\x00[run]")
    elif kind.startswith("cloud-"):
        path.write_bytes(_GARBLED[kind[6:]])
    elif kind.startswith("cache-"):                # a cache holding one cloud file
        path.mkdir()
        (path / _CACHE_NAME).write_bytes(_GARBLED[kind[6:]])
    return str(path)


def _one_of(*values):
    return st.sampled_from(values)


# Mostly valid values, so that most commands get past argparse; the
# resolution, which sets the cost of a cloud, is always given and >= 1e-3.
# So is driver stats' --cap: the block driver never holds some words (121),
# and without a cap word_coverage reads its default 10^9 symbols, minutes.
_RES = _one_of("0.001", "0.01", "0.1", "0.5", "0.01", "0.1", "0", "-1", "nan", "x")
_INT = _one_of("0", "1", "2", "3", "1", "2", "-1", "x")
_FLOAT = _one_of("0", "0.5", "1", "2", "0.5", "1", "-1", "nan", "inf", "1e999", "x")
_IFS = _one_of("cantor", "segment", "halving", "sierpinski", "cantor", "bogus")
_DRIVER = _one_of("champernowne", "debruijn", "example4", "random", "literal")
_PATH = st.sampled_from(_PATH_KINDS).map(lambda k: ("path", k))
_CACHE = st.sampled_from([*_PATH_KINDS, *(f"cache-{k}" for k in _GARBLED)]).map(
    lambda k: ("path", k))


def _flag(name, values, required=False):
    """[name, value], or for a flag that is not required also []."""
    given_flag = values.map(lambda v: [name, v])
    return given_flag if required else st.one_of(st.just([]), given_flag)


def _command(*parts):
    """argv: each part is a strategy for a list of tokens."""
    return st.tuples(*parts).map(lambda lists: [t for part in lists for t in part])


_ARGV = st.one_of(
    _command(st.just(["cloud", "build"]), _flag("--ifs", _IFS, True),
             _flag("--resolution", _RES, True), _flag("--out", _PATH, True),
             _flag("--cap", _one_of("1", "100", "100000", "0", "-5", "x"))),
    _command(st.just(["cloud", "info"]), _PATH.map(lambda p: [p])),
    _command(st.just(["driver", "emit"]), _DRIVER.map(lambda d: [d]),
             _flag("--alphabet", _INT), _flag("--z", _FLOAT), _flag("--seed", _INT),
             _flag("-n", _one_of("0", "5", "40", "-1", "x"), True)),
    _command(st.just(["driver", "stats"]), _DRIVER.map(lambda d: [d]),
             _flag("--alphabet", _INT), _flag("--z", _FLOAT), _flag("--seed", _INT),
             _flag("--stats", _INT, True), _flag("--cap", _one_of("0", "10", "-1"), True)),
    _command(st.just(["recover"]), _flag("--ifs", _IFS, True),
             _flag("--driver", _DRIVER, True),
             _flag("--x0", _one_of("0", "1", "0 0", "0.5 0.5", "nan", "x", ""), True),
             _flag("--eps", _one_of("0.5", "0.1", "0.05", "0", "-1", "nan", "x"), True),
             _flag("--resolution", _RES, True), _flag("--z", _FLOAT),
             _flag("--seed", _INT), _flag("--cap", _one_of("0", "1000", "-1", "x"), True)),
    _command(st.just(["dim"]), _flag("--ifs", _IFS, True), _flag("--a", _FLOAT),
             _flag("--r", _one_of("0.5", "0.33", "2", "0", "nan", "x"), True),
             _flag("--m-lo", _INT, True), _flag("--m-hi", _INT, True),
             _flag("--resolution", _RES, True)),
    _command(st.just(["schedule"]), _flag("--ifs", _IFS, True),
             _flag("--psi", _one_of("power", "iterexp", "bogus")), _flag("--z", _FLOAT),
             _flag("--order", _INT), _flag("--k-max", _one_of("0", "1", "2", "-1")),
             _flag("--step-cap", _one_of("0", "1", "1000", "-1", "x"), True),
             _flag("--resolution", _RES, True), _flag("--emit", _one_of("0", "10", "-1"))),
    _command(st.just(["experiment", "run"]),
             st.one_of(_PATH, _one_of("example4-z1", "no-such-preset")).map(lambda t: [t]),
             _flag("--cache", _CACHE), _flag("--out", _PATH),
             _flag("--cap", _one_of("0", "10", "-1", "x")), _flag("--seed", _INT)),
    st.lists(_one_of("cloud", "build", "info", "driver", "emit", "experiment", "run",
                     "--ifs", "cantor", "-n", "5", "--out", "x", "--help-me"), max_size=5),
)


def _main(argv, root: Path) -> tuple:
    """(exit code, stderr) of cli.main on argv, whose ("path", kind) items
    become paths made under root."""
    argv = [_make_path(root, t[1], i) if isinstance(t, tuple) else t
            for i, t in enumerate(argv)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:                # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue(), argv
    return code, err.getvalue()


@given(argv=_ARGV)
@settings(max_examples=150, deadline=None)
def test_cli_main_exits_with_a_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        _main(argv, Path(tmp))


@given(cache=st.sampled_from(list(_GARBLED)), out=_flag("--out", _PATH))
@settings(max_examples=40, deadline=None)
def test_cli_cache_file_errors_exit_2(cache, out):
    # A cache holding a cloud file that is not whole and of this version
    # exits 2 naming that file; the whole one gives a warm run.
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _main(["experiment", "run", ("path", "config"),
                           "--cache", ("path", f"cache-{cache}"), *out], Path(tmp))
    if cache == "v2":
        assert code == 0 or (code == 2 and "--out" in err)
    else:
        assert code == 2 and f"{_CACHE_NAME}:" in err
