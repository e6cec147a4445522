"""Command-line interface: subcommands, output formats, exit codes."""

import argparse
import errno
import hashlib
import math
import struct

import pytest

from chaosgame import cli, ifs
from chaosgame.cli import main
from chaosgame.drivers import DriverStream, Run


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDriverCommands:
    def test_emit_champernowne(self, capsys):
        code, out, _ = run(capsys, "driver", "emit", "champernowne", "-n", "10")
        assert code == 0
        assert out.strip() == "1211122122"

    def test_stats_csv(self, capsys):
        code, out, _ = run(capsys, "driver", "stats", "champernowne",
                           "--stats", "3")
        assert code == 0
        assert out.splitlines() == ["m,n_i_m", "1,2", "2,7", "3,23"]

    def test_stats_without_cap_reads_runs_whole(self, capsys, monkeypatch):
        # The block driver never holds 121.  Read symbol by symbol, the
        # default cap of 10^9 symbols took about 2 minutes to reach; read
        # by pieces, it is a few dozen Runs.  A Run counts as one symbol
        # asked for, an array or a segment as its length.
        pieces, segment = DriverStream.pieces, DriverStream.segment
        asked = []

        def ask(symbols):
            asked.append(symbols)
            assert sum(asked) <= 10 ** 4, "the driver was read symbol by symbol"

        def counted_pieces(self, start, stop):
            for pos, piece in pieces(self, start, stop):
                ask(1 if isinstance(piece, Run) else len(piece))
                yield pos, piece

        def counted_segment(self, start, stop):
            ask(stop - start)
            return segment(self, start, stop)

        monkeypatch.setattr(DriverStream, "pieces", counted_pieces)
        monkeypatch.setattr(DriverStream, "segment", counted_segment)
        code, out, _ = run(capsys, "driver", "stats", "example4", "--stats", "3")
        assert code == 0
        assert out.splitlines()[-1] == "3,exceeded"
        assert asked

    def test_emit_example4(self, capsys):
        code, out, _ = run(capsys, "driver", "emit", "example4", "--z", "1",
                           "-n", "10")
        assert code == 0
        assert out.strip() == "2222222112"


class TestRecover(object):
    def test_row(self, capsys):
        code, out, _ = run(capsys, "recover", "--ifs", "cantor",
                           "--driver", "champernowne", "--x0", "0",
                           "--eps", "0.037037037037037035",
                           "--resolution", "0.0001")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "driver,x0,eps,n,guard,log_rate"
        assert lines[1].split(",")[3].isdigit()

    def test_row_is_recovery_csvs(self, capsys):
        # recover prints its row as recovery.csv does: x0 at 17 digits.
        code, out, _ = run(capsys, "recover", "--ifs", "cantor",
                           "--driver", "champernowne", "--x0", "0.1",
                           "--eps", "0.037037037037037035",
                           "--resolution", "0.0001")
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "0.10000000000000001"

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "recover", "--ifs", "cantor",
                           "--driver", "champernowne", "--x0", "0",
                           "--eps", "0.001", "--resolution", "0.0001",
                           "--cap", "5")
        assert code == 3
        assert "cap" in err


class TestCloud:
    def test_build_then_info(self, capsys, tmp_path):
        path = str(tmp_path / "c.ifsc")
        code, out, _ = run(capsys, "cloud", "build", "--ifs", "cantor",
                           "--resolution", "0.001", "--out", path)
        assert code == 0 and "wrote" in out
        code, out, _ = run(capsys, "cloud", "info", path)
        assert code == 0
        assert "points: 128" in out
        assert "resolution:" in out
        assert out.splitlines()[-3:] == ["cover radii: 0", "covering words: 0",
                                         "outside counts: 0"]

    def test_info_counts_memo_tables_after_slow_run(self, capsys, tmp_path):
        # The slow preset's three blocks leave one covering word each (with
        # its address depth m), the radii of its cover counts and the radii
        # at which it counted the points outside the base map's ball.
        cache = tmp_path / "cache"
        assert run(capsys, "experiment", "run", "slow-power-z1", "--cache", str(cache))[0] == 0
        (path,) = cache.glob("*.ifsc")
        code, out, _ = run(capsys, "cloud", "info", str(path))
        assert code == 0
        assert out.splitlines()[-3:] == ["cover radii: 36", "covering words: 3 (m = 3 8 15)",
                                         "outside counts: 9"]


class TestDim:
    def test_segment(self, capsys):
        code, out, _ = run(capsys, "dim", "--ifs", "segment", "--r", "0.5",
                           "--m-lo", "4", "--m-hi", "8",
                           "--resolution", "0.001")
        assert code == 0
        assert out.splitlines()[0] == "b_m,lower,upper,rate_lower,rate_upper"
        value = float(out.splitlines()[-1].split()[-1])
        assert value == pytest.approx(1.0, abs=0.1)

    def test_stdout_pinned(self, capsys):
        # sha256 of the whole stdout, recorded before the rows came from the
        # dimension.csv writer.
        code, out, _ = run(capsys, "dim", "--ifs", "segment", "--r", "0.5",
                           "--m-lo", "4", "--m-hi", "8", "--resolution", "0.001")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "1572f279c8b24a4973fa56ad91b2df7ea74a2dc0cbd3d41f57679a8214723503"


class TestSchedule:
    def test_table_and_emit(self, capsys):
        code, out, _ = run(capsys, "schedule", "--ifs", "cantor",
                           "--psi", "power", "--z", "1", "--k-max", "2",
                           "--step-cap", "100000", "--resolution", "1e-05",
                           "--emit", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,m_k,p_k,N_hat_k,v_k"
        assert lines[1].startswith("1,")
        assert set(lines[-1]) <= {"1", "2"}

    def test_stdout_pinned(self, capsys):
        # sha256 of the table and 40 symbols, recorded before the rows came
        # from the schedule.csv writer and the rate's name from RateFunction.
        code, out, _ = run(capsys, "schedule", "--ifs", "cantor", "--k-max", "2",
                           "--step-cap", "100000", "--resolution", "1e-05",
                           "--emit", "40")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "d7235f4c913a137922a3a79d8ea1a2a5df39495ac1ac6c0a144bc8904cf0f799"


class TestExperiment:
    def test_run_preset_with_out(self, capsys, tmp_path):
        code, out, _ = run(capsys, "experiment", "run", "example4-z1",
                           "--out", str(tmp_path))
        assert code == 0
        assert "experiment: example4-z1" in out
        for name in ("recovery.csv", "cover.csv", "ratio.csv", "summary.txt",
                     "recovery.dat"):
            assert (tmp_path / name).exists()

    def test_config_file(self, capsys, tmp_path):
        from tests.test_harness import MINIMAL

        path = tmp_path / "cfg.ini"
        path.write_text(MINIMAL)
        code, out, _ = run(capsys, "experiment", "run", str(path))
        assert code == 0
        assert "experiment: tiny" in out

    def test_unknown_target_exit_2(self, capsys):
        code, _, err = run(capsys, "experiment", "run", "no-such-preset")
        assert code == 2
        assert "error:" in err

    def test_bad_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nschema_version = 9\n")
        code, _, err = run(capsys, "experiment", "run", str(path))
        assert code == 2
        assert "schema_version" in err


def _rechecked(raw: bytes) -> bytes:
    """A cloud cache file's bytes with its closing sha256 recomputed."""
    return raw[:-32] + hashlib.sha256(raw[:-32]).digest()


_HEAD = 4 + ifs._HEADER.size   # a cloud cache file's magic and header


def _first_radius_nan(raw: bytes) -> bytes:
    """The first cover-size radius of a 1-d cloud cache file set to nan."""
    count = int.from_bytes(raw[12:20], "little")
    at = _HEAD + 8 * count
    return _rechecked(raw[:at] + struct.pack("<d", math.nan) + raw[at + 8:])


def _as_version_1(raw: bytes) -> bytes:
    """The cloud of a cache file in the version 1 layout: magic, version,
    dim, count, resolution, depth, then the points, and no cover sizes."""
    _, dim, count, resolution, depth, *_ = ifs._HEADER.unpack(raw[4:_HEAD])
    return (b"IFSC" + struct.pack("<IIQdI", 1, dim, count, resolution, depth)
            + raw[_HEAD:_HEAD + 8 * dim * count])


def _as_version_2(raw: bytes) -> bytes:
    """The cloud and cover sizes of a cache file in the version 2 layout:
    magic, version, dim, count, resolution, depth, the number of radii, the
    points, the (radius, size) pairs and the sha256, without the outside
    counts and covering words."""
    _, dim, count, resolution, depth, radii, *_ = ifs._HEADER.unpack(raw[4:_HEAD])
    return _rechecked(b"IFSC" + struct.pack("<IIQdIQ", 2, dim, count, resolution, depth,
                                            radii)
                      + raw[_HEAD:_HEAD + 8 * dim * count + 16 * radii] + bytes(32))


# MINIMAL's driver and [eps] section, which a slow driver replaces.
_TO_SLOW = "kind = champernowne\n\n[eps]\na = 1\nr = 0.33333333333333331\nm_lo = 3\nm_hi = 5\n"


def _typed_flags(parser, prefix=()):
    """(argv, flag) for every option of parser's subcommands that a config
    reader types: the subcommand's words, the flag and the value x."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield from _typed_flags(subparser, (*prefix, name))
        elif getattr(action.type, "__module__", None) == cli.__name__:
            yield (*prefix, action.option_strings[-1], "x"), "/".join(action.option_strings)


_TYPED_FLAGS = list(_typed_flags(cli.build_parser()))


def _no_work(monkeypatch):
    """Make building a cloud, a schedule or an experiment fail the test."""
    def work(*args, **kwargs):
        pytest.fail("the command did work before checking its flags")
    for name in ("build_cloud", "build_schedule", "run_experiment"):
        monkeypatch.setattr(cli, name, work)


class TestBadInputExit2:
    """Bad values exit with code 2 and a message naming the input (3 for a
    search that passes its bound)."""

    @pytest.fixture
    def config(self, tmp_path):
        from tests.test_harness import MINIMAL

        def write(*edits):
            text = MINIMAL
            for old, new in edits:
                assert old in text
                text = text.replace(old, new)
            path = tmp_path / "cfg.ini"
            path.write_text(text)
            return str(path)
        return write

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_config_x0_not_finite(self, capsys, config, value):
        code, _, err = run(capsys, "experiment", "run",
                           config(("x0 = 0; 1", f"x0 = 0; {value}")))
        assert code == 2
        assert "[run] x0" in err and "finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "one"])
    def test_recover_x0_not_finite(self, capsys, value):
        code, _, err = run(capsys, "recover", "--ifs", "cantor",
                           "--driver", "champernowne", "--x0", value,
                           "--eps", "0.1", "--resolution", "0.001")
        assert code == 2
        assert "x0" in err

    @pytest.mark.parametrize("key,old", [("a", "a = 1"),
                                         ("r", "r = 0.33333333333333331")])
    def test_eps_not_a_number(self, capsys, config, key, old):
        code, _, err = run(capsys, "experiment", "run",
                           config((old, f"{key} = one")))
        assert code == 2
        assert f"[eps] {key}" in err and "'one'" in err

    def test_slow_z_not_a_number(self, capsys, config):
        path = config(("kind = champernowne", "kind = slow\npsi = power\nz = one"),
                      ("[eps]\na = 1\nr = 0.33333333333333331\nm_lo = 3\n"
                       "m_hi = 5\n\n", ""))
        code, _, err = run(capsys, "experiment", "run", path)
        assert code == 2
        assert "[driver] z" in err and "'one'" in err

    @pytest.mark.parametrize("z", ["-1", "0"])
    def test_slow_z_out_of_range(self, capsys, monkeypatch, config, z):
        # z = -1 used to parse; the run exited 2 only once the cloud was
        # built, about 1.2 s at this resolution.
        path = config(("preset = cantor", "preset = sierpinski"),
                      (_TO_SLOW, f"kind = slow\npsi = power\nz = {z}\n"),
                      ("x0 = 0; 1", "x0 = 0 0"), ("resolution = 0.001", "resolution = 0.0005"))
        _no_work(monkeypatch)
        code, _, err = run(capsys, "experiment", "run", path)
        assert code == 2
        assert "[driver] z" in err and "positive" in err

    def test_map_offset_not_finite(self, capsys, config):
        # Without the check a nan offset deepened the cloud to the point
        # budget and exited 3 ("resolution infeasible").
        code, _, err = run(capsys, "experiment", "run", config(
            ("preset = cantor", "map1.matrix = 0.5\nmap1.offset = 0\n"
                                "map2.matrix = 0.5\nmap2.offset = nan")))
        assert code == 2
        assert "[ifs] map2" in err and "offset" in err and "finite" in err

    @pytest.mark.parametrize("keep,part", [(10, "header"), (80, "payload")])
    def test_truncated_cloud_cache(self, capsys, config, tmp_path, keep, part):
        path, cache = config(), tmp_path / "cache"
        assert run(capsys, "experiment", "run", path, "--cache", str(cache))[0] == 0
        (cloud_file,) = cache.glob("*.ifsc")
        cloud_file.write_bytes(cloud_file.read_bytes()[:keep])
        code, _, err = run(capsys, "experiment", "run", path, "--cache", str(cache))
        assert code == 2
        assert str(cloud_file) in err and f"truncated cloud cache {part}" in err

    def test_trailing_bytes_in_cloud_cache(self, capsys, config, tmp_path):
        # Bytes after the payload used to be ignored.
        path, cache = config(), tmp_path / "cache"
        assert run(capsys, "experiment", "run", path, "--cache", str(cache))[0] == 0
        (cloud_file,) = cache.glob("*.ifsc")
        cloud_file.write_bytes(cloud_file.read_bytes() + bytes(8))
        code, _, err = run(capsys, "experiment", "run", path, "--cache", str(cache))
        assert code == 2
        assert str(cloud_file) in err and "8 trailing bytes" in err

    def test_interrupted_cache_write_leaves_no_file(self, capsys, config, tmp_path,
                                                    monkeypatch):
        # A write that failed partway used to leave a short cloud-*.ifsc,
        # and every later run exited 2 reading it; the OSError escaped as a
        # traceback.
        def short_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if "w" in mode:
                writes = []

                def write(data):
                    writes.append(data)
                    if len(writes) == 2:        # the payload, after the header
                        type(fh).write(fh, bytes(data)[:len(data) // 2])
                        raise OSError(errno.ENOSPC, "No space left on device")
                    return type(fh).write(fh, data)
                fh.write = write
            return fh

        path, cache = config(), tmp_path / "cache"
        monkeypatch.setattr(ifs, "open", short_open, raising=False)
        code, _, err = run(capsys, "experiment", "run", path, "--cache", str(cache))
        assert code == 2 and f"--cache {cache}: No space left" in err
        assert list(cache.iterdir()) == []
        monkeypatch.undo()
        assert run(capsys, "experiment", "run", path, "--cache", str(cache))[0] == 0
        (cloud_file,) = cache.iterdir()
        assert ifs.read_cloud(cloud_file).cover_sizes

    # The cover sizes close the cloud cache file, before its sha256.
    @pytest.mark.parametrize("garble,message", [
        (lambda b: b[:-40], "truncated cloud cache payload"),
        (lambda b: b[:-40] + bytes([b[-40] ^ 1]) + b[-39:], "checksum mismatch"),
        (_first_radius_nan, "bad cover size in cloud cache: radius nan"),
        (_as_version_1, "unsupported cloud cache version 1"),
        (_as_version_2, "unsupported cloud cache version 2"),
    ], ids=["truncated", "bad-checksum", "non-numeric", "version", "version-2"])
    def test_garbled_cover_sizes(self, capsys, config, tmp_path, garble, message):
        path, cache = config(), tmp_path / "cache"
        assert run(capsys, "experiment", "run", path, "--cache", str(cache))[0] == 0
        (cloud_file,) = cache.iterdir()
        cloud_file.write_bytes(garble(cloud_file.read_bytes()))
        code, _, err = run(capsys, "experiment", "run", path, "--cache", str(cache))
        assert code == 2
        assert str(cloud_file) in err and message in err

    def test_interrupted_cover_sizes_write_keeps_cloud_file(self, capsys, config,
                                                            tmp_path, monkeypatch):
        # The run writes the cloud when it is built, and again with the cover
        # sizes it walked; a failed rewrite leaves the first file whole.
        opened = []

        def failing_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if "w" in mode:
                opened.append(file)
                if len(opened) == 2:
                    fh.write(b"IFSC")
                    fh.close()
                    raise OSError(errno.EROFS, "Read-only file system")
            return fh

        path, cache = config(), tmp_path / "cache"
        monkeypatch.setattr(ifs, "open", failing_open, raising=False)
        code, _, err = run(capsys, "experiment", "run", path, "--cache", str(cache))
        assert code == 2 and f"--cache {cache}: Read-only file system" in err
        (cloud_file,) = cache.iterdir()
        assert ifs.read_cloud(cloud_file).cover_sizes == {}
        monkeypatch.undo()
        assert run(capsys, "experiment", "run", path, "--cache", str(cache))[0] == 0
        assert list(cache.iterdir()) == [cloud_file]
        assert ifs.read_cloud(cloud_file).cover_sizes

    @pytest.mark.parametrize("argv,message", [
        (("experiment", "run", "cantor-debruijn", "--cache", "{file}"),
         "--cache {file}: File exists"),
        (("experiment", "run", "cantor-debruijn", "--out", "{file}"),
         "--out {file}: File exists"),
        (("cloud", "info", "{missing}"), "cloud file {missing}: No such file"),
        (("cloud", "info", "{dir}"), "cloud file {dir}: Is a directory"),
        (("cloud", "build", "--ifs", "cantor", "--resolution", "0.01",
          "--out", "{missing}/c.ifsc"), "--out {missing}/c.ifsc: No such file"),
        (("experiment", "run", "{dir}"), "config file {dir}: Is a directory"),
        (("experiment", "run", "{binary}"), "config file {binary}: not UTF-8 text"),
    ], ids=["cache-is-a-file", "out-is-a-file", "info-missing", "info-directory",
            "build-out-missing-dir", "config-directory", "config-binary"])
    def test_file_errors_exit_2(self, capsys, tmp_path, argv, message):
        # Each of these used to end in a traceback (exit 1).
        names = {"file": tmp_path / "file", "missing": tmp_path / "missing",
                 "dir": tmp_path, "binary": tmp_path / "binary.ini"}
        names["file"].write_text("x")
        names["binary"].write_bytes(b"\xff\xfe[experiment]\n")
        code, _, err = run(capsys, *(a.format(**names) for a in argv))
        assert code == 2
        assert message.format(**names) in err

    @pytest.mark.parametrize("argv", [
        ("driver", "emit", "random", "--seed", "-1", "-n", "5"),
        ("recover", "--ifs", "cantor", "--driver", "random", "--seed", "-1",
         "--x0", "0", "--eps", "0.1", "--resolution", "0.001"),
        ("experiment", "run", "cantor-champernowne", "--seed", "-1"),
    ], ids=["emit", "recover", "experiment"])
    def test_negative_seed(self, capsys, argv):
        # numpy's ValueError for a negative seed used to escape as a
        # traceback, and an overriding --seed -1 was written into the
        # canonical config, which then no longer parsed.
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "seed" in err and "-1" in err

    def test_config_negative_seed(self, capsys, config):
        code, _, err = run(capsys, "experiment", "run", config(("seed = 0", "seed = -1")))
        assert code == 2
        assert "[experiment] seed" in err and "'-1'" in err

    @pytest.mark.parametrize("argv,flag", [
        (("driver", "emit", "champernowne", "-n", "-5"), "-n/--count"),
        (("schedule", "--ifs", "cantor", "--k-max", "1", "--step-cap", "100000",
          "--resolution", "1e-05", "--emit", "-3"), "--emit"),
    ], ids=["emit", "schedule"])
    def test_negative_count(self, capsys, argv, flag):
        # A negative count used to slice from the end of the driver's buffer
        # and print an empty line with exit code 0; later it exited 2 with
        # "invalid driver segment [0, -3)", which named no flag.
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"argument {flag}: expected an integer >= 0" in err

    @pytest.mark.parametrize("edit,where", [
        (("resolution = 0.001", "resolution = nan"), "[run] resolution"),
        (("resolution = 0.001", "resolution = inf"), "[run] resolution"),
        (("a = 1\nr = 0.33333333333333331\nm_lo = 3\nm_hi = 5",
          "list = inf 0.5"), "[eps] list"),
        (("a = 1\nr = 0.33333333333333331\nm_lo = 3\nm_hi = 5",
          "list = 0.5 -0.1"), "[eps] list"),
        (("a = 1\nr = 0.33333333333333331\nm_lo = 3\nm_hi = 5",
          "list = 0.5 0"), "[eps] list"),
        (("a = 1\nr = 0.33333333333333331\nm_lo = 3\nm_hi = 5",
          "list = 1 0.5"), "[eps] list"),
        (("m_lo = 3", "m_lo = -2"), "[eps] m_lo = -2"),
        (("m_hi = 5", "m_hi = 1000"), "m_hi = 1000"),
        (("orbit_cap = 100000", "orbit_cap = -1"), "[run] orbit_cap"),
        (("orbit_cap = 100000", "point_budget = 0"), "[run] point_budget"),
        ((_TO_SLOW, "kind = slow\npsi = power\nz = 1\nk_max = 0\n"), "[driver] k_max"),
        ((_TO_SLOW, "kind = slow\npsi = power\nz = 1\nstep_cap = 0\n"),
         "[driver] step_cap"),
        ((_TO_SLOW, "kind = slow\npsi = iterexp\norder = 0\n"), "[driver] order"),
        (("name = tiny", "name = tiny\n  0"), "[experiment] name"),
    ], ids=["resolution-nan", "resolution-inf", "list-inf", "list-negative",
            "list-zero", "list-one", "m_lo", "m_hi", "orbit_cap", "point_budget",
            "k_max", "step_cap", "order", "name-two-lines"])
    def test_config_value_out_of_range(self, capsys, config, edit, where):
        # resolution = nan used to deepen the cloud to the point budget and
        # exit 3; list = inf wrote an "inf,1,1" cover row; a negative list
        # value failed only after the cloud was built.  m_lo = -2 wrote rows
        # at eps 9 and 3, m_hi = 1000 puts a*r^m at 0, point_budget = 0 exited
        # 3 as if the budget were hit, and orbit_cap = -1 failed in
        # recovery_time with a message that named no key.  A two-line name
        # was emitted into summary.txt as config text that does not parse.
        code, _, err = run(capsys, "experiment", "run", config(edit))
        assert code == 2
        assert where in err

    @pytest.mark.parametrize("argv,flags", [
        (("cloud", "build", "--ifs", "cantor", "--resolution", "0.001",
          "--out", "never.ifsc", "--cap", "-5"), ("--cap",)),
        (("driver", "stats", "champernowne", "--stats", "2", "--cap", "-1"), ("--cap",)),
        (("schedule", "--ifs", "cantor", "--resolution", "1e-05", "--emit", "-3"),
         ("--emit",)),
        (("experiment", "run", "cantor-champernowne", "--cap", "-1"), ("--cap",)),
        (("schedule", "--ifs", "cantor", "--resolution", "1e-05", "--step-cap", "0"),
         ("--step-cap",)),
        (("schedule", "--ifs", "cantor", "--resolution", "1e-05", "--k-max", "0"),
         ("--k-max",)),
        (("recover", "--ifs", "cantor", "--driver", "champernowne", "--x0", "0",
          "--eps", "0.01", "--cap", "-1"), ("--cap",)),
        (("recover", "--ifs", "cantor", "--driver", "champernowne", "--x0", "5",
          "--resolution", "0.001", "--eps", "1.5"), ("--eps",)),
        (("recover", "--ifs", "cantor", "--driver", "champernowne", "--x0", "0",
          "--resolution", "0.001", "--eps", "nan"), ("--eps",)),
        (("recover", "--ifs", "cantor", "--driver", "champernowne", "--x0", "abc",
          "--resolution", "0.001", "--eps", "0.1"), ("--x0",)),
        (("recover", "--ifs", "cantor", "--driver", "champernowne", "--x0", "nan",
          "--resolution", "0.001", "--eps", "0.1"), ("--x0",)),
        (("recover", "--ifs", "cantor", "--driver", "champernowne", "--x0", "0 0",
          "--resolution", "0.001", "--eps", "0.1"), ("--x0",)),
        (("dim", "--ifs", "cantor", "--a", "nan", "--r", "0.5", "--m-lo", "1",
          "--m-hi", "3", "--resolution", "0.001"), ("--a",)),
        (("dim", "--ifs", "cantor", "--r", "2", "--m-lo", "1", "--m-hi", "3",
          "--resolution", "0.001"), ("--r",)),
        (("dim", "--ifs", "cantor", "--r", "0.5", "--m-lo", "5", "--m-hi", "3",
          "--resolution", "0.001"), ("--m-lo", "--m-hi")),
    ], ids=["cloud-cap", "stats-cap", "schedule-emit", "experiment-cap",
            "schedule-step-cap", "schedule-k-max", "recover-cap", "recover-eps-above-1",
            "recover-eps-nan", "recover-x0-abc", "recover-x0-nan", "recover-x0-length",
            "dim-a-nan", "dim-r-above-1", "dim-m-lo-above-m-hi"])
    def test_count_checked_before_work(self, capsys, monkeypatch, argv, flags):
        # cloud build --cap -5 used to exit 3, driver stats --cap -1 printed
        # an "exceeded" row per m with exit 0, and schedule --emit -3 built
        # the schedule and printed its table before failing; schedule
        # --step-cap 0 exited 3, and --k-max 0 and recover --cap -1 built
        # the cloud first; recover --eps 1.5 ran the whole recovery and then
        # failed in a message that named no flag.  recover --x0 abc, nan and
        # a wrong-length x0, dim --r 2 and dim --m-lo 5 --m-hi 3 each failed
        # only once the cloud was built.
        _no_work(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error:" in err
        assert all(flag in err for flag in flags)

    @pytest.mark.parametrize("argv,flag", _TYPED_FLAGS,
                             ids=[" ".join(argv) for argv, _ in _TYPED_FLAGS])
    def test_typed_flag_rejects_text(self, capsys, monkeypatch, argv, flag):
        # Every flag typed by a config reader fails while the command line
        # is parsed, naming the flag, whether or not the command reads it.
        _no_work(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument {flag}: expected " in err and "got 'x'" in err

    def test_every_typed_flag_walked(self):
        # cloud build 2, driver emit 3, driver stats 4, recover 6, dim 5,
        # schedule 6, experiment run 2.
        assert len(_TYPED_FLAGS) == 28

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_stats_needs_a_positive_count(self, capsys, value):
        # driver stats --stats 0 (or -5) used to print only the m,n_i_m
        # header and exit 0.
        code, out, err = run(capsys, "driver", "stats", "champernowne", f"--stats={value}")
        assert (code, out) == (2, "")
        assert f"argument --stats: expected an integer >= 1, got '{value}'" in err

    def test_unknown_flag_returns_2(self, capsys):
        # argparse's SystemExit used to escape main.
        assert run(capsys, "--no-such-flag")[0] == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_cli_resolution_out_of_range(self, capsys, tmp_path, value):
        code, _, err = run(capsys, "cloud", "build", "--ifs", "cantor", "--resolution",
                           value, "--out", str(tmp_path / "c.ifsc"))
        assert code == 2
        assert "argument --resolution:" in err and "finite" in err

    @pytest.mark.parametrize("argv", [
        ("driver", "emit", "example4", "-n", "5", "--z", "nan"),
        ("driver", "emit", "example4", "-n", "5", "--z", "inf"),
        ("driver", "emit", "example4", "-n", "5", "--z=-inf"),
        ("recover", "--ifs", "halving", "--driver", "example4", "--z", "nan",
         "--x0", "0", "--eps", "0.1", "--resolution", "0.001"),
        ("schedule", "--ifs", "cantor", "--z", "nan", "--resolution", "1e-05"),
        ("schedule", "--ifs", "cantor", "--z", "inf", "--resolution", "1e-05"),
    ], ids=["emit-nan", "emit-inf", "emit-minus-inf", "recover-nan",
            "schedule-nan", "schedule-inf"])
    def test_z_not_finite(self, capsys, argv):
        # emit --z nan ran until killed and --z inf ended in OverflowError;
        # schedule --z nan ended in ValueError and --z inf in
        # ZeroDivisionError.
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "argument --z:" in err and "finite" in err

    @pytest.mark.parametrize("z", ["1e-06", "1e-300"])
    def test_example4_k0_search_bounded(self, capsys, z):
        # --z 1e-6 searched for k_0 until killed; at 1e-300, 2**z == 1.0
        # and the search divided by zero.  Past its bound it exits 3.
        code, _, err = run(capsys, "driver", "emit", "example4", "-n", "5", "--z", z)
        assert code == 3
        assert f"z={float(z):g}" in err

    def test_config_example4_k0_search_bounded(self, capsys, config):
        code, _, err = run(capsys, "experiment", "run",
                           config(("kind = champernowne", "kind = example4\nz = 1e-300")))
        assert code == 3
        assert "z=1e-300" in err

    def test_example4_large_z(self, capsys):
        # 2.0 ** (j * z) used to overflow in the k_0 search.
        code, out, _ = run(capsys, "driver", "emit", "example4", "-n", "5", "--z", "20")
        assert (code, out.strip()) == (0, "22222")

    def test_example4_block_start_past_float_range(self, capsys):
        # The first block start, 2 * 2^1200, used to end in OverflowError.
        code, _, err = run(capsys, "driver", "emit", "example4", "-n", "5", "--z", "600")
        assert code == 3
        assert "past 2^1024" in err

    @pytest.mark.parametrize("a,r,why", [
        ("5", "0.5", "the radii were >= 1"),
        ("1e-7", "0.5", "the schedule fell below twice the cloud resolution"),
        ("20000", "0.0001", "the radii were >= 1, then the schedule fell below "
                          "twice the cloud resolution"),
    ], ids=["radii-above-1", "below-resolution", "both"])
    def test_dim_names_why_radii_were_dropped(self, capsys, a, r, why):
        # Radii 2.5 and 1.25 (a = 5, r = 0.5) used to be reported as falling
        # below twice the cloud resolution.
        code, out, err = run(capsys, "dim", "--ifs", "cantor", "--a", a, "--r", r,
                             "--m-lo", "1", "--m-hi", "2", "--resolution", "0.001")
        assert (code, out) == (2, "")
        assert err.strip() == f"error: no usable radii: {why}"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_dim_a_not_finite(self, capsys, value):
        # --a nan printed rows of nan with exit code 0.
        code, out, err = run(capsys, "dim", "--ifs", "cantor", "--a", value, "--r", "0.5",
                             "--m-lo", "1", "--m-hi", "3", "--resolution", "0.001")
        assert (code, out) == (2, "")
        assert "argument --a:" in err and "finite" in err
