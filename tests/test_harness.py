"""Config parsing/emission, presets, experiment runs, cloud caching."""

import dataclasses
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import chaosgame as cg
from chaosgame.errors import ValidationError
from chaosgame.cli import main
from chaosgame.harness import PRESETS, _in_order, emit_config, load_preset, parse_config, \
    run_experiment

MINIMAL = """\
[experiment]
schema_version = 1
name = tiny
seed = 0

[ifs]
preset = cantor

[driver]
kind = champernowne

[eps]
a = 1
r = 0.33333333333333331
m_lo = 3
m_hi = 5

[run]
x0 = 0; 1
resolution = 0.001
orbit_cap = 100000
"""


# sha256 over each preset's artifacts, name NUL content NUL in name order,
# from a run without a cache.  They pin every byte a preset writes, so a
# refactor that moves any number fails here.  The 2-d preset's digest also
# depends on the BLAS kernel that numpy picks at run time (see ROADMAP).
PRESET_SHA256 = {
    "cantor-champernowne": "aacdf67806296517bc6d236e2e9fe1ee41c8c40e5d7c39453c24143525ab7ddc",
    "cantor-debruijn": "1f47bfd874e0eafa099fe894eab5be22ac2c26d7b456786407932f78254fc297",
    "sierpinski-debruijn": "66e3c084d8556cd050c01dae76492ceada11671f22bc667bafe17382369baa60",
    "example4-z1": "c56c202294fd035eec10ee2f83424e730e50c459574c5e753c77dd6a84125301",
    "example4-z05": "b5c353fcf8fcd107eff22c4f41c1fb3febfd2191543618fc5ceca6b6865cc25f",
    "slow-power-z1": "aee2fa2608943e0af7376960886333bae994287208e68d5bb154978f0f385d15",
    "segment-dimension": "c0483f5a938aa1c5c1e7b87a70ada0b88658751cc83b34a1a8aa9c6a2a2205c3",
}


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.name == "tiny"
        assert cfg.driver_kind == "champernowne"
        assert len(cfg.ifs_maps) == 2
        assert cfg.x0 == ((0.0,), (1.0,))
        assert len(cfg.eps_values()) == 3
        assert cfg.eps_values()[0] == pytest.approx(3.0 ** -3)

    def test_explicit_maps(self):
        cfg = parse_config(MINIMAL.replace(
            "preset = cantor",
            "map1.matrix = 0.5\nmap1.offset = 0\nmap2.matrix = 0.5\nmap2.offset = 0.5"))
        ifs = cfg.build_ifs()
        assert ifs.alphabet_size == 2 and ifs.dim == 1

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="unknown key 'wat'"):
            parse_config(MINIMAL.replace("seed = 0", "seed = 0\nwat = 1"))

    def test_unknown_section_named(self):
        with pytest.raises(ValidationError, match=r"unknown section \[extra\]"):
            parse_config(MINIMAL + "\n[extra]\nfoo = 1\n")

    def test_all_errors_reported_at_once(self):
        bad = MINIMAL.replace("kind = champernowne", "kind = nosuch") \
                     .replace("resolution = 0.001", "resolution = -1")
        with pytest.raises(ValidationError) as exc:
            parse_config(bad)
        msg = str(exc.value)
        assert "nosuch" in msg and "resolution" in msg

    def test_expanding_map_rejected(self):
        bad = MINIMAL.replace(
            "preset = cantor",
            "map1.matrix = 1.5\nmap1.offset = 0\nmap2.matrix = 0.5\nmap2.offset = 0.5")
        with pytest.raises(ValidationError, match="not a contraction"):
            parse_config(bad)

    def test_x0_dimension_checked(self):
        with pytest.raises(ValidationError, match="1-dimensional"):
            parse_config(MINIMAL.replace("x0 = 0; 1", "x0 = 0 0; 1 1"))

    def test_eps_list_must_decrease(self):
        bad = MINIMAL.replace(
            "a = 1\nr = 0.33333333333333331\nm_lo = 3\nm_hi = 5",
            "list = 0.1 0.2")
        with pytest.raises(ValidationError, match="decreasing"):
            parse_config(bad)

    def test_slow_driver_forbids_eps_section(self):
        bad = MINIMAL.replace("kind = champernowne",
                              "kind = slow\npsi = power\nz = 1")
        with pytest.raises(ValidationError, match=r"\[eps\] must be omitted"):
            parse_config(bad)

    def test_exact_attractor_restricted(self):
        bad = MINIMAL.replace("resolution = 0.001",
                              "resolution = 0.001\nexact_attractor = true")
        with pytest.raises(ValidationError, match="exact_attractor"):
            parse_config(bad)

    @pytest.mark.parametrize("matrix,ok", [("0.5", True), ("0.5000000000001", False)])
    def test_exact_attractor_needs_the_halving_maps_exactly(self, matrix, ok):
        # A map within 1e-12 of x/2 used to pass, and the cloud of {0} and
        # 2^-j was then certified at resolution 0 for another attractor.
        text = (PRESETS["example4-z1"].replace("preset = halving",
                                               f"map1.matrix = {matrix}\nmap1.offset = 0\n"
                                               "map2.matrix = 0\nmap2.offset = 1"))
        if ok:
            assert parse_config(text).ifs_maps == load_preset("example4-z1").ifs_maps
        else:
            with pytest.raises(ValidationError, match="exact_attractor"):
                parse_config(text)

    def test_maps_built_once_and_read_only(self):
        cfg = parse_config(MINIMAL)
        ifs = cfg.build_ifs()
        for m in ifs.maps:
            with pytest.raises(ValueError, match="read-only"):
                m.matrix[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                m.offset[0] = 0.0

    def test_signed_zero_maps_are_not_shared(self):
        def maps(zero):
            return MINIMAL.replace("preset = cantor", "map1.matrix = 0.5\n"
                                   f"map1.offset = {zero}\nmap2.matrix = 0.5\n"
                                   "map2.offset = 0.5")
        plus = parse_config(maps("0")).build_ifs()
        minus = parse_config(maps("-0")).build_ifs()
        assert minus is not plus
        assert str(minus.maps[0].offset[0]) == "-0.0"
        assert str(plus.maps[0].offset[0]) == "0.0"


class TestEmitConfig:
    def test_round_trip_idempotent(self):
        cfg = parse_config(MINIMAL)
        canonical = emit_config(cfg)
        again = parse_config(canonical)
        assert again == cfg
        assert emit_config(again) == canonical

    def test_all_presets_round_trip(self):
        for name in PRESETS:
            cfg = load_preset(name)
            assert parse_config(emit_config(cfg)) == cfg


class TestPresets:
    def test_all_parse(self):
        for name in PRESETS:
            cfg = load_preset(name)
            assert cfg.name == name

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="unknown preset"):
            load_preset("nope")

    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_artifacts_pinned(self, name):
        assert set(PRESET_SHA256) == set(PRESETS)
        artifacts = run_experiment(load_preset(name)).artifacts
        h = hashlib.sha256()
        for fname in sorted(artifacts):
            h.update(f"{fname}\0{artifacts[fname]}\0".encode())
        assert h.hexdigest() == PRESET_SHA256[name]


@pytest.fixture(scope="module")
def tiny_cfg():
    return parse_config(MINIMAL)


class TestRunExperiment:
    def test_artifact_set(self, tiny_cfg):
        report = run_experiment(tiny_cfg)
        assert {"recovery.csv", "cover.csv", "summary.txt",
                "recovery.dat", "cover.dat"} <= set(report.artifacts)
        assert len(report.records) == 6   # 3 eps x 2 start points
        assert len(report.covers) == 3

    def test_byte_determinism(self, tiny_cfg):
        a = run_experiment(tiny_cfg).artifacts
        b = run_experiment(tiny_cfg).artifacts
        assert a == b

    def test_csv_headers_and_rows(self, tiny_cfg):
        art = run_experiment(tiny_cfg).artifacts
        rec = art["recovery.csv"].splitlines()
        assert rec[0] == "driver,x0,eps,n,guard,log_rate"
        assert len(rec) == 7
        cov = art["cover.csv"].splitlines()
        assert cov[0] == "eps,lower,upper"
        dat = art["recovery.dat"].splitlines()
        assert dat[0].startswith("# driver x0 eps")
        assert "," not in dat[1]

    def test_summary_embeds_canonical_config(self, tiny_cfg):
        art = run_experiment(tiny_cfg).artifacts
        assert emit_config(tiny_cfg) in art["summary.txt"]

    def test_files_written(self, tiny_cfg, tmp_path):
        report = run_experiment(tiny_cfg, out_dir=tmp_path)
        for name, content in report.artifacts.items():
            assert (tmp_path / name).read_text() == content

    def test_warm_cache_identical(self, tiny_cfg, tmp_path):
        cold = run_experiment(tiny_cfg, cache_dir=tmp_path)
        assert list(tmp_path.glob("cloud-*.ifsc"))
        warm = run_experiment(tiny_cfg, cache_dir=tmp_path)
        assert warm.artifacts == cold.artifacts

    def test_example4_run_has_ratio(self):
        report = run_experiment(load_preset("example4-z1"))
        lines = report.artifacts["ratio.csv"].splitlines()
        assert lines[0] == "x0,eps,n,ratio"
        assert len(lines) == 1 + len(report.records)

    def test_dimension_preset(self):
        report = run_experiment(load_preset("segment-dimension"))
        assert report.dimension is not None
        assert report.dimension.value == pytest.approx(1.0, abs=0.05)
        assert "dimension.csv" in report.artifacts


SIERPINSKI = """\
[experiment]
schema_version = 1
name = tiny-sierpinski
seed = 0

[ifs]
preset = sierpinski

[driver]
kind = debruijn

[eps]
a = 1
r = 0.5
m_lo = 3
m_hi = 5

[run]
x0 = 0 0; 0.75 0.25
resolution = 0.01
"""


class TestPlaneDeterminism:
    """Determinism on a 2-d system, cold and warm cloud cache."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        cfg = parse_config(SIERPINSKI)
        cold_a = run_experiment(cfg, cache_dir=tmp_path_factory.mktemp("a"))
        cache = tmp_path_factory.mktemp("b")
        cold_b = run_experiment(cfg, cache_dir=cache)
        assert list(cache.glob("cloud-*.ifsc"))
        warm = run_experiment(cfg, cache_dir=cache)
        return cold_a.artifacts, cold_b.artifacts, warm.artifacts

    def test_cold_runs_identical(self, runs):
        cold_a, cold_b, _ = runs
        assert cold_a == cold_b

    def test_warm_cache_keeps_recovery_and_cover(self, runs):
        _, cold, warm = runs
        assert set(warm) == set(cold)
        for name in set(cold) - {"summary.txt"}:
            assert warm[name] == cold[name], name

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: cloud format v3 does not store diam_upper, and "
        "read_cloud recomputes it with another formula, so a warm cache "
        "changes the diam bracket in summary.txt"))
    def test_warm_cache_keeps_summary(self, runs):
        _, cold, warm = runs
        assert warm["summary.txt"] == cold["summary.txt"]


# SIERPINSKI over 59,049 points, past the 2**15 at which records run on
# every core.
SIERPINSKI_LARGE = SIERPINSKI.replace("0.01", "0.001")


def _record_threads(monkeypatch) -> list:
    """The thread that ran each recovery_time call of run_experiment."""
    threads, recovery_time = [], cg.harness.recovery_time

    def record(*args, **kwargs):
        threads.append(threading.get_ident())
        return recovery_time(*args, **kwargs)
    monkeypatch.setattr(cg.harness, "recovery_time", record)
    return threads


def _failing(eps: str) -> str:
    """sierpinski-debruijn's 177,147-point cloud with [eps] list = eps: a
    record fails where eps is below the cloud resolution, about 0.00049."""
    text = PRESETS["sierpinski-debruijn"].replace("x0 = 0 0; 1 0", "x0 = 0 0")
    return text[:text.index("a = 1")] + f"list = {eps}\n\n" + text[text.index("[run]"):]


class TestConcurrentRecords:
    """Over a cloud of 2**15 points or more, records run on every core the
    process may use: the artifacts are the same bytes as on one core, and
    a failing run raises the error that one core raises.  The runs set the
    core count, so the helper path runs on any machine."""

    @pytest.mark.parametrize("text, threads", [(SIERPINSKI_LARGE, 2), (MINIMAL, 1)],
                             ids=["2-d", "1-d under the gate"])
    def test_artifacts_identical(self, monkeypatch, tmp_path, text, threads):
        cfg, ran = parse_config(text), _record_threads(monkeypatch)
        runs = {}
        for cores in (1, 2):
            monkeypatch.setattr(cg.harness, "_cores", lambda: cores)
            ran.clear()
            cache = tmp_path / str(cores)
            runs[cores] = [run_experiment(cfg, cache_dir=cache).artifacts,   # cold
                           run_experiment(cfg, cache_dir=cache).artifacts]   # warm
            assert len(set(ran)) == (1 if cores == 1 else threads)
        assert runs[1] == runs[2]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity set")
    def test_cores_are_the_affinity_set(self):
        assert cg.harness._cores() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("eps, named", [("0.1 0.0001", "eps=0.0001"),
                                            ("0.1 0.0001 0.00005", "eps=0.0001")],
                             ids=["last fails", "lowest index wins"])
    def test_error_as_on_one_core(self, monkeypatch, eps, named):
        cfg = parse_config(_failing(eps))
        errors, ran = {}, _record_threads(monkeypatch)
        for cores in (1, 2):
            monkeypatch.setattr(cg.harness, "_cores", lambda: cores)
            before = threading.active_count()
            with pytest.raises(ValidationError) as exc:
                run_experiment(cfg)
            assert threading.active_count() == before
            errors[cores] = str(exc.value)
        assert errors[1] == errors[2]
        assert errors[2].startswith(named + " must exceed the cloud resolution")
        assert len(set(ran)) == 2   # the helper ran, on the second run

    def test_cli_error_exits_2(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(cg.harness, "_cores", lambda: 2)
        path = tmp_path / "failing.ini"
        path.write_text(_failing("0.1 0.0001"))
        before = threading.active_count()
        assert main(["experiment", "run", str(path)]) == 2
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert err.startswith("error: eps=0.0001 must exceed") and "Traceback" not in err

    def test_threads_joined_after_success(self, monkeypatch):
        monkeypatch.setattr(cg.harness, "_cores", lambda: 2)
        before = threading.active_count()
        run_experiment(parse_config(_failing("0.1 0.05")))
        assert threading.active_count() == before

    def test_interrupt_joins_the_helpers(self):
        # SIGINT reaches the calling thread while it waits for the helper's
        # job; the helper still finishes that job before the interrupt
        # leaves _in_order.
        done = []

        def job(k):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.1)
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                time.sleep(0.1)
                done.append(k)
            return k

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            _in_order(job, [(0,), (1,)], 1)
        assert done == [1] and threading.active_count() == before

    def test_results_in_job_order(self):
        jobs = [(k,) for k in range(9)]
        assert _in_order(lambda k: k * k, jobs, 2) == [k * k for k in range(9)]

    def test_lowest_index_error_raised(self):
        # The helpers fail first, on the last jobs; every job before the
        # lowest failure still runs, and that failure is the one raised.
        ran = []

        def job(k):
            ran.append(k)
            if k >= 5:
                raise ValueError(k)

        with pytest.raises(ValueError, match="^5$"):
            _in_order(job, [(k,) for k in range(9)], 2)
        assert set(range(6)) <= set(ran)

    def test_failure_stops_later_jobs(self):
        # This thread's job 2 fails while the helper is still in job 8: the
        # helper takes no job after it, and jobs 3..7 never run.
        ran = []

        def job(k):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)
            ran.append(k)
            if k == 2:
                raise ValueError(k)

        with pytest.raises(ValueError, match="^2$"):
            _in_order(job, [(k,) for k in range(9)], 1)
        assert sorted(ran) == [0, 1, 2, 8]


# SIERPINSKI with a slow driver: two blocks, so the schedule counts the
# points outside the base map's ball as well as building two words.
SIERPINSKI_SLOW = (SIERPINSKI[:SIERPINSKI.index("[driver]")]
                   + "[driver]\nkind = slow\npsi = power\nz = 2.5\n\n"
                   + SIERPINSKI[SIERPINSKI.index("[run]"):].replace("0.01", "0.005"))


def _recorded(fn, name, calls):
    def call(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return call


class TestCoverSizesInCloudFile:
    """A cached cloud's file, cloud-<key>.ifsc, keeps its memo tables beside
    the points, so a warm run walks no radius of the cloud twice and, with a
    slow driver, builds no covering word and counts no outside points."""

    @staticmethod
    def _cloud_walks(monkeypatch, cfg, cache):
        """Artifacts of a run on cache, the radii it walked on the cloud
        itself, and its calls of every greedy walk (build_sigma's centred
        ones and the slow driver's on its outside points too) and of
        build_sigma's address steps."""
        from tests.test_metrics import _walk_radii

        radii, calls = _walk_radii(monkeypatch), []
        for owner, name in ((cg.ifs, "_line_walk"), (cg.ifs, "_tree_walk"),
                            (cg.construct, "_hutchinson_points"),
                            (cg.construct, "_nearest_address")):
            monkeypatch.setattr(owner, name, _recorded(getattr(owner, name), name, calls))
        report = run_experiment(cfg, cache_dir=cache)
        size = cg.read_cloud(next(cache.glob("*.ifsc"))).size
        monkeypatch.undo()
        return report.artifacts, [r for n, r in radii if n == size], calls

    @pytest.mark.parametrize("cfg", [load_preset("cantor-champernowne"),
                                     parse_config(SIERPINSKI),
                                     load_preset("slow-power-z1"),
                                     parse_config(SIERPINSKI_SLOW)],
                             ids=["cantor-champernowne", "2-d", "slow-power-z1", "2-d-slow"])
    def test_warm_run_walks_no_radius(self, monkeypatch, tmp_path, cfg):
        cold, walked, calls = self._cloud_walks(monkeypatch, cfg, tmp_path)
        (path,) = tmp_path.iterdir()
        assert walked and sorted(cg.read_cloud(path).cover_sizes) == sorted(walked)
        assert ("_nearest_address" in calls) == (cfg.driver_kind == "slow")
        warm, walked, calls = self._cloud_walks(monkeypatch, cfg, tmp_path)
        assert walked == [] and calls == []
        cg.write_cloud(path, dataclasses.replace(cg.read_cloud(path)))   # no memo
        rewalk, walked, _ = self._cloud_walks(monkeypatch, cfg, tmp_path)
        assert walked and warm == rewalk
        # summary.txt of a 2-d cold run differs in the diam bracket alone
        # (TestPlaneDeterminism's expected failure).
        assert {k: v for k, v in warm.items() if k != "summary.txt"} == \
            {k: v for k, v in cold.items() if k != "summary.txt"}

    def test_rewritten_when_only_words_and_outside_counts_grew(self, tmp_path):
        # A file that holds every cover radius of the slow schedule but none
        # of its words or outside counts gains them on the next run.
        cfg = load_preset("slow-power-z1")
        run_experiment(cfg, cache_dir=tmp_path)
        (path,) = tmp_path.iterdir()
        full = cg.read_cloud(path)
        sizes_only = dataclasses.replace(full)
        sizes_only.cover_sizes.update(full.cover_sizes)
        cg.write_cloud(path, sizes_only)
        run_experiment(cfg, cache_dir=tmp_path)
        again = cg.read_cloud(path)
        assert again.outside_sizes == full.outside_sizes and full.outside_sizes
        assert {k: w.tolist() for k, w in again.words.items()} == \
            {k: w.tolist() for k, w in full.words.items()}

    def test_shared_cloud_walks_no_cover_radius(self, monkeypatch, tmp_path):
        # cantor-debruijn reads the same cloud and eps ladder as
        # cantor-champernowne, so its cover.csv comes from the cloud file.
        first, _, _ = self._cloud_walks(monkeypatch, load_preset("cantor-champernowne"),
                                        tmp_path)
        second, walked, _ = self._cloud_walks(monkeypatch, load_preset("cantor-debruijn"),
                                              tmp_path)
        assert walked == []
        assert second["cover.csv"] == first["cover.csv"]
        assert second == run_experiment(load_preset("cantor-debruijn")).artifacts

    def test_exact_attractor_writes_no_cloud_file(self, tmp_path):
        run_experiment(load_preset("example4-z1"), cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


_LINE_RUN_SCRIPT = """
import sys
from chaosgame import build_cloud, sierpinski_ifs
from chaosgame.harness import parse_config, run_experiment
cfg = parse_config(sys.argv[2])
for _ in range(2):             # the first run writes the cloud file, the second reads it
    run_experiment(cfg, cache_dir=sys.argv[1])
assert [m for m in sys.modules if m.startswith("scipy")] == []
build_cloud(sierpinski_ifs(), 0.1)
assert "scipy.spatial" in sys.modules
"""


def test_line_run_never_imports_scipy(tmp_path):
    # scipy.spatial loads at the first d-dim query, so a run on the line,
    # a slow driver's schedule and the cloud cache included, loads numpy
    # alone.  This session has scipy loaded, hence the fresh interpreter.
    text = ("[experiment]\nschema_version = 1\nname = line\nseed = 0\n\n"
            "[ifs]\npreset = cantor\n\n"
            "[driver]\nkind = slow\npsi = power\nz = 1\nk_max = 2\n\n"
            "[run]\nx0 = 0.5\nresolution = 0.001\norbit_cap = 100000\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cg.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", _LINE_RUN_SCRIPT, str(tmp_path), text],
                   env=env, check=True, timeout=60)
    assert len(list(tmp_path.iterdir())) == 1
