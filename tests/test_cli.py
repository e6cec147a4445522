"""Command-line interface: subcommands, output formats, exit codes."""

import pytest

from chaosgame.cli import main


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


class TestDim:
    def test_segment(self, capsys):
        code, out, _ = run(capsys, "dim", "--ifs", "segment", "--r", "0.5",
                           "--m-lo", "4", "--m-hi", "8",
                           "--resolution", "0.001")
        assert code == 0
        assert out.splitlines()[0] == "b_m,lower,upper,rate_lower,rate_upper"
        value = float(out.splitlines()[-1].split()[-1])
        assert value == pytest.approx(1.0, abs=0.1)


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


class TestBadInputExit2:
    """Bad values exit with code 2 and a message naming the input."""

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

    @pytest.mark.parametrize("keep,part", [(10, "header"), (80, "payload")])
    def test_truncated_cloud_cache(self, capsys, config, tmp_path, keep, part):
        path, cache = config(), tmp_path / "cache"
        assert run(capsys, "experiment", "run", path, "--cache", str(cache))[0] == 0
        (cloud_file,) = cache.glob("*.ifsc")
        cloud_file.write_bytes(cloud_file.read_bytes()[:keep])
        code, _, err = run(capsys, "experiment", "run", path, "--cache", str(cache))
        assert code == 2
        assert str(cloud_file) in err and f"truncated cloud cache {part}" in err
