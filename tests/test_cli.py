import json
import math
import time
from pathlib import Path

import pytest

from ucr import cli_report, systems
from ucr.quadrature import DEFAULT_SPEC, QuadratureSpec
from ucr.cli_report import (
    COMPARE_HEADER,
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_PARITY,
    EXIT_USAGE,
    UsageError,
    main,
    parse_n_list,
)

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseNList:
    def test_comma_list(self):
        assert parse_n_list("0,1,5,20") == [0, 1, 5, 20]

    def test_range(self):
        # a range is not built: its levels are checked from its two ends
        assert parse_n_list("1..5") == range(1, 6)

    def test_single(self):
        assert parse_n_list("7") == [7]

    @pytest.mark.parametrize("bad", ["", "a,b", "5..1", "1..x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(UsageError):
            parse_n_list(bad)


class TestGoldenOutputs:
    def test_compare_ho(self, capsys):
        code, out, _ = run(capsys, "compare", "--system", "ho", "--n", "0,1")
        assert code == EXIT_OK
        assert out == (GOLDEN / "compare_ho_n01.csv").read_text()

    def test_density_well(self, capsys):
        code, out, _ = run(capsys, "density", "--system", "well", "--n", "2", "--points", "5")
        assert code == EXIT_OK
        assert out == (GOLDEN / "density_well_n2_p5.csv").read_text()

    def test_density_bouncer(self, capsys):
        # z runs over [a_9, 0] = [-11.94, 0], all on Ai's Taylor steps, and
        # a clipped turning point
        code, out, _ = run(capsys, "density", "--system", "bouncer", "--n", "9", "--points", "41")
        assert code == EXIT_OK
        assert out == (GOLDEN / "density_bouncer_n9_p41.csv").read_text()

    def test_airy_zeros(self, capsys):
        code, out, _ = run(capsys, "airy-zeros", "--count", "5")
        assert code == EXIT_OK
        assert out == (GOLDEN / "airy_zeros_5.csv").read_text()

    def test_compare_bouncer_json(self, capsys):
        code, out, _ = run(capsys, "compare", "--system", "bouncer", "--n", "1", "--format", "json")
        assert code == EXIT_OK
        assert out == (GOLDEN / "compare_bouncer_n1.json").read_text()

    def test_compare_well(self, capsys):
        code, out, _ = run(capsys, "compare", "--system", "well", "--n", "1,2,100")
        assert code == EXIT_OK
        assert out == (GOLDEN / "compare_well_n1_2_100.csv").read_text()

    def test_verify_bouncer(self, capsys):
        # the classical bouncer's endpoint-offset forms reach the 5e-13
        # mean_x2 deviation
        code, out, _ = run(capsys, "verify", "--system", "bouncer", "--samples", "1000")
        assert code == EXIT_OK
        assert out == (GOLDEN / "verify_bouncer_s1000.csv").read_text()

    @pytest.mark.parametrize("system", ["ho", "well"])
    def test_verify_oscillator_and_well(self, capsys, system):
        # the trajectory oracle's time averages, pinned for the other two systems
        code, out, _ = run(capsys, "verify", "--system", system, "--samples", "1000")
        assert code == EXIT_OK
        assert out == (GOLDEN / f"verify_{system}_s1000.csv").read_text()

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "compare", "--system", "well", "--n", "1..3")
        _, second, _ = run(capsys, "compare", "--system", "well", "--n", "1..3")
        assert first == second


class TestCompareCommand:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run(capsys, "compare", "--system", "ho", "--n", "0,1,5")
        lines = out.strip().split("\n")
        assert lines[0] == COMPARE_HEADER
        assert len(lines) == 1 + 2 * 3  # classical + quantum row per level
        assert code == EXIT_OK

    def test_float_formatting(self, capsys):
        _, out, _ = run(capsys, "compare", "--system", "ho", "--n", "0")
        row = out.strip().split("\n")[1].split(",")
        assert row[4] == "0.00000000000e+00"
        assert row[5] == "5.00000000000e-01"

    def test_json_mirrors_csv(self, capsys):
        _, csv_out, _ = run(capsys, "compare", "--system", "well", "--n", "2")
        _, json_out, _ = run(capsys, "compare", "--system", "well", "--n", "2", "--format", "json")
        records = json.loads(json_out)
        csv_rows = [line.split(",") for line in csv_out.strip().split("\n")[1:]]
        header = COMPARE_HEADER.split(",")
        assert len(records) == len(csv_rows)
        for record, row in zip(records, csv_rows):
            for key, cell in zip(header, row):
                value = record[key]
                if isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                else:
                    assert cell == str(value)

    def test_well_parity_uses_finite_n_formula(self, capsys):
        # the well's <X^2> differs from the classical 1/3 by 2/(n^2 pi^2),
        # which must not count as a parity failure
        code, out, _ = run(capsys, "compare", "--system", "well", "--n", "1")
        assert code == EXIT_OK
        quantum = out.strip().split("\n")[2].split(",")
        assert float(quantum[5]) == pytest.approx(1.0 / 3.0 - 2.0 / math.pi ** 2, abs=1e-10)
        assert quantum[-1] == "true"

    def test_parity_failure_exit_code(self, capsys):
        # parity is |classical - quantum| < --tol, so a tolerance of 0 fails every row: even at
        # --quad-tol 1e-6 the bouncer's passes from their break points agree to the printed digits
        code, out, _ = run(capsys, "compare", "--system", "bouncer", "--n", "3", "--quad-tol", "1e-6", "--tol", "0")
        assert code == EXIT_PARITY
        assert out.strip().split("\n")[1].split(",")[-1] == "false"

    def test_invalid_quantum_number_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare", "--system", "well", "--n", "0")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unknown_system_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "compare", "--system", "pendulum")
        assert code == EXIT_USAGE

    def test_unconvergent_quadrature_is_computation_error(self, capsys):
        code, _, err = run(capsys, "compare", "--system", "ho", "--n", "0", "--quad-tol", "1e-300")
        assert code == EXIT_COMPUTATION
        assert "error" in err

    def test_computation_error_names_system_and_level(self, capsys):
        code, _, err = run(capsys, "compare", "--system", "ho", "--n", "0", "--quad-tol", "1e-300")
        assert code == EXIT_COMPUTATION
        assert err.startswith("error: ho n=0: ")

    def test_unconverged_node_solve_names_system_and_level(self, capsys, monkeypatch):
        # the Gauss-Hermite nodes need three Newton steps; one leaves them unsettled
        monkeypatch.setattr(systems, "_NEWTON_STEPS", 1)
        code, out, err = run(capsys, "compare", "--system", "ho", "--n", "5")
        assert (code, out) == (EXIT_COMPUTATION, "")
        assert err == "error: ho n=5: Gauss-Hermite nodes for 7 points did not converge in 1 Newton steps\n"

    def test_computation_error_without_message_names_its_class(self, capsys, monkeypatch):
        # a bare MemoryError, as a level too large for memory raises, has an empty message
        def out_of_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(cli_report, "quantum_moments_quadrature", out_of_memory)
        code, out, err = run(capsys, "compare", "--system", "ho", "--n", "0")
        assert (code, out, err) == (EXIT_COMPUTATION, "", "error: MemoryError\n")

    @pytest.mark.parametrize(
        "system, n, quad_tol",
        [("bouncer", "5", "1e-6"), ("ho", "0", "1e-4")],
    )
    def test_loose_quad_tol_is_no_mean_p_alarm(self, capsys, system, n, quad_tol):
        # <P> is held to the requested integral tolerance, not to 1e-12 alone
        code, _, err = run(capsys, "compare", "--system", system, "--n", n, "--quad-tol", quad_tol)
        assert code == EXIT_OK, err

    @pytest.mark.parametrize("command", ["compare", "density"])
    def test_oscillator_level_past_its_ceiling_is_refused_at_once(self, capsys, command):
        # refused before any of the level's ~n^2 work starts
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--system", "ho", "--n", "99999999999")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: oscillator quantum number must be at most 20000, got 99999999999\n"

    @pytest.mark.parametrize("levels, top", [("0..99999999999", 99999999999), ("19999..20001", 20001)])
    def test_oscillator_range_past_its_ceiling_is_refused_at_once(self, capsys, levels, top):
        # checked from its two ends: neither the whole list nor a level below the ceiling is built first
        start = time.perf_counter()
        code, out, err = run(capsys, "compare", "--system", "ho", "--n", levels)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: oscillator quantum number must be at most 20000, got {top}\n"

    @pytest.mark.parametrize("command, top, message", [
        ("compare", 10 ** 17, f"n selector 1..{10 ** 17} has too many levels to build"),
        ("density", 10 ** 20, "density needs exactly one quantum number"),
    ], ids=["compare-bouncer", "density-bouncer"])
    def test_range_too_long_to_build_is_refused_at_once(self, capsys, command, top, message):
        # compare checks both ends first, so its top is a bouncer level a_n can reach (a_n ~ -6e11);
        # its list of levels is more than memory holds.  density's range lies past sys.maxsize,
        # where len(range) fails, and is refused for its second level without measuring it
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--system", "bouncer", "--n", f"1..{top}")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: {message}\n"

    @pytest.mark.parametrize("command", ["compare", "density"])
    def test_well_level_past_its_ceiling_is_refused_at_once(self, capsys, command):
        # refused before its pass holds the level's n panels (10^7 of them took 1.2 GB)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--system", "well", "--n", "10000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: well quantum number must be at most 1000000, got 10000000\n"

    def test_bouncer_level_past_airy_limit_is_usage_error(self, capsys):
        # a_n for n ~ 1e18 lies below -1e12, where airy_ai refuses to compute
        code, _, err = run(capsys, "compare", "--system", "bouncer", "--n", "1000000000000000000")
        assert code == EXIT_USAGE
        assert "-1e+12" in err

    @pytest.mark.parametrize("command", ["compare", "density"])
    def test_bouncer_level_too_large_for_a_float_is_usage_error(self, capsys, command):
        # 10^309 overflows a float: the index is refused as an integer, before its conversion
        n = "1" + "0" * 309
        code, out, err = run(capsys, command, "--system", "bouncer", "--n", n)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: Airy zero {n} lies below the limit -1e+12, past which Ai is not computed accurately\n"

    @pytest.mark.parametrize("target", [".", "missing/table.csv"])
    def test_unwritable_out_path_is_usage_error(self, capsys, tmp_path, target):
        # a directory, or a file in a missing directory: refused before computing
        path = str(tmp_path / target)
        code, out, err = run(capsys, "compare", "--system", "ho", "--n", "0", "--out", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and path in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "compare", "--system", "ho", "--n", "0", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith(COMPARE_HEADER)


class TestDensityCommand:
    def test_header(self, capsys):
        code, out, _ = run(capsys, "density", "--system", "ho", "--n", "0", "--points", "3")
        assert code == EXIT_OK
        assert out.split("\n")[0] == "x_scaled,p_qm,p_cl,clipped_flag"

    def test_clipped_flags_at_turning_points(self, capsys):
        _, out, _ = run(capsys, "density", "--system", "ho", "--n", "0", "--points", "5")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows[0][3] == "1" and rows[-1][3] == "1"
        assert all(r[3] == "0" for r in rows[1:-1])

    def test_needs_single_level(self, capsys):
        code, _, _ = run(capsys, "density", "--system", "ho", "--n", "0,1")
        assert code == EXIT_USAGE

    def test_one_level_range(self, capsys):
        code, out, _ = run(capsys, "density", "--system", "bouncer", "--n", "3..3", "--points", "3")
        assert code == EXIT_OK
        assert out == run(capsys, "density", "--system", "bouncer", "--n", "3", "--points", "3")[1]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_points_past_its_ceiling_is_refused_at_once(self, capsys, tmp_path, source):
        # refused before the grid is built: each point costs about 0.75 KB, so 10^7 would need ~7.5 GB
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=1000001\n")
        given = ("--points", "1000001") if source == "flag" else ("--config", str(cfg))
        start = time.perf_counter()
        code, out, err = run(capsys, "density", "--system", "ho", "--n", "5", *given)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        where = "argument --points" if source == "flag" else "bad config value for points"
        assert err == f"usage error: {where}: must be >= 2 and <= 1000000, got 1000001\n"

    def test_points_at_its_ceiling_is_accepted(self):
        # converted but not run (about 5 s and 780 MB)
        assert cli_report._OPTIONS["points"]("1000000") == 1_000_000

    def test_json_format(self, capsys):
        _, out, _ = run(capsys, "density", "--system", "bouncer", "--n", "1", "--points", "4",
                        "--format", "json")
        records = json.loads(out)
        assert len(records) == 4
        assert float(records[0]["p_qm"]) == pytest.approx(0.0, abs=1e-12)


class TestAiryZerosCommand:
    def test_count_validation(self, capsys):
        code, _, _ = run(capsys, "airy-zeros", "--count", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("count", ["100001", "1000000000000000000"])
    def test_count_past_its_ceiling_is_refused_at_once(self, capsys, count):
        # refused before any zero is solved: each costs about 24 us and 0.4 KB
        start = time.perf_counter()
        code, out, err = run(capsys, "airy-zeros", "--count", count)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: argument --count: must be >= 1 and <= 100000, got {count}\n"

    def test_count_at_its_ceiling_is_accepted(self):
        # parsed but not run (about 3 s)
        assert cli_report._PARSER.parse_args(["airy-zeros", "--count", "100000"]).count == 100_000

    def test_json(self, capsys):
        _, out, _ = run(capsys, "airy-zeros", "--count", "2", "--format", "json")
        records = json.loads(out)
        assert [r["n"] for r in records] == [1, 2]
        assert float(records[0]["scaled_energy"]) == pytest.approx(2.338107410, abs=1e-9)


class TestVerifyCommand:
    def test_passes_at_default_samples(self, capsys):
        code, out, _ = run(capsys, "verify", "--system", "ho")
        assert code == EXIT_OK
        assert out.split("\n")[0] == "field,quadrature,trajectory,abs_dev"

    def test_coarse_sampling_fails(self, capsys):
        # 100 time samples leave ~1e-4 in the well's <X^2>, above the
        # default 1e-4 verification tolerance
        code, out, _ = run(capsys, "verify", "--system", "well", "--samples", "100")
        assert code == EXIT_PARITY
        devs = {line.split(",")[0]: float(line.split(",")[3]) for line in out.strip().split("\n")[1:]}
        assert devs["mean_x2"] > 1e-4

    def test_loose_tolerance_recovers(self, capsys):
        code, _, _ = run(capsys, "verify", "--system", "well", "--samples", "100", "--tol", "1e-2")
        assert code == EXIT_OK

    def test_json_format(self, capsys):
        _, csv_out, _ = run(capsys, "verify", "--system", "bouncer", "--samples", "1000")
        code, json_out, _ = run(capsys, "verify", "--system", "bouncer", "--samples", "1000", "--format", "json")
        assert code == EXIT_OK
        header, *rows = [line.split(",") for line in csv_out.strip().split("\n")]
        records = json.loads(json_out)
        assert [list(record) for record in records] == [header] * len(rows)
        assert [list(record.values()) for record in records] == rows

    def test_unknown_oracle_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--system", "ho", "--oracle", "odesolve")
        assert code == EXIT_USAGE

    def test_computation_error_names_system(self, capsys):
        code, _, err = run(capsys, "verify", "--system", "ho", "--samples", "1000", "--quad-tol", "1e-300")
        assert code == EXIT_COMPUTATION
        assert err.startswith("error: ho: ")


class TestConfigHandling:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system=well\nn=2\n# comment\n\nformat=csv\n")
        code, out, _ = run(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_OK
        assert out.strip().split("\n")[1].startswith("well,2,")

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system=bouncer\nn=1\n")
        monkeypatch.setenv("UCR_CONFIG", str(cfg))
        code, out, _ = run(capsys, "compare")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1].startswith("bouncer,1,")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system=bouncer\nn=1\n")
        code, out, _ = run(capsys, "compare", "--config", str(cfg), "--system", "ho", "--n", "0")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1].startswith("ho,0,")

    def test_missing_config_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "compare", "--config", "/nonexistent/path.cfg")
        assert code == EXIT_USAGE

    def test_non_utf8_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"system=well\nn=\xff\n")
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert str(cfg) in err

    def test_config_does_not_leak_into_a_later_call(self, capsys, tmp_path):
        # every main() call in a process shares one parser
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system=well\nn=2\n")
        assert run(capsys, "compare", "--config", str(cfg))[0] == EXIT_OK
        code, out, _ = run(capsys, "compare", "--n", "0")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1].startswith("ho,0,")

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system well\n")
        code, _, _ = run(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("line", ["sytem=well", "oracle=odesolve"])
    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n=1\n{line}\n")
        code, out, err = run(capsys, "verify", "--samples", "1000", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert line.split("=")[0] in err

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=oops\n")
        code, _, _ = run(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_USAGE


class TestUsageSurface:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "transmogrify")[0] == EXIT_USAGE

    def test_unknown_format(self, capsys):
        assert run(capsys, "compare", "--format", "xml")[0] == EXIT_USAGE

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("compare", "--points", "5"),
            ("compare", "--samples", "1000"),
            ("density", "--samples", "1000"),
            ("density", "--tol", "1e-3"),
            ("density", "--quad-tol", "1e-10"),
            ("airy-zeros", "--system", "well"),
            ("airy-zeros", "--n", "5"),
            ("airy-zeros", "--points", "5"),
            ("airy-zeros", "--samples", "1000"),
            ("airy-zeros", "--tol", "1e-3"),
            ("airy-zeros", "--quad-tol", "1e-10"),
            ("verify", "--n", "3"),
            ("verify", "--points", "5"),
        ],
    )
    def test_flag_the_command_does_not_read(self, capsys, command, flag, value):
        code, out, err = run(capsys, command, flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err


class TestInputValidation:
    def test_default_quad_tol_gives_the_library_default_spec(self):
        # the CLI's spec and the library's cannot drift apart
        for name in ("compare", "verify"):
            assert QuadratureSpec(cli_report._COMMANDS[name][1]["quad-tol"]) == DEFAULT_SPEC

    @pytest.mark.parametrize("command", [("compare", "--n", "0"), ("verify", "--samples", "1000")])
    @pytest.mark.parametrize("quad_tol", ["1e306", "1e307"])
    def test_quad_tol_whose_tolerance_overflows_is_usage_error(self, capsys, command, quad_tol):
        # the relative tolerance 100 quad-tol: at 1e307 it is inf, at 1e306 its product
        # with a moment of order one is
        code, out, err = run(capsys, *command, "--system", "ho", "--quad-tol", quad_tol)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error:") and "--quad-tol" in err and "1e+300" in err

    @pytest.mark.parametrize(
        "command, expected",
        # the bouncer's quantum pass stops on its starting panels and runs to
        # the parity verdict, which --tol 0 fails; verify's classical pass meets
        # its oracle, and the oscillator's exact rule does not depend on --quad-tol
        [
            (("compare", "--system", "bouncer", "--n", "1", "--tol", "0"), EXIT_PARITY),
            (("verify", "--system", "ho", "--samples", "1000"), EXIT_OK),
            (("compare", "--system", "ho", "--n", "0"), EXIT_OK),
        ],
    )
    def test_largest_quad_tol_is_accepted(self, capsys, command, expected):
        code, _, err = run(capsys, *command, "--quad-tol", "1e300")
        assert code == expected, err

    def test_largest_quad_tol_on_a_large_moment_is_a_parity_failure(self, capsys):
        # the bouncer's raw <z^2> integral at n = 5000 is past 1.79e6, where
        # 100 quad-tol * |value| = 1e302 * |value| saturates instead of overflowing;
        # the rows then reach the verdict, which --tol 0 fails
        code, _, err = run(capsys, "compare", "--system", "bouncer", "--n", "5000", "--quad-tol", "1e300", "--tol", "0")
        assert code == EXIT_PARITY, err

    @pytest.mark.parametrize(
        "argv",
        [
            ("density", "--system", "well", "--n", "2", "--points", "1"),
            ("verify", "--system", "well", "--samples", "1"),
            ("verify", "--system", "well", "--samples", "1000000001"),
            ("compare", "--system", "ho", "--n", "0", "--tol", "nan"),
            ("compare", "--system", "ho", "--n", "0", "--tol=-1e-6"),
            ("compare", "--system", "ho", "--n", "0", "--tol", "inf"),
            ("compare", "--system", "ho", "--n", "0", "--quad-tol", "0"),
            ("compare", "--system", "ho", "--n", "0", "--quad-tol=-1e-12"),
            ("compare", "--system", "ho", "--n", "0", "--quad-tol", "nan"),
            ("compare", "--system", "ho", "--n", "0", "--quad-tol", "inf"),
            # both oscillator grid points are singular turning points
            ("density", "--system", "ho", "--n", "1", "--points", "2"),
        ],
    )
    def test_bad_values_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize(
        "line", ["points=1", "samples=0", "samples=1000000001", "tol=nan", "tol=-1", "quad-tol=0", "quad-tol=inf"]
    )
    def test_bad_config_values_are_usage_errors(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"system=well\nn=2\n{line}\n")
        code, _, err = run(capsys, "compare", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith("usage error:")

    def test_boundary_values_accepted(self, capsys):
        assert run(capsys, "density", "--system", "well", "--n", "1", "--points", "2")[0] == EXIT_OK
        assert run(capsys, "density", "--system", "bouncer", "--n", "1", "--points", "2")[0] == EXIT_OK
        # a zero parity tolerance is valid input that no computed row meets
        assert run(capsys, "compare", "--system", "well", "--n", "1", "--tol", "0")[0] == EXIT_PARITY
        # the largest sample count, converted but not run (up to a minute)
        assert cli_report._OPTIONS["samples"]("1000000000") == 1_000_000_000
