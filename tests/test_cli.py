import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qgames import cli, solver
from qgames.strategies import KOLKATA_OPTIMAL_PARAMS

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def run_cli(argv):
    buffer = io.StringIO()
    code = cli.run(argv, buffer)
    return code, buffer.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out)


class TestGameCommands:
    def test_pd_equilibrium_profile(self):
        code, payload = run_json(
            ["pd", "--alice", "eisert:0,pi/2", "--bob", "eisert:0,pi/2"]
        )
        assert code == 0
        np.testing.assert_allclose(payload["payoffs"], [3.0, 3.0], atol=1e-9)

    def test_pd_asymmetric(self):
        code, payload = run_json(["pd", "--alice", "bit:1", "--bob", "bit:0"])
        assert code == 0
        np.testing.assert_allclose(payload["payoffs"], [5.0, 0.0], atol=1e-9)

    def test_minority_optimal(self):
        code, payload = run_json(
            ["minority", "-n", "4", "--strategy", "full:pi/2,-pi/8,pi/8"]
        )
        assert code == 0
        np.testing.assert_allclose(payload["payoffs"], [0.25] * 4, atol=1e-9)

    def test_kolkata_half_fidelity(self):
        code, payload = run_json(
            ["kolkata", "--strategy", "su3:table2", "--fidelity", "0.5"]
        )
        assert code == 0
        np.testing.assert_allclose(payload["payoffs"], [5 / 9] * 3, atol=1e-9)

    def test_kolkata_profile_player_order(self):
        code, payload = run_json(
            ["kolkata", "--profile", "c3:0", "c3:2", "c3:1"]
        )
        assert code == 0
        # players 1..3 chose 0, 2, 1: everyone unique
        np.testing.assert_allclose(payload["payoffs"], [1.0, 1.0, 1.0], atol=1e-9)
        assert payload["probabilities"]["120"] > 0.3

    def test_probabilities_cover_all_outcomes(self):
        _, payload = run_json(["kolkata", "--strategy", "su3:table2"])
        assert len(payload["probabilities"]) == 27

    def test_dump_payoffs(self):
        code, payload = run_json(["pd", "--dump-payoffs"])
        assert code == 0
        assert payload["payoffs"]["01"] == [5, 0]

    @pytest.mark.parametrize("command", ["pd", "minority", "kolkata"])
    def test_lenient_is_rejected(self, capsys, command):
        # every move is checked for unitarity; there is no option to skip it
        code, out = run_cli([command, "--lenient"])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "qgames: unrecognized arguments: --lenient"}
        assert capsys.readouterr().err == ""

    def test_text_format(self):
        code, out = run_cli(
            ["pd", "--alice", "eisert:0,pi/2", "--bob", "eisert:0,pi/2",
             "--format", "text"]
        )
        assert code == 0
        assert "payoffs" in out


class TestErrors:
    def test_malformed_literal(self):
        code, payload = run_json(["pd", "--alice", "warp:0"])
        assert code == 2
        assert "error" in payload

    def test_out_of_range_fidelity(self):
        code, payload = run_json(
            ["kolkata", "--strategy", "su3:table2", "--fidelity", "1.5"]
        )
        assert code == 2
        assert "error" in payload

    def test_nan_fidelity(self):
        code, out = run_cli(["kolkata", "--fidelity", "nan"])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "fidelity must lie in [0, 1], got nan"}

    def test_negative_refine_step(self):
        code, out = run_cli(["search", "--game", "pd", "--refine-step", "-1"])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "refine_initial_step must be finite and positive"}

    def test_negative_refine_iterations(self):
        code, out = run_cli(["search", "--game", "pd", "--refine-iterations", "-1"])
        assert code == 2
        assert json.loads(out) == {"error": "refine_iterations must be >= 0"}

    def test_grid_above_cap(self):
        code, out = run_cli(["search", "--game", "kolkata", "--mode", "pareto",
                             "--payoff", "0.5", "--grid", "257"])
        assert code == 2
        assert json.loads(out) == {"error": "grid_points_per_axis must lie in [2, 256], got 257"}

    def test_search_above_work_budget(self):
        # 256 * 255^2 rows (alpha and beta drop their repeated endpoint) of 104
        # amplitudes, the powers U^0 .. U^7 and the 12 type products of
        # minority(14): 1.7e9 amplitudes, rejected before any work
        start = time.perf_counter()
        code, out = run_cli(["search", "--game", "minority", "-n", "14", "--mode", "pareto",
                             "--payoff", "0.05", "--grid", "256"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": (
            "a symmetric search over 16646400 grid rows evaluates 1731225600 amplitudes "
            "(104 per row), above the cap of 1073741824")}

    def test_default_grid_of_minority_fourteen_now_fits_the_work_budget(self):
        # 33 * 32^2 = 33 792 rows of 104 amplitudes: 3.5e6 of the 2^30 cap, though
        # rows x D x d would be 1.11e9
        code, payload = run_json(["search", "--game", "minority", "-n", "14", "--mode",
                                  "pareto", "--payoff", "0.05", "--grid", "33"])
        assert code == 0
        assert payload["certificate"] == "symmetric-witness"
        assert payload["config"]["grid_points_per_axis"] == 33

    @pytest.mark.parametrize("argv,message", [
        (["--mode", "nash", "--epsilon", "nan"], "epsilon_nash must be finite and positive"),
        (["--mode", "nash", "--epsilon", "inf"], "epsilon_nash must be finite and positive"),
        (["--mode", "pareto", "--payoff", "nan"], "payoff must be finite, got nan"),
        (["--mode", "pareto", "--payoff", "inf"], "payoff must be finite, got inf"),
        (["--mode", "pareto", "--payoff=-inf"], "payoff must be finite, got -inf"),
    ])
    def test_non_finite_verdict_thresholds(self, argv, message):
        # nan compares false with every gain, bound and witness, and an infinite
        # epsilon accepts any gain: either would decide a verdict
        game = ["--game", "pd"] if "nash" in argv else ["--game", "kolkata"]
        code, out = run_cli(["search", *game, *argv])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": message}

    @pytest.mark.parametrize("fidelities,message", [
        (",", "--fidelities entry 1 is empty"),
        ("", "--fidelities entry 1 is empty"),
        ("0.5,,1", "--fidelities entry 2 is empty"),
        ("0,x", "--fidelities entry 2 is not a number: 'x'"),
    ])
    def test_bad_fidelity_entry(self, fidelities, message):
        code, out = run_cli(["sweep", "--strategy", "su3:table2", "--fidelities", fidelities])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": message}

    @pytest.mark.parametrize("literal,message", [
        ("full:0,7,0", "alpha=7.0 outside [-3.14159, 3.14159]"),
        ("full:0,1e308,0", "alpha=1e+308 outside [-3.14159, 3.14159]"),
        ("full:pi/2,0,-4", "beta=-4.0 outside [-3.14159, 3.14159]"),
    ])
    def test_full_phase_out_of_box(self, literal, message):
        code, out = run_cli(["minority", "-n", "4", "--strategy", literal])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": message}

    @pytest.mark.parametrize("argv", [
        ["search", "--game", "kolkata", "-n", "5", "--mode", "best-response",
         "--profile", "su3:table2"],
        ["sweep", "--game", "kolkata", "-n", "5", "--strategy", "su3:table2"],
    ])
    def test_player_count_of_a_fixed_size_game(self, argv):
        # kolkata has three players; a different -n is an error, not ignored
        code, out = run_cli(argv)
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "the kolkata game has 3 players, got n=5"}

    def test_equal_player_count_of_a_fixed_size_game(self):
        code, payload = run_json(["search", "--game", "pd", "-n", "2", "--mode", "nash"])
        assert code == 0
        assert payload["n"] == 2

    def test_dimension_mismatch(self):
        code, payload = run_json(["minority", "--strategy", "su3:table2"])
        assert code == 2
        assert "error" in payload

    def test_sweep_points_bounded(self, monkeypatch):
        # rejected before the fidelity list is built or any point is played
        def never(*args):
            raise AssertionError("fidelity_sweep called")

        monkeypatch.setattr(cli, "fidelity_sweep", never)
        code, out = run_cli(["sweep", "--strategy", "su3:table2", "--points", "1002"])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "a sweep takes at most 1001 fidelities, got 1002"}

    def test_sweep_fidelities_bounded(self):
        fidelities = ",".join(["0.5"] * 1002)
        code, out = run_cli(["sweep", "--strategy", "su3:table2", "--fidelities", fidelities])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "a sweep takes at most 1001 fidelities, got 1002"}

    @pytest.mark.parametrize("argv", [
        ["--game", "kolkata", "--mode", "pareto", "--payoff", "0.4444444", "--grid", "4"],
        ["--game", "kolkata", "--mode", "best-response", "--player", "2",
         "--profile", "su3:0.3,0.7,1.1,0.5,2,4,1,3"],
        ["--game", "minority", "-n", "4", "--mode", "nash", "--profile", "full:pi/2,-pi/8,pi/8"],
    ])
    def test_negative_seed(self, monkeypatch, argv):
        # rejected before the grid is scanned, on a searched path as on an exact one
        def never(*args):
            raise AssertionError("grid scanned")

        monkeypatch.setattr(solver, "_chunked", never)
        code, out = run_cli(["search", *argv, "--seed", "-1"])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "seed must be a non-negative integer, got -1"}

    @pytest.mark.parametrize("argv,message", [
        (["--game", "foo"], "qgames search: argument --game: invalid choice: 'foo'"),
        (["--game", "pd", "--grid", "abc"], "qgames search: argument --grid: invalid int value: 'abc'"),
        (["--game", "pd", "--seed", "1e400"],
         "qgames search: argument --seed: invalid int value: '1e400'"),
        (["--game", "pd", "--no-such-flag"], "qgames: unrecognized arguments: --no-such-flag"),
    ])
    def test_parser_errors(self, capsys, argv, message):
        # argparse's usage errors take the one-line JSON path, with nothing on stderr
        code, out = run_cli(["search", *argv])
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"].startswith(message)
        assert capsys.readouterr().err == ""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["search", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qgames search ")

    def test_oversized_player_count(self):
        # the cap is checked by multiplying up to it: d ** n is never formed
        code = ("import sys, qgames.cli; "
                "sys.exit(qgames.cli.run(['minority', '-n', '99999999999']))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert result.returncode == 2
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout) == {
            "error": "total dimension 2**99999999999 exceeds cap 19683"}

    def test_pd_sweep_rejected(self):
        code, payload = run_json(["sweep", "--game", "pd", "--strategy", "bit:0"])
        assert code == 2
        assert "error" in payload


class TestSweep:
    def test_csv_default(self):
        code, out = run_cli(
            ["sweep", "--game", "kolkata", "--strategy", "su3:table2",
             "--points", "5"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "f,player1,player2,player3"
        assert len(lines) == 6
        assert lines[-1].split(",")[0] == "1"

    def test_json_fit(self):
        code, payload = run_json(
            ["sweep", "--game", "kolkata", "--strategy", "su3:table2",
             "--points", "11", "--format", "json"]
        )
        assert code == 0
        assert abs(payload["fit"]["slope"] - 2 / 9) < 1e-9
        assert abs(payload["fit"]["intercept"] - 4 / 9) < 1e-9
        assert payload["fit"]["max_residual"] < 1e-9

    def test_largest_sweep(self):
        code, out = run_cli(["sweep", "--game", "minority", "-n", "3",
                             "--strategy", "full:pi/2,-pi/8,pi/8", "--points", "1001"])
        assert code == 0
        assert len(out.strip().split("\n")) == 1002

    def test_explicit_fidelities(self):
        code, payload = run_json(
            ["sweep", "--game", "minority", "--strategy", "full:pi/2,-pi/8,pi/8",
             "--fidelities", "0,1", "--format", "json"]
        )
        assert code == 0
        assert payload["fidelities"] == [0.0, 1.0]


class TestSearch:
    def test_nash_pd(self):
        code, payload = run_json(
            ["search", "--game", "pd", "--mode", "nash",
             "--profile", "eisert:0,pi/2", "--seed", "3"]
        )
        assert code == 0
        assert payload["is_equilibrium"] is True
        assert payload["max_unilateral_gain"] <= 1e-6
        assert len(payload["players"]) == 2
        assert [row["certificate"] for row in payload["players"]] == ["exact", "exact"]

    def test_best_response_full_su2(self):
        code, payload = run_json(
            ["search", "--game", "pd", "--space", "full",
             "--mode", "best-response", "--profile", "eisert:0,pi/2",
             "--player", "1"]
        )
        assert code == 0
        assert payload["payoff"] > 3.1
        assert payload["best_strategy"].startswith("full:")
        assert payload["certificate"] == "exact"
        assert abs(payload["payoff"] - 5.0) < 1e-9

    def test_kolkata_best_response_certified_by_bound(self):
        code, payload = run_json(
            ["search", "--game", "kolkata", "--mode", "best-response"]
        )
        assert code == 0
        assert payload["certificate"] == "bound"
        assert payload["evaluations"] == 2
        assert abs(payload["payoff"] - 2 / 3) < 1e-9

    def test_pareto_requires_payoff(self):
        code, payload = run_json(
            ["search", "--game", "kolkata", "--mode", "pareto"]
        )
        assert code == 2

    def test_single_literal_broadcasts(self):
        code, payload = run_json(
            ["search", "--game", "minority", "--space", "full", "--mode", "nash",
             "--profile", "full:pi/2,-pi/8,pi/8", "--grid", "8"]
        )
        assert code == 0
        assert payload["profile"] == [payload["profile"][0]] * 4
        assert payload["is_equilibrium"] is True


class TestDeterminism:
    def test_identical_invocations_byte_identical(self):
        argv = ["search", "--game", "pd", "--mode", "nash",
                "--profile", "eisert:0,pi/2", "--seed", "11"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second

    # a Kolkata su3 Pareto search scans a grid and refines; the flag and the
    # variable are accepted and have no effect
    SCAN = ["search", "--game", "kolkata", "--mode", "pareto", "--payoff", "0.4444444",
            "--grid", "2", "--refine-iterations", "20", "--seed", "7"]

    def test_threads_do_not_change_output(self, monkeypatch):
        single = run_cli(self.SCAN + ["--threads", "1"])
        # and a search budget of 8 rows per chunk, 1 per sub-batch: the 64-row
        # grid in 8 chunks
        monkeypatch.setattr(solver, "_SEARCH_BUDGET", 72)
        eight = run_cli(self.SCAN + ["--threads", "8"])
        assert single[0] == 0
        assert single == eight

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("QGAMES_THREADS", "4")
        with_env = run_cli(self.SCAN)
        monkeypatch.delenv("QGAMES_THREADS")
        without = run_cli(self.SCAN + ["--threads", "1"])
        assert with_env[0] == 0
        assert with_env == without

    def test_float_rendering_significant_digits(self):
        assert cli.format_float(2 / 3) == "0.666666666667"
        assert cli.format_float(0.25) == "0.25"
        assert cli.format_float(1.0) == "1"


class TestParserCache:
    ARGV = ["minority", "-n", "3", "--fidelity", "0.5"]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_failed_runs_do_not_leak_into_the_next(self):
        before = run_cli(self.ARGV)
        assert before[0] == 0
        code, out = run_cli(["minority", "-n", "1", "--fidelity", "0.9"])
        assert code == 2 and "error" in json.loads(out)
        code, out = run_cli(["minority", "--fidelity", "0.2", "--no-such-flag"])
        assert code == 2 and "error" in json.loads(out)
        assert run_cli(self.ARGV) == before


class TestPresetExpansion:
    def test_table2_token_expansion(self):
        _, payload = run_json(["kolkata", "--strategy", "su3:table2"])
        literal = payload["strategy"]
        assert literal.startswith("su3:")
        values = [float(x) for x in literal.split(":")[1].split(",")]
        np.testing.assert_allclose(values, KOLKATA_OPTIMAL_PARAMS, atol=1e-11)


class TestVerifyCommand:
    def test_json_report_schema(self):
        code, payload = run_json(["verify", "--json"])
        assert code == 0
        assert isinstance(payload, list)
        for entry in payload:
            assert set(entry) == {"check", "expected", "observed", "tolerance", "pass"}
            assert entry["pass"] is True

    def test_text_report(self):
        code, out = run_cli(["verify"])
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
