"""Command line front end: configs, reports, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dynblotto
from dynblotto import (
    History,
    InputError,
    Objective,
    allocations_at,
    expected_payoffs,
    solve_backward,
)
from dynblotto.cli import format_report, load_config, main, parse_winner_schedule
from conftest import brute_force_payoffs


def write_config(tmp_path, payload, name="contest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def example2_config(tmp_path, **overrides):
    payload = {
        "players": [{"budget": 100}, {"budget": 100}],
        "battles": [{"value": 2}, {"value": 1}, {"value": 1}, {"value": 1}],
        "objective": "win_probability",
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


class TestLoadConfig:
    def test_valid_contest(self, tmp_path):
        spec, settings = load_config(example2_config(tmp_path))
        assert spec.values == (2.0, 1.0, 1.0, 1.0)
        assert spec.budgets == (100.0, 100.0)
        assert spec.objective is Objective.WIN_PROBABILITY
        assert settings.solver.grid_points == 200
        assert settings.solver.tolerance == 1e-6

    def test_missing_csf_defaults_to_tullock(self, tmp_path):
        spec, _ = load_config(example2_config(tmp_path))
        assert spec.csf.alpha == 1.0 and spec.csf.beta == 1.0

    def test_shocks_and_seed(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "players": [{"budget": 50}, {"budget": 60}],
                "battles": [{"value": 1}, {"value": 1}, {"value": 1}],
                "shocks": [{"player": 0, "battle": 2, "amount": -4.5}],
                "seed": 99,
            },
        )
        spec, settings = load_config(path)
        assert spec.shock_map() == {(0, 2): -4.5}
        assert settings.seed == 99

    def test_dictatorial_battle_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "players": [{"budget": 100}, {"budget": 100}],
                "battles": [{"value": 5}, {"value": 1}, {"value": 1}],
            },
        )
        with pytest.raises(InputError, match="dictatorial battle 1"):
            load_config(path)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            pytest.param({"objective": "most_battles"}, "objective", id="unknown-objective"),
            pytest.param({"players": [{"budget": 100}, {}]}, r"players\[1\]\.budget",
                         id="missing-budget"),
            pytest.param({"csf": {"alpha": "steep"}}, r"csf\.alpha", id="alpha"),
            pytest.param({"csf": {"beta": [1]}}, r"csf\.beta", id="beta"),
            pytest.param({"battles": [{"value": 2}, {"value": "one"}, {"value": 1}, {"value": 1}]},
                         r"battles\[1\]\.value", id="value"),
            pytest.param({"players": [{"budget": "lots"}, {"budget": 100}]},
                         r"players\[0\]\.budget", id="budget"),
            pytest.param({"shocks": [{"player": 0, "battle": 2, "amount": "big"}]},
                         r"shocks\[0\]\.amount", id="shock-amount"),
            pytest.param({"shocks": [{"player": "A", "battle": 2, "amount": 1.0}]},
                         r"shocks\[0\]\.player", id="shock-player"),
            pytest.param({"solver": {"grid_points": 1}}, r"solver\.grid_points",
                         id="grid-points-below-2"),
            pytest.param({"solver": {"tolerance": -1}}, r"solver\.tolerance",
                         id="tolerance-negative"),
            pytest.param({"solver": {"tolerance": float("nan")}}, r"solver\.tolerance",
                         id="tolerance-nan"),
            pytest.param({"seed": -1}, r"config field seed", id="seed-negative"),
            pytest.param({"seed": 1.7}, r"config field seed", id="seed-fraction"),
            pytest.param({"seed": True}, r"config field seed", id="seed-boolean"),
            pytest.param({"seed": float("inf")}, r"config field seed", id="seed-infinite"),
            pytest.param({"solver": {"grid_points": 2.9}}, r"solver\.grid_points",
                         id="grid-points-fraction"),
            pytest.param({"players": [{"budget": True}, {"budget": 100}]},
                         r"players\[0\]\.budget", id="budget-boolean"),
            pytest.param({"solver": {"tolerance": "1e-3"}}, r"solver\.tolerance",
                         id="tolerance-string"),
            pytest.param({"shocks": [{"player": 0, "battle": 2, "amount": False}]},
                         r"shocks\[0\]\.amount", id="shock-amount-boolean"),
            pytest.param({"shocks": [{"player": "0", "battle": 2, "amount": 1.0}]},
                         r"shocks\[0\]\.player", id="shock-player-string"),
            pytest.param({"players": [{"budget": 10**400}, {"budget": 100}]},
                         r"players\[0\]\.budget", id="budget-beyond-float"),
        ],
    )
    def test_malformed_field_is_named(self, tmp_path, capsys, overrides, field):
        path = example2_config(tmp_path, **overrides)
        with pytest.raises(InputError, match=field):
            load_config(path)
        assert main(["evaluate", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: config field ")

    @pytest.mark.parametrize("overrides, field", [
        pytest.param({"sead": 4}, "sead", id="top-level"),
        pytest.param({"solver": {"tolerence": 1e-3}}, r"solver\.tolerence", id="solver"),
        pytest.param({"solver": {"budget_step": 0.5}}, r"solver\.budget_step",
                     id="retired-budget-step"),
        pytest.param({"csf": {"alpha": 1, "gamma": 2}}, r"csf\.gamma", id="csf"),
        pytest.param({"players": [{"budget": 100}, {"budget": 100, "name": "B"}]},
                     r"players\[1\]\.name", id="player"),
        pytest.param({"battles": [{"value": 2}, {"value": 1}, {"value": 1, "weight": 3},
                                  {"value": 1}]}, r"battles\[2\]\.weight", id="battle"),
        pytest.param({"shocks": [{"player": 0, "battle": 2, "amount": 1.0, "when": 1}]},
                     r"shocks\[0\]\.when", id="shock"),
    ])
    def test_unknown_field_is_named(self, tmp_path, capsys, overrides, field):
        path = example2_config(tmp_path, **overrides)
        with pytest.raises(InputError, match=rf"config field {field} is unknown"):
            load_config(path)
        assert main(["check", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field ") and err.count("\n") == 1

    def test_a_repeated_shock_is_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "players": [{"budget": 100}, {"budget": 100}],
            "battles": [{"value": 1}, {"value": 1}, {"value": 1}],
            "shocks": [{"player": 0, "battle": 2, "amount": -5},
                       {"player": 1, "battle": 2, "amount": 4},
                       {"player": 0, "battle": 2, "amount": 3}],
        })
        message = r"config field shocks\[2\] repeats the shock of player 0 at battle 2"
        with pytest.raises(InputError, match=message):
            load_config(path)
        for command in ("evaluate", "simulate", "check"):
            assert main([command, "--config", path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config field shocks[2] repeats") and err.count("\n") == 1

    def test_parse_failure_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"players": [,]}')
        with pytest.raises(InputError, match="line 1"):
            load_config(str(path))

    @pytest.mark.parametrize("content, message", [
        pytest.param(b'\xff\xfe{"players": []}', "not UTF-8", id="not-utf-8"),
        pytest.param(b"[" * 100_000, "nested too deeply", id="nested-100000-deep"),
        pytest.param(b'{"players": [{"budget": 1' + b"0" * 5000 + b'}, {"budget": 1}], '
                     b'"battles": [{"value": 1}, {"value": 1}, {"value": 1}]}',
                     # a Python without int's digit limit reads the literal, too large for a float
                     "parse failure" if hasattr(sys, "get_int_max_str_digits") else "must be a number",
                     id="integer-of-5001-digits"),
    ])
    def test_unparsable_file_is_one_error_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "contest.json"
        path.write_bytes(content)
        assert main(["evaluate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestWinnerScheduleFlag:
    def test_letters_and_numbers(self):
        assert parse_winner_schedule("A,B,A") == (0, 1, 0)
        assert parse_winner_schedule("0, 1,0") == (0, 1, 0)
        assert parse_winner_schedule("") == ()

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            parse_winner_schedule("A,xyz")

    @pytest.mark.parametrize("text", ["\u00b2", "A,\u00e9", "\u0661", "1,\uff21"])
    def test_only_ascii_digits_and_letters_are_winners(self, tmp_path, capsys, text):
        # a superscript two passed isdigit() and broke int(); an e-acute read as winner 136
        with pytest.raises(InputError, match="cannot parse winner"):
            parse_winner_schedule(text)
        assert main(["evaluate", "--config", example2_config(tmp_path), "--history", text]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse winner ") and err.count("\n") == 1


class TestCommands:
    def test_evaluate_reports_payoffs(self, tmp_path, capsys):
        code = main(["evaluate", "--config", example2_config(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["payoffs"] == [0.5, 0.5]

    def test_evaluate_at_a_subgame(self, tmp_path, capsys):
        code = main(["evaluate", "--config", example2_config(tmp_path), "--history", "A,B"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["history"]["winners"] == [0, 1]
        assert report["history"]["allocations"][0] == [40.0, 40.0]

    def test_simulate_is_seeded(self, tmp_path, capsys):
        args = ["simulate", "--config", example2_config(tmp_path), "--seed", "5", "--trials", "2000"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_trials_belongs_to_simulate_only(self, tmp_path):
        # --trials and --seed are simulate's flags, --history is evaluate's and check's
        config = ["--config", example2_config(tmp_path)]
        for head, flag in [
            (["solve", *config], ["--trials", "5"]),
            (["evaluate", *config], ["--seed", "5"]),
            (["solve", *config], ["--seed", "5"]),
            (["check", *config], ["--seed", "5"]),
            (["demo", "example1"], ["--seed", "5"]),
            (["simulate", *config], ["--history", "A,B"]),
            (["solve", *config], ["--history", "A,B"]),
            (["demo", "example1"], ["--history", "A,B"]),
        ]:
            with pytest.raises(SystemExit) as exit_info:
                main(head + flag)
            assert exit_info.value.code == 2, head + flag

    def test_commands_in_one_process_share_no_arguments(self, tmp_path, capsys):
        config = ["--config", example2_config(tmp_path)]
        assert main(["evaluate", *config, "--history", "A,B"]) == 0
        assert json.loads(capsys.readouterr().out)["history"]["winners"] == [0, 1]
        assert main(["simulate", *config, "--trials", "50"]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 50
        assert main(["evaluate", *config]) == 0
        assert json.loads(capsys.readouterr().out)["history"]["winners"] == []
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", *config, "--trials", "5"])
        assert exit_info.value.code == 2

    def test_a_closed_pipe_is_exit_1_without_a_traceback(self, tmp_path):
        # the reader of standard output is gone before the report is written
        src = str(Path(dynblotto.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "dynblotto.cli", "evaluate", "--config",
                 example2_config(tmp_path)],
                stdout=write, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
                timeout=120,
            )
        finally:
            os.close(write)
        assert done.returncode == 1
        assert done.stderr == b""  # no traceback, no "Exception ignored" line

    def test_simulate_rejects_a_negative_seed(self, tmp_path, capsys):
        assert main(["simulate", "--config", example2_config(tmp_path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be")

    @pytest.mark.parametrize("trials", ["2147483648", "3000000000", "10000000000000"])
    def test_simulate_refuses_trials_above_the_public_bound(self, tmp_path, capsys, trials):
        # above the public bound of 2^31 - 1; refused before anything is allocated
        # (3e9 trials used to ask numpy for 67 GiB)
        config = example2_config(tmp_path)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", config, "--trials", trials])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: trials must be an integer from 1 to 2147483647, got {trials}\n"
        assert peak < 2**20

    @pytest.mark.parametrize("command", ["evaluate", "simulate", "check"])
    def test_scores_that_underflow_split_every_battle(self, tmp_path, capsys, command):
        # budgets of 1e-200 at alpha = 2 give scores of 0, as if nobody spent
        path = write_config(tmp_path, {
            "players": [{"budget": 1e-200}, {"budget": 1e-200}],
            "battles": [{"value": 1}, {"value": 1}, {"value": 1}],
            "csf": {"alpha": 2},
        })
        assert main([command, "--config", path, "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        if command == "evaluate":
            assert report["payoffs"] == [1.5, 1.5]
        elif command == "simulate":
            assert sum(report["means"]) == pytest.approx(3.0, abs=1e-12)
            for mean, error in zip(report["means"], report["std_errors"]):
                assert abs(mean - 1.5) <= 4.0 * error
        else:
            assert report["holds"] is True and report["max_gain"] == 0.0

    @pytest.mark.parametrize("command", ["evaluate", "simulate", "check"])
    def test_scores_that_overflow_are_an_error(self, tmp_path, capsys, command):
        # 1e300 ** 2 overflows, which made every win probability NaN
        path = write_config(tmp_path, {
            "players": [{"budget": 1e300}, {"budget": 1e299}],
            "battles": [{"value": 1}, {"value": 1}, {"value": 1}],
            "csf": {"alpha": 2},
        })
        assert main([command, "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: budgets and shocks too large")

    def test_check_at_a_subgame(self, tmp_path, capsys):
        # the subgame after A, B holds, so the root is the second history checked
        args = ["check", "--config", example2_config(tmp_path), "--history", "A,B"]
        assert main(args) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["histories_checked"] == 2
        assert report["counterexample"]["history"]["winners"] == []

    def test_check_reports_the_given_history_first(self, tmp_path, capsys):
        # after a split of the first two battles everything rides on the
        # double-value last one, so the given history itself refutes
        path = write_config(tmp_path, {
            "players": [{"budget": 100}, {"budget": 100}],
            "battles": [{"value": 1}, {"value": 1}, {"value": 1}, {"value": 2}],
            "objective": "win_probability",
        })
        assert main(["check", "--config", path, "--history", "A,B"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["histories_checked"] == 1
        assert report["counterexample"]["history"]["winners"] == [0, 1]
        assert report["counterexample"]["gain"] > 1e-6

    def test_check_exit_code_flags_failure(self, tmp_path, capsys):
        assert main(["check", "--config", example2_config(tmp_path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is False
        assert report["counterexample"]["gain"] > 1e-6

    def test_check_holds_for_expected_value_with_shocks(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "players": [{"budget": 80}, {"budget": 40}],
                "battles": [{"value": 1}, {"value": 2}, {"value": 1}, {"value": 1}],
                "objective": "expected_value",
                "shocks": [{"player": 1, "battle": 2, "amount": 12.0}],
            },
        )
        assert main(["check", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True

    def test_solve_reports_trace_and_profile(self, tmp_path, capsys):
        assert main(["solve", "--config", example2_config(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trace"][0] == pytest.approx([50.0, 50.0], abs=1e-2)
        assert report["profile"] == "stage_equilibrium"

    def test_solve_report_replays_the_trace(self, tmp_path, capsys):
        # the solved profile plays the report's trace exactly along its
        # winners, and its exact payoffs match enumeration
        assert main(["solve", "--config", example2_config(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        spec, _ = load_config(example2_config(tmp_path))
        profile = solve_backward(spec).profile
        history = History()
        for spends, winner in zip(report["trace"], report["trace_winners"]):
            allocations = allocations_at(profile, spec, history)
            assert list(allocations) == spends
            history = history.extend(allocations, winner)
        assert expected_payoffs(profile, spec) == pytest.approx(
            brute_force_payoffs(profile, spec), abs=1e-12)

    def test_running_out_of_memory_is_an_error(self, tmp_path, capsys, monkeypatch):
        # a valid 13-battle, 4-player expected-value check ran out of memory
        # in a traceback; the refusal is faked here, no memory is allocated
        path = write_config(tmp_path, {
            "players": [{"budget": 10 + 10 * i} for i in range(4)],
            "battles": [{"value": 1.0 + 0.1 * j} for j in range(13)],
        })

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(dynblotto.cli, "check_proportionality", exhausted)
        assert main(["check", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory in check on a contest of 13 battles "
                                "and 4 players\n")

    def test_unreadable_config_is_an_error(self, capsys):
        assert main(["evaluate", "--config", "/nonexistent.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestReports:
    def test_json_round_trip_is_exact(self, tmp_path, capsys):
        assert main(["evaluate", "--config", example2_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_csv_output(self, tmp_path, capsys):
        code = main(["evaluate", "--config", example2_config(tmp_path), "--output", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("key,value")
        assert any(line.startswith("payoffs[0],") for line in out.splitlines())

    def test_format_report_rejects_unknown_formats(self):
        with pytest.raises(InputError):
            format_report({}, "xml")


class TestDemos:
    def test_example1_matches_reference(self, capsys):
        assert main(["demo", "example1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matches_reference"] is True
        assert report["reference_per_battle_spend"] == pytest.approx(100 / 3)

    def test_example2_matches_reference_and_refutes_proportionality(self, capsys):
        assert main(["demo", "example2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matches_reference"] is True
        assert report["proportional_play"]["holds"] is False

    def test_example3_all_in_on_the_big_battle(self, capsys):
        assert main(["demo", "example3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matches_reference"] is True
        assert report["proportional_play"]["holds"] is False

    def test_prop1_reports_the_counterexample(self, capsys):
        assert main(["demo", "prop1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fails_as_expected"] is True
        ce = report["proportional_play"]["counterexample"]
        assert ce["history"]["winners"] == [0, 1]
        assert ce["gain"] > 1e-6
