"""Command line front end: configs, reports, exit codes."""

import json

import pytest

from dynblotto import InputError, Objective
from dynblotto.cli import format_report, load_config, main, parse_winner_schedule


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
        assert settings.solver.budget_step == 0.25

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
        ],
    )
    def test_malformed_field_is_named(self, tmp_path, capsys, overrides, field):
        path = example2_config(tmp_path, **overrides)
        with pytest.raises(InputError, match=field):
            load_config(path)
        assert main(["evaluate", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: config field ")

    def test_parse_failure_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"players": [,]}')
        with pytest.raises(InputError, match="line 1"):
            load_config(str(path))


class TestWinnerScheduleFlag:
    def test_letters_and_numbers(self):
        assert parse_winner_schedule("A,B,A") == (0, 1, 0)
        assert parse_winner_schedule("0, 1,0") == (0, 1, 0)
        assert parse_winner_schedule("") == ()

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            parse_winner_schedule("A,xyz")


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
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--config", example2_config(tmp_path), "--trials", "5"])
        assert exit_info.value.code == 2

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
        assert len(report["profile"]) == 2
        assert report["profile"][0]["kind"] == "tabular"

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
