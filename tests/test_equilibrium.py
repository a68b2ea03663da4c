"""Backward induction, stage equilibria, and proportionality verdicts."""

import json
import random

import numpy as np
import pytest

from dynblotto import (
    ContestSpec,
    ConvergenceError,
    History,
    InputError,
    Objective,
    SamplingPlan,
    allocations_at,
    best_response,
    check_proportionality,
    expected_payoffs,
    history_from_winners,
    proportional_profile,
    remaining_budget,
    solve_backward,
    stage_equilibrium,
)
from dynblotto import equilibrium
from dynblotto.cli import main
from conftest import random_ev_spec

WP = Objective.WIN_PROBABILITY


def three_battle_contest():
    return ContestSpec([1, 1, 1], [100, 100], objective=WP)


class TestBestResponse:
    def test_last_battle_goes_all_in(self):
        spec = three_battle_contest()
        h = history_from_winners(spec, (0, 1))
        result = best_response(spec, h, 0, opponents_allocation=20.0)
        assert result.allocation == pytest.approx(remaining_budget(spec, h, 0), abs=1e-4)

    def test_single_battle_contest_goes_all_in(self):
        spec = ContestSpec([4], [30, 50], objective=WP)
        for opp in (10.0, 50.0):
            result = best_response(spec, History(), 0, opp)
            assert result.allocation == pytest.approx(30.0, abs=1e-4)
        # against a zero spend every positive spend wins outright; ties break
        # toward the smallest spend, which still beats sitting out
        result = best_response(spec, History(), 0, 0.0)
        assert 0.0 < result.allocation < 1.0
        assert result.value == pytest.approx(1.0)

    def test_flat_objective_plays_proportional(self):
        # B spent everything on a lost battle 1: A wins whatever it spends
        spec = three_battle_contest()
        h = History().extend((40.0, 100.0), 0)
        result = best_response(spec, h, 0, 0.0)
        assert result.flat
        assert result.allocation == pytest.approx(30.0, abs=1e-12)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        solution = stage_equilibrium(spec, h)
        assert solution.flat == (True, False)
        assert solution.allocations == pytest.approx((30.0, 0.0), abs=1e-12)

    def test_bad_player_index(self):
        spec = three_battle_contest()
        with pytest.raises(InputError):
            best_response(spec, History(), 3, 10.0)


class TestStageEquilibrium:
    def test_three_battle_root(self):
        solution = stage_equilibrium(three_battle_contest(), History())
        assert solution.allocations == pytest.approx((100 / 3, 100 / 3), abs=1e-3)
        assert solution.residual <= 1e-6

    def test_mutual_response_after_forty_forty(self):
        spec = three_battle_contest()
        h = History().extend((40.0, 40.0), 0)
        solution = stage_equilibrium(spec, h)
        assert solution.allocations == pytest.approx((30.0, 30.0), abs=1e-3)

    def test_second_stage_spends_half_the_remainder(self):
        spec = three_battle_contest()
        for first in (10.0, 100.0 / 3.0, 60.0):
            h = History().extend((first, first), 0)
            solution = stage_equilibrium(spec, h)
            expected = (100.0 - first) / 2.0
            for w in solution.allocations:
                assert w == pytest.approx(expected, abs=1e-3)

    def test_second_stage_relation_with_uneven_openers(self):
        spec = three_battle_contest()
        h = History().extend((10.0, 60.0), 1)
        solution = stage_equilibrium(spec, h)
        assert solution.allocations[0] == pytest.approx(45.0, abs=1e-3)
        assert solution.allocations[1] == pytest.approx(20.0, abs=1e-3)

    def test_custom_continuation_matches_tables(self):
        spec = three_battle_contest()
        h = History().extend((30.0, 30.0), 0)
        profile = proportional_profile(2)

        def exact_continuation(successor):
            # last battle: both sides are all-in, which is the proportional play
            return expected_payoffs(profile, spec, successor)

        via_tables = stage_equilibrium(spec, h)
        via_callback = stage_equilibrium(spec, h, continuation=exact_continuation)
        assert via_callback.allocations == pytest.approx(via_tables.allocations, abs=1e-3)

    def test_a_stage_without_a_pure_saddle_names_battle_and_standings(self):
        spec = three_battle_contest()
        h = History().extend((30.0, 20.0), 0)

        def matching(successor):
            # A wants to keep as much budget as B does, B wants the opposite
            gap = (successor.spent(0) - successor.spent(1)) / 100.0
            return (1.0 - gap**2, gap**2)

        with pytest.raises(ConvergenceError,
                           match=r"battle 2, standings 1-0: best-response residual .* above"):
            stage_equilibrium(spec, h, continuation=matching)

    def test_rejects_unsupported_contests(self):
        with pytest.raises(InputError):
            stage_equilibrium(ContestSpec([1, 1], [10, 10]), History())  # expected value
        with pytest.raises(InputError):
            stage_equilibrium(
                ContestSpec([1, 1], [10, 10, 10], objective=WP), History()
            )  # three players
        with pytest.raises(InputError):
            stage_equilibrium(
                ContestSpec([1, 1], [10, 10], objective=WP, shocks={(0, 2): 5.0}), History()
            )  # shocks break the ratio reduction


class TestSolveBackward:
    def test_three_equal_battles_play_proportionally(self):
        result = solve_backward(three_battle_contest())
        assert len(result.trace) == 3
        for spends in result.trace:
            assert spends == pytest.approx((100 / 3, 100 / 3), abs=1e-2)

    def test_double_opener_takes_half_the_budget(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        result = solve_backward(spec)
        assert result.trace[0] == pytest.approx((50.0, 50.0), abs=1e-2)
        for spends in result.trace[1:]:
            assert spends == pytest.approx((50 / 3, 50 / 3), abs=1e-2)

    def test_double_closer_gets_everything_after_a_split(self):
        spec = ContestSpec([1, 1, 1, 2], [100, 100], objective=WP)
        split = history_from_winners(spec, (0, 1))
        stage3 = stage_equilibrium(spec, split)
        assert max(stage3.allocations) <= 1e-2
        after3 = split.extend(stage3.allocations, 0)
        stage4 = stage_equilibrium(spec, after3)
        for i, w in enumerate(stage4.allocations):
            assert w == pytest.approx(remaining_budget(spec, after3, i), abs=1e-2)

    def test_tabular_profile_replays_the_solution(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        result = solve_backward(spec)
        h = History()
        for step, winner in enumerate(result.trace_winners):
            allocations = allocations_at(result.profile, spec, h)
            assert allocations == pytest.approx(result.trace[step], abs=1e-9)
            h = h.extend(allocations, winner)

    def test_a_class_without_a_pure_saddle_names_battle_and_standings(self, tmp_path, capsys):
        # one class of this contest has a minimax bracket gap of about 1.6e-2
        values = [1.0907, 1.8096, 1.6934, 1.0419]
        with pytest.raises(ConvergenceError,
                           match=r"battle \d, standings [\d.]+-[\d.]+: minimax bracket gap"):
            solve_backward(ContestSpec(values, [60, 80], objective=WP))
        config = tmp_path / "contest.json"
        config.write_text(json.dumps({
            "players": [{"budget": 60}, {"budget": 80}],
            "battles": [{"value": v} for v in values],
            "objective": "win_probability",
        }))
        assert main(["solve", "--config", str(config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: stage solve at battle ")
        assert "standings" in err[0] and "gap" in err[0]

    def test_guards(self):
        with pytest.raises(InputError):
            solve_backward(ContestSpec([1] * 6, [10, 10], objective=WP))
        with pytest.raises(InputError):
            solve_backward(ContestSpec([1, 1], [10, 10]))


def _one_battle_left_value(spec, totals, b_a, b_b):
    """A's win probability with one battle left, both players all-in (alpha = 1)."""

    def outcome(a, b):
        return np.where(a > b, 1.0, np.where(a == b, 0.5, 0.0))

    last = spec.values[-1]
    a, b = totals
    total = b_a + b_b
    q = np.where(total > 0.0, b_a / np.where(total > 0.0, total, 1.0), 0.5)
    return q * outcome(a + last, b) + (1.0 - q) * outcome(a, b + last)


class TestValueTablesAgainstAnIndependentBracket:
    """Table nodes of the second-to-last battle against grid minimax computed here.

    After that battle one battle is left, where both players go all in, so
    the stage payoff has a closed form and the bracket needs no solver code.
    """

    @pytest.mark.parametrize("values, standings", [
        ([2, 1, 1, 1], (1.0, 2.0)),  # A must win both battles left
        ([1, 1, 1, 2], (1.0, 1.0)),  # the last battle decides, so both save
    ])
    def test_node_values_lie_in_the_minimax_bracket(self, values, standings):
        spec = ContestSpec(values, [100, 100], objective=WP)
        tables = equilibrium._tables_for(spec, equilibrium.DEFAULT_SETTINGS)
        played = spec.m - 2
        spline = tables.splines[(played, standings)]
        a, b = standings
        x = spec.values[played]
        grid = np.linspace(0.0, 1.0, 401)
        nodes = np.linspace(0.0, 1.0, spline.n)
        for share, value in zip(nodes, spline.value_vec(nodes)):
            w_a = share * grid[:, None]
            w_b = (1.0 - share) * grid[None, :]
            spend = w_a + w_b
            p = np.where(spend > 0.0, w_a / np.where(spend > 0.0, spend, 1.0), 0.5)
            left_a, left_b = share - w_a, (1.0 - share) - w_b
            stage = (p * _one_battle_left_value(spec, (a + x, b), left_a, left_b)
                     + (1.0 - p) * _one_battle_left_value(spec, (a, b + x), left_a, left_b))
            low, high = stage.min(axis=1).max(), stage.max(axis=0).min()
            assert low - 1e-6 <= value <= high + 1e-6, (share, low, value, high)


class TestCheckProportionality:
    def test_three_equal_battles_hold(self):
        verdict = check_proportionality(three_battle_contest())
        assert verdict.holds
        assert verdict.max_gain <= 1e-6
        assert verdict.histories_checked > 0

    def test_decisive_last_battle_fails_at_the_alternating_history(self):
        spec = ContestSpec([1, 1, 1, 3], [100, 100], objective=WP)
        alternating = history_from_winners(spec, (0, 1))
        verdict = check_proportionality(spec, SamplingPlan(histories=(alternating,)))
        assert not verdict.holds
        assert verdict.counterexample.history.winner_schedule() == (0, 1)
        assert verdict.counterexample.gain > 1e-6

    def test_unequal_battles_fail_for_win_probability(self):
        for values in ([2, 1, 1, 1], [1, 1, 1, 2]):
            spec = ContestSpec(values, [100, 100], objective=WP)
            assert not check_proportionality(spec).holds

    def test_expected_value_contests_always_hold(self):
        rng = random.Random(41)
        for k in range(6):
            spec = random_ev_spec(rng, alphas=(0.5, 1.0), with_shocks=bool(k % 2))
            plan = SamplingPlan(max_per_depth=4, seed=k)
            verdict = check_proportionality(spec, plan)
            assert verdict.holds, f"spurious counterexample: {verdict.counterexample}"

    def test_works_for_three_players(self):
        spec = ContestSpec([1, 1, 1, 3], [100, 100, 100], objective=WP)
        alternating = history_from_winners(spec, (0, 1))
        verdict = check_proportionality(spec, SamplingPlan(histories=(alternating,)))
        assert not verdict.holds


class TestLargerBattleThatCannotBePivotal:
    def test_five_battle_traces_match(self):
        plain = solve_backward(ContestSpec([7] * 5, [100, 100], objective=WP))
        bumped = solve_backward(ContestSpec([7, 7, 8, 7, 7], [100, 100], objective=WP))
        for t in range(5):
            for i in range(2):
                share_plain = plain.trace[t][i] / 100.0
                share_bumped = bumped.trace[t][i] / 100.0
                assert share_bumped == pytest.approx(share_plain, abs=1e-3)
