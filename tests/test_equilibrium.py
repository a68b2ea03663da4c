"""Backward induction, stage equilibria, and proportionality verdicts."""

import json
import logging
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dynblotto import (
    ContestSpec,
    ConvergenceError,
    CsfParams,
    EnumerationCapError,
    History,
    InfeasibleHistoryError,
    InputError,
    Objective,
    SamplingPlan,
    SolverSettings,
    allocations_at,
    best_response,
    check_proportionality,
    csf_probability,
    expected_payoffs,
    history_from_winners,
    proportional_profile,
    remaining_budget,
    simulate,
    solve_backward,
    stage_equilibrium,
    terminal_status,
)
from dynblotto import equilibrium, evaluation
from dynblotto.core import _remaining_budgets, _state
from dynblotto.cli import main
from conftest import (
    history_bfs_histories,
    per_history_check,
    random_battle_values,
    random_ev_spec,
    reference_payoff_vec,
    reference_stage_payoff,
    zoom,
    zoom_search,
)

EV, WP = Objective.EXPECTED_VALUE, Objective.WIN_PROBABILITY


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
        # bad arguments are rejected before a fresh contest's tables are built
        spec = ContestSpec([1, 2, 1, 1, 2], [100, 90], objective=WP)
        misses = equilibrium._tables_for.cache_info().misses
        with pytest.raises(InputError, match="player index"):
            best_response(spec, History(), 2, 10.0)
        with pytest.raises(InputError, match="single opponent allocation"):
            best_response(spec, History(), 0, (10.0, 20.0))
        assert equilibrium._tables_for.cache_info().misses == misses

    @pytest.mark.parametrize("opp", [-5.0, float("nan"), 500.0, 100.0 + 1e-6])
    def test_opponent_spend_outside_the_budget_is_rejected(self, opp):
        spec = ContestSpec([2, 1, 2, 1], [100, 100], objective=WP)
        misses = equilibrium._tables_for.cache_info().misses
        with pytest.raises(InputError, match="opponents_allocation"):
            best_response(spec, History(), 0, opp)
        assert equilibrium._tables_for.cache_info().misses == misses

    @pytest.mark.parametrize("opp", [
        3, 3.0, np.int64(3), np.float32(3.0), np.float64(3.0), Fraction(3),
        [3.0], (np.int64(3),), np.array([3.0]),
    ], ids=repr)
    def test_real_opponent_spends_are_accepted(self, opp):
        spec = three_battle_contest()
        assert best_response(spec, History(), 0, opp) == best_response(spec, History(), 0, 3.0)

    @pytest.mark.parametrize("opp", [
        "3", b"3", True, np.True_, None, 3 + 0j, {3.0},
        ["3"], [True], [[3.0]], [], np.array(3.0), np.array([[3.0]]),
    ], ids=repr)
    def test_other_opponent_spends_are_rejected(self, opp):
        spec = ContestSpec([1, 2, 1, 2], [100, 90], objective=WP)
        misses = equilibrium._tables_for.cache_info().misses
        with pytest.raises(InputError, match="opponents_allocation|single opponent"):
            best_response(spec, History(), 0, opp)
        assert equilibrium._tables_for.cache_info().misses == misses

    def test_opponent_spend_of_the_whole_budget_is_accepted(self):
        spec = three_battle_contest()
        h = history_from_winners(spec, (0, 1))
        bound = remaining_budget(spec, h, 1)
        result = best_response(spec, h, 0, bound + 1e-10)  # within BUDGET_TOLERANCE
        assert result.allocation == pytest.approx(remaining_budget(spec, h, 0), abs=1e-4)


    # (history, player, opponent spend, allocation, value, flat): both players'
    # best responses, pinned bit for bit; none reads a value table's spline
    @pytest.mark.parametrize("history, player, opp, allocation, value, flat", [
        (((30.0, 35.0), 0), 0, 20.0, "0x1.7c00002d8efcbp+5", "0x1.9add3c0ca4587p-1", False),
        (((30.0, 35.0), 0), 1, 20.0, "0x1.b8ccc038b31f3p+4", "0x1.fc26bbb5a48e8p-3", False),
        # a player whose payoff is flat plays proportional, and a broke one nothing
        (((40.0, 100.0), 0), 0, 0.0, "0x1.e000000000000p+4", "0x1.0000000000000p+0", True),
        (((40.0, 100.0), 0), 1, 0.0, "0x0.0p+0", "0x0.0p+0", False),
        (((100.0, 40.0), 1), 0, 0.0, "0x0.0p+0", "0x0.0p+0", False),
        (((100.0, 40.0), 1), 1, 0.0, "0x1.e000000000000p+4", "0x1.0000000000000p+0", True),
        # an opponent spend just over its budget, within BUDGET_TOLERANCE: the
        # refinement reads it clipped to the budget, the reported value does not
        (((30.0, 35.0), 0), 0, 65.0 + 1e-10, "0x0.0p+0", "0x1.0000000000000p+0", False),
        (((30.0, 35.0), 0), 1, 70.0 + 1e-10, "0x1.03fffffff8303p+6", "0x1.ed097b425590ap-2",
         False),
        (((30.0, 35.0), 0), 1, 70.0, "0x1.03fffffff8303p+6", "0x1.ed097b4257224p-2", False),
        (((0, 1),), 0, "bound", "0x1.0aaaaaaaaaaacp+5", "0x1.fffffffffcb39p-2", False),
        (((0, 1),), 1, "bound", "0x1.0aaaaaaaaaaacp+5", "0x1.fffffffffcb38p-2", False),
    ])
    def test_results_are_pinned_bit_for_bit(self, history, player, opp, allocation, value, flat):
        spec = three_battle_contest()
        if len(history) == 1:
            h = history_from_winners(spec, history[0])
        else:
            h = History().extend(*history)
        bound = remaining_budget(spec, h, 1 - player)
        if opp == "bound":  # the last battle: the whole budget left, and a little more
            opp = bound + 1e-10
        assert opp <= bound + 1e-10
        result = best_response(spec, h, player, opp)
        assert (result.allocation.hex(), result.value.hex(), result.flat) == (
            float.fromhex(allocation).hex(), float.fromhex(value).hex(), flat)


class TestStageEquilibrium:
    def test_example3_stages_are_pinned_bit_for_bit(self):
        spec = ContestSpec([1, 1, 1, 2], [100, 100], objective=WP)
        split = history_from_winners(spec, (0, 1))
        third = stage_equilibrium(spec, split)
        fourth = stage_equilibrium(spec, split.extend(third.allocations, 0))
        # Newton pins both at 0 on its second step and both all in on its first
        for solution, spends, steps in ((third, "0x0.0p+0", 2),
                                        (fourth, "0x1.e000000000000p+5", 1)):
            assert [w.hex() for w in solution.allocations] == [spends] * 2
            assert (solution.residual, solution.iterations, solution.flat) == (
                0.0, steps, (False,) * 2)

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

    def test_the_stage_payoff_is_the_exact_successor_payoffs(self):
        """At battle 2, A's stage payoff is p_A E[win successor] + (1 - p_A)
        E[lose successor], the successors' payoffs exact under proportional
        play, which goes all in at the last battle: one successor is
        terminal, the other decisive, and both table classes are lines."""
        spec = three_battle_contest()
        profile = proportional_profile(2)
        for winner in (0, 1):
            h = History().extend((30.0, 20.0), winner)
            game = equilibrium._stage_game_at(spec, h, equilibrium.DEFAULT_SETTINGS)
            grids = [np.linspace(0.0, remaining_budget(spec, h, i), 11) for i in range(2)]
            value = game.payoff(grids[0][None, :, None], grids[1][None, None, :])[0]
            for j, w_a in enumerate(grids[0].tolist()):
                for k, w_b in enumerate(grids[1].tolist()):
                    p_a = csf_probability((w_a, w_b), spec.csf, 0)
                    win, lose = (expected_payoffs(profile, spec, h.extend((w_a, w_b), who))[0]
                                 for who in (0, 1))
                    assert value[j, k] == pytest.approx(p_a * win + (1.0 - p_a) * lose,
                                                        rel=0.0, abs=1e-12), (winner, w_a, w_b)

    def test_a_residual_above_the_tolerance_names_battle_and_standings(self):
        spec = three_battle_contest()
        h = History().extend((30.0, 50.0), 1)  # a certified residual of 2.2e-16
        assert stage_equilibrium(spec, h).residual > 0.0
        with pytest.raises(ConvergenceError,
                           match=r"battle 2, standings 0-1: best-response residual .* above"):
            stage_equilibrium(spec, h, settings=SolverSettings(tolerance=1e-300))

    def test_a_stale_positional_continuation_fails_at_once(self):
        # every stage reads the value tables, and settings are keyword-only
        spec = three_battle_contest()

        def stale(successor):
            return (0.5, 0.5)

        with pytest.raises(TypeError):
            stage_equilibrium(spec, History(), stale)
        with pytest.raises(TypeError):
            best_response(spec, History(), 0, 10.0, stale)
        with pytest.raises(TypeError):
            stage_equilibrium(spec, History(), continuation=stale)
        settings = SolverSettings(tolerance=1e-5)
        assert stage_equilibrium(spec, History(), settings=settings).residual <= 1e-5

    @pytest.mark.parametrize("settings", ["x", None, {"grid_points": 50}])
    def test_settings_that_are_no_solver_settings_are_refused(self, settings):
        spec = three_battle_contest()
        match = r"^settings must be a SolverSettings, got "
        with pytest.raises(InputError, match=match):
            stage_equilibrium(spec, History(), settings=settings)
        with pytest.raises(InputError, match=match):
            best_response(spec, History(), 0, 10.0, settings=settings)
        with pytest.raises(InputError, match=match):
            solve_backward(spec, settings)

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

    def test_solved_profile_replays_the_trace(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        result = solve_backward(spec)
        h = History()
        for step, winner in enumerate(result.trace_winners):
            allocations = allocations_at(result.profile, spec, h)
            assert allocations == result.trace[step]
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

    @pytest.mark.parametrize("values, budgets", [
        ([1, 1, 1], [100, 100]),  # the demos' contests
        ([2, 1, 1, 1], [100, 100]),
        ([1, 1, 1, 2], [100, 100]),
        ([1, 1, 1], [41.06, 97.59]),  # the bench's solve vectors, both mirror sides
        ([1.114, 1.0815, 0.7158], [41.04, 49.99]),
        ([1.114, 1.0815, 0.7158], [49.99, 41.04]),
        ([2.0219, 2.598, 0.5708, 2.211], [79.04, 67.59]),
        ([2.0219, 2.598, 0.5708, 2.211], [67.59, 79.04]),
        ([1, 2, 3, 4, 5], [92.0, 99.31]),
    ])
    def test_the_profile_plays_the_stage_equilibrium_at_every_history(self, values, budgets):
        """At every history of the solved profile's on-path tree, the profile
        plays what a stage solve of that history alone finds, bit for bit,
        whether asked one history at a time or a whole depth in one batch;
        the trace's states are solved once each."""
        spec = ContestSpec(values, budgets, objective=WP)
        result = solve_backward(spec)
        policy = result.profile.strategies[0]
        assert len(result.solutions) == len(result.trace) == len(result.trace_winners)
        assert list(result.solutions) == [result.trace_winners[:d] for d in range(len(result.trace))]
        level = [History()]
        while level:
            stages = [stage_equilibrium(spec, history) for history in level]
            played, states = len(level[0]), [_state(spec, history) for history in level]
            standings = np.concatenate([state[0] for state in states])
            spent = np.concatenate([state[1] for state in states])
            budgets = _remaining_budgets(spec, played, standings, spent)
            batched = [policy.spends(spec, played, standings, budgets, i) for i in range(2)]
            deeper = []
            for row, (history, stage) in enumerate(zip(level, stages)):
                winners = history.winner_schedule()
                allocations = allocations_at(result.profile, spec, history)
                assert allocations == stage.allocations, winners
                assert (batched[0][row], batched[1][row]) == stage.allocations, winners
                if winners in result.solutions:
                    assert result.solutions[winners] == stage
                for winner in range(2):
                    child = history.extend(allocations, winner)
                    if not terminal_status(spec, child).terminal:
                        deeper.append(child)
            level = deeper

    def test_a_level_is_solved_once_for_both_players(self, monkeypatch):
        """The engines ask both players' spends at one level's states in turn;
        the second call reuses the first's batched stage solve.  Payoffs and
        simulated means are those of one solve per call, bit for bit."""
        spec = ContestSpec([1, 2, 3, 4, 5], [92.0, 99.31], objective=WP)
        profile = solve_backward(spec).profile
        rows, solve = [], equilibrium._path_solutions
        monkeypatch.setattr(equilibrium, "_path_solutions",
                            lambda game: rows.append(game._rows.size) or solve(game))
        payoffs = expected_payoffs(profile, spec)
        assert rows == [1, 2, 4, 8, 10]  # one batch per level, the root's included
        assert [p.hex() for p in payoffs] == ["0x1.e03b022e4fee7p-2", "0x1.0fe27ee8d808ep-1"]
        for seed, means in ((0, ["0x1.d78d4fdf3b646p-2", "0x1.14395810624ddp-1"]),
                            (7, ["0x1.e4dd2f1a9fbe7p-2", "0x1.0d916872b020cp-1"])):
            assert [m.hex() for m in simulate(profile, spec, seed, 2000).means] == means

    def test_after_a_root_deviation_the_profile_plays_that_stage(self):
        # A spends half its root spend and wins: with (83.33, 66.67) left the
        # stage equilibrium is (41.67, 33.33), not the (33.33, 33.33) solved
        # at the nearest on-path budgets
        spec = three_battle_contest()
        result = solve_backward(spec)
        root = result.root.allocations
        history = History().extend((root[0] / 2, root[1]), 0)
        allocations = allocations_at(result.profile, spec, history)
        assert allocations == stage_equilibrium(spec, history).allocations
        assert allocations == pytest.approx((250 / 6, 100 / 3), abs=1e-2)

    def test_guards(self):
        with pytest.raises(InputError):
            solve_backward(ContestSpec([1] * 6, [10, 10], objective=WP))
        with pytest.raises(InputError):
            solve_backward(ContestSpec([1, 1], [10, 10]))


class TestTablesSharedAcrossBudgets:
    """Value tables never read the budgets, so one set serves every budget pair."""

    VALUES = [1.25, 1.0, 1.5]  # solved by no other test

    def test_a_budget_sweep_builds_the_tables_once(self):
        pairs = ([60, 80], [80, 60], [45, 95])
        misses = equilibrium._tables_for.cache_info().misses
        results = [solve_backward(ContestSpec(self.VALUES, pair, objective=WP)) for pair in pairs]
        spec = ContestSpec(self.VALUES, [30, 20], objective=WP)
        stage = stage_equilibrium(spec, History())
        response = best_response(spec, History(), 1, 10.0)
        assert equilibrium._tables_for.cache_info().misses == misses + 1
        for pair, result in zip(pairs, results):
            equilibrium._tables_for.cache_clear()
            fresh = solve_backward(ContestSpec(self.VALUES, pair, objective=WP))
            assert result.trace == fresh.trace
            assert result.trace_winners == fresh.trace_winners
            assert result.solutions == fresh.solutions
        equilibrium._tables_for.cache_clear()
        assert stage_equilibrium(spec, History()) == stage
        equilibrium._tables_for.cache_clear()
        assert best_response(spec, History(), 1, 10.0) == response

    def test_unsupported_contests_are_still_rejected(self):
        shocked = ContestSpec(self.VALUES, [60, 80], objective=WP, shocks={(0, 2): 5.0})
        with pytest.raises(InputError, match="fixed-budget"):
            solve_backward(shocked)
        with pytest.raises(InputError, match="fixed-budget"):
            stage_equilibrium(shocked, History())
        with pytest.raises(InputError, match="five battles"):
            solve_backward(ContestSpec([1.0] * 6, [60, 80], objective=WP))

    def test_a_failed_build_is_built_once(self):
        # one class of these tables has no pure saddle at alpha 2
        spec = ContestSpec([1, 1, 1, 1], [100, 100], CsfParams(2.0), objective=WP)
        equilibrium._tables_for.cache_clear()
        errors = []
        for _ in range(3):
            with pytest.raises(ConvergenceError, match="minimax bracket gap") as caught:
                best_response(spec, History(), 0, 10.0)
            errors.append((str(caught.value), caught.value.allocations, caught.value.residual))
        assert equilibrium._tables_for.cache_info().misses == 1
        assert errors[0] == errors[1] == errors[2]


def _one_class(**fields):
    """A branch whose rows all read one class."""
    return equilibrium._BranchValue((equilibrium._ClassValue(**fields),))


def _branch_at(branch, b_a, b_b, alpha):
    """A branch's value at budgets b_a, b_b, from their scores as a stage passes them;
    a class's value is read as a branch of that class."""
    if isinstance(branch, equilibrium._ClassValue):
        branch = equilibrium._BranchValue((branch,))
    scores = (b_a**alpha, b_b**alpha)
    return branch.payoff_vec(*scores, equilibrium._safe_sum(*scores))


def _kernel_spline(seed):
    rng = np.random.default_rng(seed)
    return equilibrium._Spline(rng.uniform(0.1, 0.9, equilibrium.VALUE_NODES))


class TestLeanStageKernel:
    """The stage payoff against its earlier formula (`reference_stage_payoff`), by `==`."""

    BRANCHES = {
        "unmirrored-mirrored": lambda alpha: (
            _one_class(spline=_kernel_spline(1), coin=0.3),
            _one_class(spline=_kernel_spline(2), mirrored=True, coin=0.6),
        ),
        "mirrored-terminal": lambda alpha: (
            _one_class(spline=_kernel_spline(3), mirrored=True, coin=0.7),
            _one_class(linear=(0.0, 0.0)),
        ),
        "terminal-terminal": lambda alpha: (
            _one_class(linear=(1.0, 1.0)),
            _one_class(linear=(0.5, 0.5)),
        ),
        "decisive": lambda alpha: (
            _one_class(linear=(1.0, 0.5)),
            _one_class(linear=(0.5, 0.0)),
        ),
    }

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("kind", list(BRANCHES))
    def test_payoffs_equal_the_earlier_formula(self, kind, alpha):
        spec = ContestSpec([1, 1, 1], [1, 1], CsfParams(alpha), objective=WP)
        batches = [
            equilibrium._node_budgets(alpha),  # table nodes, one player broke at each end
            (np.array([60.0]), np.array([80.0])),  # an on-path stage
            (np.array([0.0, 0.0]), np.array([0.0, 25.0])),  # no budget left at all
        ]
        branches = self.BRANCHES[kind](alpha)
        for budgets in batches:
            game = equilibrium._StageGame(spec, 1, (1.0, 0.0), budgets, branches,
                                          equilibrium.DEFAULT_SETTINGS)
            zeros = np.zeros_like(game.budgets[0])
            grids = [equilibrium._grid(zeros, b, 17) for b in game.budgets]
            t = np.linspace(0.0, 1.0, 17)  # the grid's earlier formula
            for grid, budget in zip(grids, game.budgets):
                assert np.array_equal(grid, zeros[:, None] * (1.0 - t) + budget[:, None] * t)
            spends = [
                # the zoom's (node x spend_A x spend_B) boxes, over whole budgets,
                # so both the both-broke and the both-idle corners occur
                (grids[0][:, :, None], grids[1][:, None, :]),
                # a best-response scan against a pinned spend
                (grids[0][:, :, None], game.budgets[1][:, None, None] / 3.0),
                # one spend pair per node
                (game.budgets[0] / 2.0, game.budgets[1]),
            ]
            for w_a, w_b in spends:
                value = game.payoff(w_a, w_b)
                expected = reference_stage_payoff(game, w_a, w_b)
                assert value.shape == expected.shape
                assert np.array_equal(value, expected), (kind, alpha, budgets)
            b_a, b_b = np.broadcast_arrays(grids[0][:, :, None], grids[1][:, None, :])
            for branch in branches:
                value = _branch_at(branch, b_a, b_b, alpha)
                assert np.array_equal(np.broadcast_to(value, b_a.shape),
                                      reference_payoff_vec(branch, b_a, b_b, alpha))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_rows_of_mixed_classes_equal_their_one_class_games(self, alpha):
        """A batch whose rows read classes of every kind, row by row against a
        game of that row alone: payoffs and saddle points bit for bit, so a
        row's result does not depend on the rows beside it."""
        spec = ContestSpec([1, 1, 1], [1, 1], CsfParams(alpha), objective=WP)
        shared = _kernel_spline(4)
        wins = [equilibrium._ClassValue(spline=shared, coin=0.3),
                equilibrium._ClassValue(spline=_kernel_spline(5), mirrored=True, coin=0.6),
                equilibrium._ClassValue(linear=(0.4, 0.4)),
                equilibrium._ClassValue(linear=(1.0, 0.5)),
                equilibrium._ClassValue(linear=(0.7, 0.7))]
        loses = [equilibrium._ClassValue(linear=(0.5, 0.0)),
                 equilibrium._ClassValue(spline=shared, mirrored=True, coin=0.7),
                 equilibrium._ClassValue(spline=_kernel_spline(6), coin=0.2),
                 equilibrium._ClassValue(linear=(0.1, 0.1)),
                 equilibrium._ClassValue(linear=(0.7, 0.7))]  # flat in both spends
        rng = np.random.default_rng(8)
        owner = np.array([0, 0, 1, 2, 3, 4, 1, 0, 2, 2, 3, 1, 4, 0])
        budgets = [rng.uniform(0.0, 3.0, owner.size) for _ in range(2)]
        budgets[0][1] = budgets[1][1] = budgets[0][7] = 0.0  # broke players
        totals = rng.integers(0, 3, (owner.size, 2)).astype(float)
        settings = equilibrium.DEFAULT_SETTINGS
        game = equilibrium._StageGame(spec, 1, totals, budgets, (
            equilibrium._BranchValue(wins, owner), equilibrium._BranchValue(loses, owner)),
            settings)
        assert [len(branch.groups) for branch in game.branches] == [2, 2]
        grids = [equilibrium._grid(np.zeros(owner.size), b, 17) for b in game.budgets]
        spends = [(grids[0][:, :, None], grids[1][:, None, :]),
                  (grids[0][:, :, None], game.budgets[1][:, None, None] / 3.0),
                  (game.budgets[0] / 2.0, game.budgets[1])]
        values = [game.payoff(*pair) for pair in spends]
        points = game.solve()
        assert np.any(points.flats[0]) and len(set(points.rounds.tolist())) > 1
        for row, k in enumerate(owner.tolist()):
            alone = equilibrium._StageGame(
                spec, 1, totals[row], [b[row:row + 1] for b in budgets],
                (equilibrium._BranchValue((wins[k],)), equilibrium._BranchValue((loses[k],))),
                settings)
            for value, pair in zip(values, spends):
                one = alone.payoff(*(w[row:row + 1] if np.ndim(w) else w for w in pair))
                assert np.array_equal(value[row:row + 1], one), (row, k)
            single = alone.solve()
            for field in ("spends", "gains", "flats"):
                for batched, lone in zip(getattr(points, field), getattr(single, field)):
                    assert batched[row] == lone[0], (field, row, k)
            assert points.value[row] == single.value[0]
            assert points.rounds[row] == single.rounds[0]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_groups_of_mixed_rows_equal_their_one_row_games(self, alpha):
        """Two groups per branch: lines flat and sloped, and one shared spline
        read at A's share and, mirrored, at B's.  Each row's payoffs and saddle
        point equal its one-row game's, and its payoffs the reference, bit for
        bit, with both players broke at the corners of the grids and in two rows."""
        spec = ContestSpec([1, 1, 1], [1, 1], CsfParams(alpha), objective=WP)
        shared = _kernel_spline(9)
        wins = [equilibrium._ClassValue(linear=(0.6, 0.6)),
                equilibrium._ClassValue(linear=(1.0, 0.25)),
                equilibrium._ClassValue(spline=shared, coin=0.3),
                equilibrium._ClassValue(spline=shared, mirrored=True, coin=0.8)]
        loses = [equilibrium._ClassValue(spline=shared, mirrored=True, coin=0.4),
                 equilibrium._ClassValue(linear=(0.5, 0.0)),
                 equilibrium._ClassValue(linear=(0.2, 0.2)),
                 equilibrium._ClassValue(spline=shared, coin=0.1)]
        rng = np.random.default_rng(10)
        owner = np.array([0, 1, 2, 3, 3, 2, 1, 0, 2, 3, 0, 1])
        budgets = [rng.uniform(0.0, 3.0, owner.size) for _ in range(2)]
        budgets[0][2] = budgets[1][2] = budgets[0][3] = budgets[1][3] = 0.0  # broke players
        budgets[0][6] = 0.0
        totals = rng.integers(0, 3, (owner.size, 2)).astype(float)
        settings = equilibrium.DEFAULT_SETTINGS
        game = equilibrium._StageGame(spec, 1, totals, budgets, (
            equilibrium._BranchValue(wins, owner), equilibrium._BranchValue(loses, owner)),
            settings)
        for branch in game.branches:
            (_, spline, lines), (_, _, splines) = branch.groups
            assert not spline and not lines[2]  # flat and sloped lines in one group
            assert splines[0] is None and not isinstance(splines[1], bool)  # one spline, both sides
        grids = [equilibrium._grid(np.zeros(owner.size), b, 17) for b in game.budgets]
        spends = [(grids[0][:, :, None], grids[1][:, None, :]),
                  (grids[0][:, :, None], game.budgets[1][:, None, None] / 3.0),
                  (game.budgets[0] / 2.0, game.budgets[1])]
        values = [game.payoff(*pair) for pair in spends]
        points = game.solve()
        for row, k in enumerate(owner.tolist()):
            alone = equilibrium._StageGame(
                spec, 1, totals[row], [b[row:row + 1] for b in budgets],
                (equilibrium._BranchValue((wins[k],)), equilibrium._BranchValue((loses[k],))),
                settings)
            for value, pair in zip(values, spends):
                pair = [w[row:row + 1] if np.ndim(w) else w for w in pair]
                one = alone.payoff(*pair)
                assert np.array_equal(value[row:row + 1], one), (row, k)
                assert np.array_equal(one, reference_stage_payoff(alone, *pair)), (row, k)
            single = alone.solve()
            for field in ("spends", "gains", "flats"):
                for batched, lone in zip(getattr(points, field), getattr(single, field)):
                    assert batched[row] == lone[0], (field, row, k)
            assert points.value[row] == single.value[0]


class TestSolverLogging:
    def test_builds_and_solves_log_at_debug(self, caplog):
        equilibrium._tables_for.cache_clear()
        specs = [ContestSpec([1, 1, 1, 1], pair, objective=WP) for pair in ([60, 80], [80, 60])]
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            results = [solve_backward(spec) for spec in specs]
        records = [r.getMessage() for r in caplog.records if r.name == "dynblotto"]
        assert len(records) == 3
        tables = equilibrium._tables_for(
            ContestSpec(specs[0].values, [1, 1], objective=WP), equilibrium.DEFAULT_SETTINGS)
        # standings 0-1, 0-2 and 1-1 are built, 1-1 on the shares up to 1/2;
        # 1-2 and 2-1 before the last battle are decisive; 1-0 and 2-0 mirror
        assert len(tables.splines) == 3
        # level 2 searches 0-2 on all nodes and 1-1 on half of them, level 1 0-1
        rows = [equilibrium.VALUE_NODES + (equilibrium.VALUE_NODES + 1) // 2,
                equilibrium.VALUE_NODES]
        # Newton settles every row from the proportional spends, the nodes with
        # a player broke (0 and 80 of a class, 0 of 1-1) at once; level 2's
        # proportional spends are its saddles, found in one step
        assert (tables._level_rows, tables._level_settled, tables._level_steps) == (
            rows, rows, [119, 98])
        assert tables._level_restarts == [(0, 0), (0, 0)]
        # certificate scans in batches of 92 rows x 200 spends, over both
        # players' rows at once
        certify = equilibrium.CERTIFICATE_CELLS // equilibrium.DEFAULT_SETTINGS.grid_points
        assert certify == 92
        batches = [-(-2 * count // certify) for count in rows]
        assert batches == [3, 2]
        assert re.fullmatch(
            r"value tables: 3 classes built \(1 on half the nodes\), 2 decisive in closed "
            r"form, 2 served by a mirror, certificate batches per level \[3, 2\], rows per "
            r"level \[122, 81\], settled rows per level \[122, 81\], neighbour restarts per "
            r"level \[0, 0\], best-response restarts per level \[0, 0\], Newton steps per "
            r"level \[119, 98\], certificate rows settled by Newton per level \[240, 160\], "
            r"worst bracket gap \S+, "
            r"search \d+\.\d{3} s, certificate \d+\.\d{3} s, \d+\.\d{3} s", records[0])
        for record, result, how in zip(records[1:], results, ("built", "reused")):
            worst = max(s.residual for s in result.solutions.values())
            # one stage solve per battle: the trailing player wins each, so the
            # trace ends level at 2-2 after the fourth
            assert list(result.solutions) == [(), (0,), (0, 1), (0, 1, 0)]
            assert result.trace_winners == (0, 1, 0, 1)
            assert record == (f"backward solve: 4 stage solves along the trace, worst "
                              f"residual {worst:.3e}, value tables {how}")

    def test_nothing_is_logged_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="dynblotto"):
            solve_backward(three_battle_contest())
        assert not [r for r in caplog.records if r.name == "dynblotto"]


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
        budgets = zip(*equilibrium._node_budgets(spec.csf.alpha))  # the nodes' budgets
        for (share, rest), value in zip(budgets, spline.value_vec(equilibrium._NODES)):
            w_a = share * grid[:, None]
            w_b = rest * grid[None, :]
            spend = w_a + w_b
            p = np.where(spend > 0.0, w_a / np.where(spend > 0.0, spend, 1.0), 0.5)
            left_a, left_b = share - w_a, rest - w_b
            stage = (p * _one_battle_left_value(spec, (a + x, b), left_a, left_b)
                     + (1.0 - p) * _one_battle_left_value(spec, (a, b + x), left_a, left_b))
            low, high = stage.min(axis=1).max(), stage.max(axis=0).min()
            assert low - 1e-6 <= value <= high + 1e-6, (share, low, value, high)


def _live_classes(spec):
    """(battles played, standings) of every live class, found here from the rules."""
    classes, frontier = [], [(0.0, 0.0)]
    for played in range(spec.m):
        classes += [(played, totals) for totals in frontier]
        x = spec.values[played]
        frontier = sorted({t for a, b in frontier for t in ((a + x, b), (a, b + x))
                           if equilibrium._terminal_value_from_totals(spec, played + 1, t) is None})
    return classes


def _searched_values(game_at, played, totals):
    """The saddle search's bracket midpoints at every table node of one
    class, searched as one batch.

    Returns the nodes, A's success-function shares q, and the values there.
    """
    alpha = game_at(played, totals, (np.ones(1), np.ones(1))).alpha
    game = game_at(played, totals, equilibrium._node_budgets(alpha))
    points = game.certify(*game.search()[:2])
    return equilibrium._NODES, points.value + (points.gains[0] - points.gains[1]) / 2.0


def _decisive_family():
    rng = random.Random("decisive-classes")
    specs = []
    for alpha in (0.5, 1.0, 2.0):
        for m in range(1, 6):
            generic = [rng.uniform(0.5, 3.0) for _ in range(m)]
            ties = [rng.randint(1, 3) for _ in range(m)]
            specs += [ContestSpec(values, [1, 1], CsfParams(alpha), objective=WP)
                      for values in (generic, ties)]
        # 1-1 before battle 3 is decisive: battle 3 settles the contest either way
        specs.append(ContestSpec([1, 1, 5, 1], [1, 1], CsfParams(alpha), objective=WP))
    return specs


class TestValueTablesSkipKnownClasses:
    """Classes whose values the game fixes are not searched, and lose nothing by it."""

    def test_decisive_classes_equal_the_searched_stage(self, monkeypatch):
        built = []
        monkeypatch.setattr(equilibrium._ValueTables, "_build_level",
                            lambda self, played, classes: built.extend(
                                (played, totals) for totals in classes))
        searched, decisive, before_last = {}, 0, 0
        for spec in _decisive_family():
            built.clear()
            tables = equilibrium._ValueTables(spec, equilibrium.DEFAULT_SETTINGS)
            for played, totals in _live_classes(spec):
                ends = [equilibrium._terminal_value_from_totals(spec, played + 1, t)
                        for t in tables._successors(played, totals)]
                if None in ends:
                    continue
                decisive, before_last = decisive + 1, before_last + (played < spec.m - 1)
                assert (played, tables._key(totals)) not in built
                branch = tables.branch(played, totals)
                assert branch.linear is not None
                # the stage depends on the spec only through alpha and the
                # battles left, which set the proportional spend
                key = (spec.csf.alpha, spec.values[played:], ends[0][0], ends[1][0])
                if key not in searched:
                    terminal = tuple(_one_class(linear=(end[0], end[0])) for end in ends)
                    searched[key] = _searched_values(
                        lambda p, t, budgets: equilibrium._StageGame(
                            spec, p, t, budgets, terminal, equilibrium.DEFAULT_SETTINGS),
                        played, totals)
                nodes, values = searched[key]
                b_a, b_b = nodes, 1.0 - nodes
                closed = _branch_at(branch, b_a, b_b, 1.0)  # reads b_a, b_b as scores
                assert np.max(np.abs(closed - values)) <= 1e-12, (spec, played, totals)
                broke = np.zeros(1)
                assert _branch_at(branch, broke, broke, 1.0) == tables.coin_value(played, totals)
        assert (decisive, before_last, len(searched)) == (84, 13, 38)

    @pytest.mark.parametrize("values, alpha, played, standings", [
        ([1, 1, 1, 1], 1.0, 2, (1.0, 1.0)),
        ([1, 1, 1, 1], 0.5, 2, (1.0, 1.0)),
        ([1, 1, 1, 2], 1.0, 2, (1.0, 1.0)),
        ([1, 1, 1, 1, 1], 1.0, 2, (1.0, 1.0)),
    ])
    def test_self_mirrored_classes_equal_a_full_build(self, values, alpha, played, standings):
        spec = ContestSpec(values, [1, 1], CsfParams(alpha), objective=WP)
        tables = equilibrium._tables_for(spec, equilibrium.DEFAULT_SETTINGS)
        nodes, full = _searched_values(tables.stage_game, played, standings)
        half = tables.splines[(played, standings)].value_vec(nodes)
        assert np.max(np.abs(half - full)) <= 1e-12

    def test_a_self_mirrored_class_without_a_pure_saddle_still_fails(self):
        spec = ContestSpec([1, 1, 2, 1, 1], [100, 100], objective=WP)
        with pytest.raises(ConvergenceError) as caught:
            solve_backward(spec)
        assert str(caught.value) == (
            "stage solve at battle 3, standings 1-1: minimax bracket gap 2.201e-02 above "
            "1e-03 at A's budget share 0.0003855")

    @pytest.mark.parametrize("values, message", [
        ([1, 1, 1], "battle 2, standings 0-1: minimax bracket gap 1.402e-01 above 1e-03 "
                    "at A's budget share 0.6734"),
        ([1, 1, 1, 1], "battle 3, standings 0-2: minimax bracket gap 7.009e-02 above 1e-03 "
                       "at A's budget share 0.6734"),
        ([1, 1, 1, 3], "battle 3, standings 0-2: minimax bracket gap 1.765e-01 above 1e-03 "
                       "at A's budget share 0.7548"),
    ])
    def test_alpha_two_failures_keep_their_messages(self, values, message):
        spec = ContestSpec(values, [100, 100], CsfParams(2.0), objective=WP)
        with pytest.raises(ConvergenceError) as caught:
            solve_backward(spec)
        assert str(caught.value) == "stage solve at " + message


class TestLevelBlocks:
    """A level's classes are searched together, and certified in batches."""

    @pytest.mark.parametrize("values, alpha", [
        ([1, 2, 3, 4, 5], 1.0), ([1, 1, 1, 1, 1], 0.5), ([1, 1, 1, 1], 0.8),
    ])
    def test_splines_are_equal_however_a_level_is_blocked(self, monkeypatch, values, alpha):
        spec = ContestSpec(values, [1, 1], CsfParams(alpha), objective=WP)
        settings = equilibrium.DEFAULT_SETTINGS
        built = [equilibrium._ValueTables(spec, settings)]  # each level at once
        level = equilibrium._ValueTables._build_level
        monkeypatch.setattr(equilibrium._ValueTables, "_build_level",
                            lambda self, played, classes: [level(self, played, [totals])
                                                           for totals in classes])
        built.append(equilibrium._ValueTables(spec, settings))  # one class per build
        assert max(built[0]._level_rows) > equilibrium.VALUE_NODES  # a level shares a batch
        for tables in built[1:]:
            assert tables.splines.keys() == built[0].splines.keys()
            for key, spline in tables.splines.items():
                for field in "abcd":
                    assert np.array_equal(getattr(spline, field),
                                          getattr(built[0].splines[key], field)), key

    def test_a_failing_class_names_its_worst_node(self):
        spec = ContestSpec([1, 1, 1], [100, 100], CsfParams(2.0), objective=WP)
        equilibrium._tables_for.cache_clear()
        with pytest.raises(ConvergenceError) as caught:
            solve_backward(spec)
        equilibrium._tables_for.cache_clear()
        assert str(caught.value) == (
            "stage solve at battle 2, standings 0-1: minimax bracket gap 1.402e-01 above "
            "1e-03 at A's budget share 0.6734")
        assert caught.value.residual == pytest.approx(0.14017726367843342, abs=1e-15)

    @pytest.mark.parametrize("values, alpha", [
        ([1, 2, 3, 4, 5], 1.0), ([1, 1, 1, 1, 1], 0.5), ([1, 1, 1, 1], 0.8),
    ])
    def test_splines_are_equal_however_a_level_is_certified(self, monkeypatch, values, alpha):
        spec = ContestSpec(values, [1, 1], CsfParams(alpha), objective=WP)
        settings = equilibrium.DEFAULT_SETTINGS
        built = [equilibrium._ValueTables(spec, settings)]  # batches sized by cells
        sizes = [equilibrium.CERTIFICATE_CELLS // settings.grid_points]
        for cells in (64 * settings.grid_points, 1):  # 64 rows, one row
            monkeypatch.setattr(equilibrium, "CERTIFICATE_CELLS", cells)
            built.append(equilibrium._ValueTables(spec, settings))
            sizes.append(max(1, cells // settings.grid_points))
        assert sizes == [92, 64, 1]
        for tables, size in zip(built, sizes):  # A's rows and B's in one certificate
            assert tables._level_batches == [-(-2 * rows // size) for rows in tables._level_rows]
            # the search does not depend on how the certificate is batched
            assert tables._level_steps == built[0]._level_steps
        for tables in built[1:]:
            assert tables.splines.keys() == built[0].splines.keys()
            for key, spline in tables.splines.items():
                for field in "abcd":
                    assert np.array_equal(getattr(spline, field),
                                          getattr(built[0].splines[key], field)), key

    def test_the_worst_bracket_gap_stays_small(self):
        """Nodes searched to NODE_TOLERANCE keep their certified brackets narrow:
        far below the spline's own error, 5.4e-8 to 2.5e-7 between the nodes."""
        worst = 0.0
        for values in ([1, 1, 1], [1] * 4, [2, 1, 1, 1], [1, 2, 3, 4, 5],
                       [0.7, 1.3, 2.1, 0.9], [1] * 5):
            for alpha in (0.5, 0.8, 1.0):
                worst = max(worst, _unit_tables(values, alpha)._worst_gap)
        assert 0.0 < worst <= 2e-8


class TestNewtonSearch:
    """The saddle search: Newton on the first-order conditions, its derivatives
    in closed form, and its restarts from settled points."""

    @pytest.mark.parametrize("values, alpha", [
        ([1, 2, 3, 4, 5], 1.0), ([1] * 5, 0.5), ([1, 1, 1, 1], 0.8),
    ])
    def test_splines_are_within_1e_9_of_a_zoom_build(self, monkeypatch, values, alpha):
        spec = ContestSpec(values, [1, 1], CsfParams(alpha), objective=WP)
        newton = equilibrium._ValueTables(spec, equilibrium.DEFAULT_SETTINGS)
        monkeypatch.setattr(equilibrium._StageGame, "search", zoom_search)  # grid minimax alone
        zoomed = equilibrium._ValueTables(spec, equilibrium.DEFAULT_SETTINGS)
        assert sum(zoomed._level_settled) == 0
        assert newton._level_settled == newton._level_rows
        assert newton.splines.keys() == zoomed.splines.keys()
        shares = np.linspace(0.0, 1.0, 2001)
        for key, spline in newton.splines.items():
            error = np.abs(spline.value_vec(shares) - zoomed.splines[key].value_vec(shares))
            assert error.max() <= 1e-9, (key, error.max())

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_the_five_battle_ramp_settles_every_row(self, alpha):
        tables = equilibrium._ValueTables(ContestSpec([1, 2, 3, 4, 5], [1, 1], CsfParams(alpha),
                                                      objective=WP), equilibrium.DEFAULT_SETTINGS)
        assert tables._level_settled == tables._level_rows
        assert tables._worst_gap <= 1e-12

    def test_an_interior_saddle_is_found_exactly(self):
        # with 70 and 80 left and two equal battles to go, each spends half
        h = History().extend((30.0, 20.0), 0)
        solution = stage_equilibrium(three_battle_contest(), h)
        assert solution.allocations == pytest.approx((35.0, 40.0), rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_equal_battles_spend_the_budget_left_evenly(self, m, alpha):
        budgets = (30.0, 70.0)
        spec = ContestSpec([1.0] * m, budgets, CsfParams(alpha), objective=WP)
        left = list(budgets)
        for t, spends in enumerate(solve_backward(spec).trace):
            for i, w in enumerate(spends):
                assert abs(w - left[i] / (m - t)) <= 1e-7 * budgets[i], (t, i, w)
                left[i] -= w

    class _Quadratic:
        """A one-row stand-in for a stage game: A's payoff -(w_a - x)^2 +
        (w_b - 0.3)^2 + 0.2 w_a w_b on unit budgets, whose saddle pins A at an
        end for x outside [0, 1]; there B's spend solves 2 (w_b - 0.3) + 0.2
        w_a = 0.  Its derivatives are the exact ones."""

        def __init__(self, x):
            self.x, self._rows = x, np.arange(1)
            self.budgets = (np.ones(1), np.ones(1))
            self.proportional = (np.full(1, 0.5), np.full(1, 0.5))

        def take(self, rows):
            return self

        def slopes(self, spends):
            w_a, w_b = spends
            gradient = np.stack((-2.0 * (w_a - self.x) + 0.2 * w_b, 2.0 * (w_b - 0.3) + 0.2 * w_a))
            return gradient, (np.array([[-2.0], [2.0]]), np.array([0.2]))

    @pytest.mark.parametrize("x, pinned", [(2.0, 1.0), (-1.0, 0.0)])
    def test_a_pinned_player_leaves_the_other_its_own_condition(self, x, pinned):
        game = self._Quadratic(x)
        spends, steps, settled = equilibrium._newton(game, np.stack(game.proportional))
        assert settled[0]
        assert spends[0, 0] == pinned
        assert spends[1, 0] == pytest.approx(0.3 - 0.1 * pinned, rel=0.0, abs=1e-9)

    def test_a_row_with_a_broke_player_settles_at_its_start(self):
        # B is broke: A's proportional spend wins every battle left
        spec = three_battle_contest()
        game = equilibrium._stage_game_at(spec, History().extend((40.0, 100.0), 0),
                                          equilibrium.DEFAULT_SETTINGS)
        spends, steps, settled, restarts = game.search()
        assert spends[:, 0].tolist() == [30.0, 0.0]
        assert (steps[0], settled[0], restarts) == (0, True, (0, 0))

    def test_a_row_newton_leaves_restarts_from_both_best_responses(self, monkeypatch):
        # the double opener's root spends half the budget, not the proportional 40
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        game = equilibrium._stage_game_at(spec, History(), equilibrium.DEFAULT_SETTINGS)
        newton, starts = equilibrium._newton, []

        def first_leaves(part, start):  # the first run leaves the row where it started
            starts.append(start.copy())
            if len(starts) == 1:
                return start, np.zeros(start.shape[1], dtype=int), np.zeros(start.shape[1], bool)
            return newton(part, start)

        monkeypatch.setattr(equilibrium, "_newton", first_leaves)
        spends, steps, settled, restarts = game.search()
        assert settled.all() and restarts == (0, 1) and steps[0] > 0
        assert starts[0].tolist() == [[40.0], [40.0]]
        responses = game._certificate(starts[0])
        assert np.array_equal(starts[1], [responses[0][0], responses[1][0]])
        assert spends[:, 0] == pytest.approx((50.0, 50.0), rel=0.0, abs=1e-7)

    def test_a_build_restarts_rows_from_their_settled_neighbours(self, monkeypatch):
        # from the proportional spends, Newton leaves nodes 1-16 of standings
        # 0-1 at the last level built; each sweep restarts the rows left from
        # the spend shares of their nearest settled node of the class
        newton, runs = equilibrium._newton, []

        def spy(game, start):
            found = newton(game, start.copy())
            runs.append((game.budgets, start, tuple(part.copy() for part in found)))
            return found

        monkeypatch.setattr(equilibrium, "_newton", spy)
        tables = equilibrium._ValueTables(ContestSpec([1, 2, 3, 4, 5], [1, 1], objective=WP),
                                          equilibrium.DEFAULT_SETTINGS)
        assert tables._level_restarts == [(0, 0), (0, 0), (25, 0)]
        budgets, _, (spends, _, settled) = runs[2]  # the last level's first run
        budgets = np.stack(budgets)
        assert np.flatnonzero(~settled).tolist() == list(range(1, 17))
        assert [run[1].shape[1] for run in runs[3:]] == [16, 6, 2, 1]
        shares = spends[:, 17] / budgets[:, 17]  # the first sweep starts every row from node 17's
        assert np.array_equal(runs[3][1], shares[:, None] * budgets[:, 1:17])

    def test_a_row_restarts_from_the_nearest_settled_row_of_its_class(self):
        # rows of one class are consecutive; a tie goes to the lower row, and
        # a class with no settled row gets -1
        owner = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3])
        ok = np.array([0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0], dtype=bool)
        assert equilibrium._nearest(ok, owner).tolist() == [
            1, 1, 1, 1, 6, 6, 6, 6, 8, 8, 10, -1, -1]

    @pytest.mark.parametrize("values", [[1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 3]])
    def test_failures_name_the_class_of_a_zoom_build(self, monkeypatch, values):
        # no pure saddle at alpha 2: the build fails at the class where grid
        # minimax fails too, each reporting the gap at its own point
        spec = ContestSpec(values, [1, 1], CsfParams(2.0), objective=WP)
        errors = []
        for search in (equilibrium._StageGame.search, zoom_search):
            monkeypatch.setattr(equilibrium._StageGame, "search", search)
            with pytest.raises(ConvergenceError) as caught:
                equilibrium._ValueTables(spec, equilibrium.DEFAULT_SETTINGS)
            errors.append(str(caught.value))
        assert errors[0].split(":")[0] == errors[1].split(":")[0]

    def test_the_five_battle_ramp_logs_its_layer_numbers(self, caplog):
        spec = ContestSpec([1, 2, 3, 4, 5], [1, 1], objective=WP)
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            tables = equilibrium._ValueTables(spec, equilibrium.DEFAULT_SETTINGS)
        # every row settles: Newton from the proportional spends leaves nodes
        # 1-16 of a class in the last level built, and four neighbour sweeps
        # of 16, 6, 2 and 1 rows settle them
        rows, steps, restarts = [284, 162, 81], [1028, 845, 544], [(0, 0), (0, 0), (25, 0)]
        assert (tables._level_rows, tables._level_settled, tables._level_steps) == (
            rows, rows, steps)
        assert tables._level_restarts == restarts
        # Newton settles the certificate's rows but the flat and broke ones
        refined = [558, 320, 160]
        assert tables._level_refined == refined
        record = [r.getMessage() for r in caplog.records if r.name == "dynblotto"][-1]
        assert (f"rows per level {rows}, settled rows per level {rows}, neighbour restarts "
                f"per level [0, 0, 25], best-response restarts per level [0, 0, 0], Newton "
                f"steps per level {steps}, certificate rows settled by Newton per level "
                f"{refined}, ") in record
        search, certificate, total = map(float, re.findall(r"(\d+\.\d+) s", record))
        assert 0.0 < search and 0.0 < certificate and search + certificate <= total

    @pytest.mark.parametrize("values", [[1, 2, 3, 4, 5], [2, 1, 1, 1], [1, 1, 1, 2]])
    def test_a_flat_scan_at_its_proportional_spend_is_certified_once(self, monkeypatch, values):
        # at a class's end node where A is broke, Newton settles the row at
        # its proportional start and B's scan is flat: the flat rule moves no
        # spend, so each level's certificate is one batch of its rows
        certificate, calls = equilibrium._StageGame._certificate, []

        def counted(game, spends):
            responses = certificate(game, spends)
            calls.append((game._rows.size, bool(responses[1][2].any())))
            return responses

        monkeypatch.setattr(equilibrium._StageGame, "_certificate", counted)
        spec = ContestSpec(values, [1, 1], objective=WP)
        tables = equilibrium._ValueTables(spec, equilibrium.DEFAULT_SETTINGS)
        assert [rows for rows, _ in calls] == tables._level_rows and any(f for _, f in calls)


class _Parabola:
    """A one-player stand-in for `_OwnView` on unit budgets: the payoff
    -(w - peak)^2, with its exact derivatives, whatever the opponent spends."""

    def __init__(self, peak):
        self.peak, self.budgets, self.calls = peak, (np.ones(1),), 0

    def slopes(self, own, opp):
        self.calls += 1
        return -2.0 * (own - self.peak), np.full(own.shape, -2.0)


def _respond_at(view, start, lo, hi):
    return equilibrium._respond(view, np.array([start]), np.array([lo]), np.array([hi]),
                                np.zeros(1))


class TestNewtonBestResponses:
    """The certificate's refinement: Newton on each row's own first-order
    condition from the scan's best, inside the scan's bracket."""

    def test_no_row_falls_below_the_zoom(self, monkeypatch):
        # every certificate of a seeded family of builds, failing ones too,
        # against the same rows refined by grid minimax alone on the scan's
        # bracket; at alpha 2, a row of (3, 2, 2, 1) whose Newton step
        # overshoots the all-in end would be pinned there 2.3e-6 below the
        # zoom, but for the bracket
        rng, certified = random.Random(39), []
        certificate = equilibrium._StageGame._certificate
        monkeypatch.setattr(equilibrium._StageGame, "_certificate", lambda game, spends: (
            certified.append((game, spends, certificate(game, spends))) or certified[-1][2]))
        family = [(random_battle_values(rng, m), alpha)
                  for m, alpha in ((3, 0.5), (4, 1.0), (4, 2.0), (5, 0.8), (5, 1.0))]
        for values, alpha in family + [([3, 2, 2, 1], 2.0)]:
            spec = ContestSpec(values, [1, 1], CsfParams(alpha), objective=WP)
            try:
                equilibrium._ValueTables(spec, equilibrium.DEFAULT_SETTINGS)
            except ConvergenceError:
                pass
        monkeypatch.setattr(equilibrium, "_respond", lambda view, spends, lo, hi, opp: (
            zoom(view, [(lo, hi), (opp, opp)], 17, 1e-6)[0][0], np.zeros(spends.size, bool)))
        rows = settled = 0
        for game, spends, responses in certified:
            for newton, zoomed in zip(responses, certificate(game, spends)):
                assert np.all(newton[1] >= zoomed[1] - 4.4e-16)
                assert not zoomed[3].any() and np.array_equal(zoomed[2], newton[2])
                rows, settled = rows + newton[1].size, settled + int(newton[3].sum())
        assert settled > 0.9 * rows

    def test_no_row_ends_below_its_scan(self, monkeypatch):
        # a refinement that settles every row at its bracket's low end: each
        # row keeps its scan's best spend and payoff instead
        spec = three_battle_contest()
        game = equilibrium._stage_game_at(spec, History().extend((30.0, 35.0), 0),
                                          equilibrium.DEFAULT_SETTINGS).take([0, 0])
        players, opp = np.array([0, 1]), np.array([20.0, 20.0])
        monkeypatch.setattr(equilibrium, "_respond", lambda view, spends, lo, hi, opp: (
            lo.copy(), np.ones(lo.size, dtype=bool)))
        spends, values = game.best_responses(players, opp)[:2]
        view = equilibrium._OwnView(game, players == 1)
        grid = equilibrium._grid(np.zeros(2), view.budgets[0], 200)
        scan = view.payoff(grid[:, :, None], opp[:, None, None])[:, :, 0]
        best = scan.argmax(axis=1)
        assert np.array_equal(spends, grid[[0, 1], best])
        assert np.array_equal(values, scan[[0, 1], best])

    def test_a_best_response_without_a_maximum_bisects_towards_it(self):
        # B's best response to A all in: B's payoff rises up to B all in, where
        # both are broke and it drops to the coin value, so each Newton step
        # would leave the scan's bracket; the bisections end above the zoom
        spec = three_battle_contest()
        game = equilibrium._stage_game_at(spec, History().extend((30.0, 35.0), 0),
                                          equilibrium.DEFAULT_SETTINGS).take([0, 0])
        players, opp = np.array([1, 0]), np.array([70.0, 20.0])
        spends, values, _, settled = game.best_responses(players, opp)
        assert settled.tolist() == [False, True]
        view = equilibrium._OwnView(game.take([0]), players[:1] == 1)
        points = equilibrium.DEFAULT_SETTINGS.grid_points
        grid = equilibrium._grid(np.zeros(1), view.budgets[0], points)
        best = int(view.payoff(grid[:, :, None], opp[:1, None, None]).argmax())
        boxes = [(grid[:, best - 1], grid[:, min(best + 1, points - 1)]), (opp[:1], opp[:1])]
        point = zoom(view, boxes, 17, 1e-6)[0][0]
        assert point[0] < spends[0] < 65.0 and values[0] > view.payoff(point, opp[:1])[0]

    def test_a_row_stops_once_its_predicted_gain_is_rounding(self, monkeypatch):
        # 1e-9 from the peak the model predicts a gain of 1e-18, below
        # NEWTON_FLOOR: the row settles where it starts, after one reading
        view = _Parabola(0.5 + 1e-9)
        spends, settled = _respond_at(view, 0.5, 0.4, 0.6)
        assert (spends[0], settled[0], view.calls) == (0.5, True, 1)
        monkeypatch.setattr(equilibrium, "NEWTON_FLOOR", 0.0)  # on to the peak
        view = _Parabola(0.5 + 1e-9)
        spends, settled = _respond_at(view, 0.5, 0.4, 0.6)
        assert (spends[0], settled[0], view.calls) == (view.peak, True, 2)

    def test_a_step_out_of_the_bracket_bisects_it(self):
        # the peak lies above the bracket: each Newton step would leave it, so
        # each step halves the distance to its end, never reaching it
        view = _Parabola(0.9)
        spends, settled = _respond_at(view, 0.5, 0.4, 0.6)
        assert not settled[0] and view.calls == equilibrium.NEWTON_STEPS
        assert 0.6 - spends[0] == pytest.approx(0.1 / 2**equilibrium.NEWTON_STEPS, rel=1e-6)
        # started at the bracket's end, where the condition points out, it stays
        view = _Parabola(0.9)
        assert _respond_at(view, 0.6, 0.4, 0.6) == (np.array([0.6]), np.array([True]))
        assert view.calls == 1


class TestSlopes:
    """The closed-form derivatives against central differences of the payoff."""

    STEP = 1e-5  # of each budget

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_the_kernel_matches_central_differences(self, alpha):
        # rows of every class kind, a line flat or sloped and a built spline
        # read at A's share or, mirrored, at B's, at random spends inside
        # random budgets
        spec = ContestSpec([1, 1, 1], [1, 1], CsfParams(alpha), objective=WP)
        tables = _unit_tables([1, 1, 1, 1], 1.0)
        kinds = [equilibrium._ClassValue(linear=(0.7, 0.7)),
                 equilibrium._ClassValue(linear=(1.0, 0.25))]
        kinds += [tables.branch(2, totals) for totals in ((0.0, 2.0), (2.0, 0.0), (1.0, 1.0))]
        assert [(kind.linear is None, kind.mirrored) for kind in kinds] == [
            (False, False), (False, False), (True, False), (True, True), (True, False)]
        rng = np.random.default_rng(13)
        owner = rng.integers(0, len(kinds), (2, 200))
        budgets = rng.uniform(0.5, 3.0, (2, 200))
        spends = budgets * rng.uniform(0.05, 0.95, (2, 200))
        game = equilibrium._StageGame(spec, 1, (0.0, 0.0), budgets, tuple(
            equilibrium._BranchValue(kinds, row) for row in owner), equilibrium.DEFAULT_SETTINGS)
        gradient, (bend, twist) = game.slopes(spends)
        h = self.STEP * budgets
        grids = spends[:, :, None] + h[:, :, None] * np.array([-1.0, 0.0, 1.0])
        f = game.payoff(grids[0][:, :, None], grids[1][:, None, :])
        differences = (
            np.stack(((f[:, 2, 1] - f[:, 0, 1]) / (2 * h[0]),
                      (f[:, 1, 2] - f[:, 1, 0]) / (2 * h[1]))),
            np.stack(((f[:, 2, 1] - 2 * f[:, 1, 1] + f[:, 0, 1]) / h[0] ** 2,
                      (f[:, 1, 2] - 2 * f[:, 1, 1] + f[:, 1, 0]) / h[1] ** 2)),
            (f[:, 2, 2] - f[:, 2, 0] - f[:, 0, 2] + f[:, 0, 0]) / (4 * h[0] * h[1]),
        )
        # a central difference errs by about h^2 times the third derivative,
        # up to 1e-8 here, plus the payoff's rounding over h, or over h^2 for
        # a second difference: 1e-11 and 2e-5 at budgets down to 0.5
        for exact, difference, bound in zip((gradient, bend, twist), differences,
                                            (1e-7, 1e-4, 1e-4)):
            assert np.max(np.abs(exact - difference)) <= bound


def _unit_tables(values, alpha):
    spec = ContestSpec(values, [1, 1], CsfParams(alpha), objective=WP)
    return equilibrium._tables_for(spec, equilibrium.DEFAULT_SETTINGS)


class TestValueTablesAgainstDirectStageSolves:
    """Every built class between its nodes, against a direct stage solve there.

    The midpoint of every interval between table nodes, the eight outermost
    at each end included, is solved on the class's own continuation; the
    spline there must match the search's bracket midpoint to 1e-6.
    """

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    @pytest.mark.parametrize("values", [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]])
    def test_splines_match_stage_solves_between_nodes(self, values, alpha):
        tables = _unit_tables(values, alpha)
        nodes = equilibrium._NODES
        middles = (nodes[:-1] + nodes[1:]) / 2.0
        budgets = (middles ** (1.0 / alpha), (1.0 - middles) ** (1.0 / alpha))
        assert len(tables.splines) >= 4
        for (played, standings), spline in tables.splines.items():
            direct = []
            for chunk in np.array_split(np.arange(middles.size), 2):
                game = tables.stage_game(played, standings, tuple(b[chunk] for b in budgets))
                points = game.solve()
                direct.append(points.value + (points.gains[0] - points.gains[1]) / 2.0)
            error = np.abs(spline.value_vec(middles) - np.concatenate(direct))
            assert error.max() <= 1e-6, (played, standings, int(error.argmax()), error.max())


class TestBranchesOverTheShare:
    """Branch values at alpha 0.5, where A's share q and A's budget share differ."""

    ALPHA = 0.5
    BUDGETS = (np.concatenate(([0.0, 0.0, 3.0], np.random.default_rng(5).uniform(0, 4, 200))),
               np.concatenate(([0.0, 2.0, 0.0], np.random.default_rng(6).uniform(0, 4, 200))))

    def test_a_mirrored_class_is_one_minus_its_mirror_at_swapped_budgets(self):
        tables = _unit_tables([1, 1, 1, 1], self.ALPHA)
        b_a, b_b = self.BUDGETS
        for played, standings in ((1, (1.0, 0.0)), (2, (2.0, 0.0))):
            mirrored = tables.branch(played, standings)
            mirror = tables.branch(played, standings[::-1])
            assert mirrored.mirrored and not mirror.mirrored
            assert np.array_equal(_branch_at(mirrored, b_a, b_b, self.ALPHA),
                                  1.0 - _branch_at(mirror, b_b, b_a, self.ALPHA))

    def test_both_players_broke_get_the_coin_value(self):
        tables = _unit_tables([1, 1, 1, 1], self.ALPHA)
        broke = np.zeros(3)
        kinds = set()
        for played, standings in _live_classes(tables.spec)[1:]:
            branch = tables.branch(played, standings)
            kinds.add((branch.linear is not None, branch.mirrored))
            value = _branch_at(branch, broke, broke, self.ALPHA)
            assert np.array_equal(value, np.full(3, tables.coin_value(played, standings)))
        assert kinds == {(True, False), (False, False), (False, True)}

    def test_splines_reproduce_their_node_values(self):
        ys = np.random.default_rng(7).uniform(0.1, 0.9, equilibrium.VALUE_NODES)
        assert np.max(np.abs(equilibrium._Spline(ys).value_vec(equilibrium._NODES) - ys)) <= 1e-15
        tables = _unit_tables([1, 1, 1, 1], self.ALPHA)
        for spline in tables.splines.values():
            node_values = spline.value_vec(equilibrium._NODES[:-1])
            assert np.max(np.abs(node_values - spline.a)) <= 1e-15


class TestCheckProportionality:
    def test_three_equal_battles_hold(self):
        verdict = check_proportionality(three_battle_contest())
        assert verdict.holds
        assert verdict.max_gain <= 1e-6
        assert verdict.histories_checked > 0

    def test_an_infeasible_plan_history_is_refused(self):
        # the overspent history was swept, and the verdict held over 8 histories
        spec = ContestSpec([1, 1, 1], [10, 20])
        overspent = History().extend((500, 0), 0)
        with pytest.raises(InfeasibleHistoryError, match="player 0 spent 500.0, over the budget"):
            check_proportionality(spec, SamplingPlan(histories=(overspent,)))

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


@pytest.mark.parametrize("field, value", [
    ("max_per_depth", -1), ("max_per_depth", 1.5), ("max_per_depth", True),
    ("max_per_depth", False), ("max_per_depth", np.True_), ("delta_points", -1),
    ("delta_points", 2.5), ("delta_points", True), ("delta_points", False),
    ("delta_points", np.True_), ("tolerance", float("nan")), ("tolerance", -1.0),
    ("tolerance", "1e-6"), ("histories", ("x",)), ("histories", 5), ("seed", [1]),
    ("seed", 1.5),
])
def test_a_sampling_plan_refuses_a_bad_field(field, value):
    with pytest.raises(InputError, match=f"sampling plan {field} must be"):
        SamplingPlan(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("grid_points", 1), ("grid_points", 0), ("grid_points", -3), ("grid_points", 2.5),
    ("grid_points", 200.0), ("grid_points", True), ("grid_points", "200"),
    ("tolerance", float("nan")), ("tolerance", float("inf")), ("tolerance", 0.0),
    ("tolerance", -1e-6), ("tolerance", "1e-6"), ("tolerance", None),
])
def test_solver_settings_refuse_a_bad_field(field, value):
    with pytest.raises(InputError, match=rf"solver\.{field} must be"):
        SolverSettings(**{field: value})


def test_solver_settings_keep_their_edge_values():
    spec = ContestSpec([1, 1, 1], [50, 50], objective=WP)
    for settings in (SolverSettings(grid_points=2), SolverSettings(grid_points=np.int64(3)),
                     SolverSettings(tolerance=1e-9), SolverSettings(tolerance=5)):
        assert stage_equilibrium(spec, History(), settings=settings).allocations


def test_a_sampling_plan_keeps_its_edge_values():
    spec = ContestSpec([1, 1, 1], [10, 20])
    for plan in (SamplingPlan(delta_points=0), SamplingPlan(delta_points=1),
                 SamplingPlan(max_per_depth=0), SamplingPlan(tolerance=float("inf"))):
        assert check_proportionality(spec, plan).holds


def seeded_contest(rng, objective, with_shocks, k):
    """A small contest with integer values (ties and clinches), zero budgets and shocks."""
    n, m = rng.choice((2, 3, 4)), rng.randint(1, 6)
    values = [float(rng.randint(1, 3)) for _ in range(m)]
    budgets = [rng.choice([0.0, rng.uniform(1.0, 100.0)]) for _ in range(n)]
    shocks = {}
    if with_shocks:
        for _ in range(rng.randint(1, n)):
            shocks[(rng.randrange(n), rng.randint(1, m))] = rng.uniform(-30.0, 30.0)
    return ContestSpec(values, budgets, CsfParams((0.5, 1.0, 2.0)[k % 3]), objective, shocks)


class TestSampledHistories:
    """The swept states are the histories of the History BFS, in order."""

    @pytest.mark.parametrize("objective", [EV, WP], ids=["ev", "wp"])
    @pytest.mark.parametrize("with_shocks", [False, True], ids=["no-shocks", "shocks"])
    def test_against_the_breadth_first_walk(self, objective, with_shocks):
        # integer values, so win-probability ties and clinches occur; zero
        # budgets give winners of probability 0
        rng = random.Random(f"sampled-histories:{objective.value}:{with_shocks}")
        subsampled = 0
        for k in range(18):
            spec = seeded_contest(rng, objective, with_shocks, k)
            n, m = spec.n, spec.m
            given = (history_from_winners(spec, [rng.randrange(n)]),) if m > 1 else ()
            lengths = []
            for max_per_depth in (None, 3):
                plan = SamplingPlan(max_per_depth=max_per_depth, histories=given, seed=k)
                expected = history_bfs_histories(spec, plan)
                swept = []
                for played, standings, spent, sources in equilibrium._swept_states(spec, plan):
                    for row, source in enumerate(sources):
                        if not isinstance(source, History):
                            source = history_from_winners(spec, source.tolist())
                        # the state's arrays are its History's, bit for bit
                        assert len(source) == played
                        assert standings[row].tolist() == list(source.won_values(spec))
                        assert spent[row].tolist() == [source.spent(i) for i in range(n)]
                        swept.append(source)
                assert swept == expected, spec
                lengths.append(len(expected))
            subsampled += lengths[1] < lengths[0]
        assert subsampled >= 3  # the seeded subsample was drawn


class TestBatchedCheck:
    """Batched sweeps give the verdict of one sweep per (history, player)."""

    @pytest.mark.parametrize("objective", [EV, WP], ids=["ev", "wp"])
    @pytest.mark.parametrize("with_shocks", [False, True], ids=["no-shocks", "shocks"])
    def test_verdicts_equal_the_per_history_loop(self, monkeypatch, objective, with_shocks):
        # A tolerance of 1 lets every win-probability check hold, so all its
        # sweeps and their largest gain are compared.  A check that holds
        # with a positive largest gain is run again with half that gain as
        # its tolerance, which refutes it somewhere inside a batch.  Every
        # other contest has batches of at most 50 rows, walked in parts of
        # at most 50 states.
        rng = random.Random(f"batched-check:{objective.value}:{with_shocks}")
        refuted = []
        for k in range(24):
            spec = seeded_contest(rng, objective, with_shocks, k)
            given = ()
            if spec.m > 1 and rng.random() < 0.5:
                given = (history_from_winners(spec, [rng.randrange(spec.n)]),)
            whole = spec.n ** (spec.m - 1) <= 256  # the reference is slow on larger levels
            plan = SamplingPlan(max_per_depth=rng.choice((None, 3)) if whole else 3,
                                histories=given, delta_points=rng.choice((0, 1, 2, 21)),
                                tolerance=rng.choice((1e-6, 1.0)), seed=k)
            with monkeypatch.context() as patch:
                if k % 2:
                    patch.setattr(equilibrium, "PART", 50)
                    patch.setattr(evaluation, "PART", 50)
                verdict = check_proportionality(spec, plan)
                assert verdict == per_history_check(spec, plan), (spec, plan)
                if verdict.holds and verdict.max_gain > 0.0:
                    plan = replace(plan, tolerance=verdict.max_gain / 2)
                    verdict = check_proportionality(spec, plan)
                    assert verdict == per_history_check(spec, plan), (spec, plan)
            if not verdict.holds:
                refuted.append(verdict.histories_checked)
        if objective is WP:  # refutations at first sweeps and deep inside batches
            assert len(refuted) >= 4 and min(refuted) == 1 and max(refuted) > 3

    def test_large_budgets_give_the_unit_verdict(self):
        # budgets and shocks scaled by c leave every payoff as it is; from
        # about c = 1e7 an ulp of a budget exceeds BUDGET_TOLERANCE, and the
        # top point of a deviation grid must still pass its own sweep's test
        rng = random.Random("scaled-checks")
        refuted = 0
        for _ in range(60):
            n, m = rng.randint(2, 4), rng.randint(2, 4)
            objective, alpha = rng.choice((EV, WP)), rng.choice((0.5, 1.0, 2.0))
            values = [round(rng.uniform(0.5, 3.0), 4) for _ in range(m)]
            budgets = [round(rng.uniform(0.5, 1.0), 6) for _ in range(n)]
            shocks = {}
            if rng.random() < 0.5:
                shocks[(rng.randrange(n), rng.randint(1, m))] = round(rng.uniform(-0.3, 0.3), 6)
            unit = None
            for c in (1.0, 1e4, 1e7, 1e8, 1e11, 1e15):
                spec = ContestSpec(values, [b * c for b in budgets], CsfParams(alpha), objective,
                                   {key: amount * c for key, amount in shocks.items()})
                verdict = check_proportionality(spec)
                unit = unit or verdict
                assert (verdict.holds, verdict.histories_checked) == (
                    unit.holds, unit.histories_checked), (spec, verdict, unit)
                if verdict.holds:
                    assert verdict.max_gain == pytest.approx(unit.max_gain, abs=1e-12)
                    continue
                got, want = verdict.counterexample, unit.counterexample
                assert (got.player, got.history.winner_schedule()) == (
                    want.player, want.history.winner_schedule()), (spec, got, want)
                assert got.gain == pytest.approx(want.gain, abs=1e-12)
            refuted += not unit.holds
        assert refuted >= 10

    def test_long_expected_value_checks_with_a_broke_player(self, monkeypatch):
        # up to 7 battles, one player broke before any shock; a check that
        # holds is refuted where its largest gain is, or before, with a
        # tolerance just below that gain or at half of it
        rng = random.Random("long-ev-checks")
        for k in range(12):
            n, m = rng.choice((2, 3, 4)), rng.randint(5, 7)
            budgets = [rng.uniform(1.0, 100.0) for _ in range(n)]
            budgets[rng.randrange(n)] = 0.0
            shocks = {(rng.randrange(n), rng.randint(1, m)): rng.uniform(-40.0, 20.0)
                      for _ in range(rng.randint(0, n))}
            csf = CsfParams((0.5, 1.0, 2.0)[k % 3], rng.choice((1.0, 5.0)))
            spec = ContestSpec([float(rng.randint(1, 3)) for _ in range(m)], budgets, csf, EV,
                               shocks)
            plan = SamplingPlan(max_per_depth=None if n ** (m - 1) <= 256 else 3,
                                delta_points=rng.choice((2, 21)), seed=k)
            with monkeypatch.context() as patch:
                if k % 2:
                    patch.setattr(equilibrium, "PART", 50)
                verdict = check_proportionality(spec, plan)
                assert verdict == per_history_check(spec, plan), (spec, plan)
                for share in (0.999, 0.5) if verdict.holds and verdict.max_gain > 0.0 else ():
                    low = replace(plan, tolerance=verdict.max_gain * share)
                    assert check_proportionality(spec, low) == per_history_check(spec, low)

    @pytest.mark.parametrize("part", [None, 50], ids=["one-walk", "parts-of-50"])
    def test_an_expected_value_check_walks_one_path(self, monkeypatch, caplog, part):
        # the four-player contest of 13 battles: 4**12 winner sequences at
        # the last depth, none of them enumerated
        def refuse(*args, **kwargs):
            raise AssertionError("winner sequences enumerated")

        monkeypatch.setattr(equilibrium, "_swept_states", refuse)
        monkeypatch.setattr(evaluation, "_levels", refuse)
        if part is not None:
            monkeypatch.setattr(equilibrium, "PART", part)
        spec = ContestSpec([1.0 + 0.1 * t for t in range(13)], [10, 20, 30, 40])
        tracemalloc.start()
        try:
            with caplog.at_level(logging.DEBUG, logger="dynblotto"):
                verdict = check_proportionality(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds and verdict.histories_checked == (4**13 - 1) // 3 == 22_369_621
        assert peak < 10 * 2**20
        ((states, distinct, sweeps, walks, rows, depth),) = check_records(caplog)
        assert states == [4**d for d in range(13)] and distinct == [1] * 13 and depth is None
        fit = (part or equilibrium.PART) // 22  # whole sweeps of 22 rows in a walk
        assert (sweeps, rows, walks) == (4 * 13, 4 * 13 * 22, -(-4 * 13 // fit))

    def test_histories_checked_are_exact_beyond_int64(self):
        spec = ContestSpec([1.0 + 0.1 * t for t in range(40)], [10, 20, 30, 40])
        checked = check_proportionality(spec).histories_checked
        assert type(checked) is int and checked == sum(4**d for d in range(40)) > 2**63

    def test_a_win_probability_check_over_the_cap_walks_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(evaluation, "_levels", refuse)  # the exact walk's loop
        spec = ContestSpec([1.0] * 24, [10.0, 20.0], objective=WP)  # 2**24 leaves
        with pytest.raises(EnumerationCapError):
            check_proportionality(spec)

    def test_one_debug_record_per_check(self, caplog):
        spec = ContestSpec([1, 1, 1, 3], [100, 100], objective=WP)
        with caplog.at_level(logging.INFO, logger="dynblotto"):
            check_proportionality(spec)
        assert check_records(caplog) == []
        alternating = history_from_winners(spec, (0, 1))
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            check_proportionality(spec, SamplingPlan(histories=(alternating,)))
            check_proportionality(ContestSpec([1, 2, 1, 1], [30, 20, 10]))
        (refuted, held) = check_records(caplog)
        # the given history's first sweep refutes
        assert refuted == ([0, 0, 1, 0], [0, 0, 1, 0], 1, 1, 22, 2)
        states, distinct, sweeps, walks, rows, depth = held
        assert states == [1, 3, 9, 27] and distinct == [1] * 4 and depth is None
        assert sweeps == 3 * 4 and rows == sweeps * 22 and walks == 1  # every depth in one walk

    @pytest.mark.parametrize("values, budgets", [([1] * 6, [30, 20, 10]), ([1, 2] * 3, [37, 81])],
                             ids=["ones-n3", "one-two-n2"])
    @pytest.mark.parametrize("max_per_depth", [None, 3], ids=["whole", "sampled"])
    def test_merged_states_give_the_per_history_verdict(self, caplog, values, budgets,
                                                         max_per_depth):
        # integer values: many states of a depth have equal standings and spends
        spec = ContestSpec(values, budgets, objective=WP)
        plan = SamplingPlan(max_per_depth=max_per_depth, tolerance=1.0)
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            verdict = check_proportionality(spec, plan)
        assert verdict.holds and verdict == per_history_check(spec, plan)
        ((states, distinct, *_),) = check_records(caplog)
        assert max_per_depth is not None or sum(distinct) < sum(states) / 2
        plan = replace(plan, tolerance=verdict.max_gain / 2)
        verdict = check_proportionality(spec, plan)
        assert not verdict.holds and verdict == per_history_check(spec, plan)

    def test_a_counterexample_with_a_later_twin_is_the_first(self):
        # (0, 1) and (1, 0) have equal standings and spends; (0, 1) comes first
        spec = ContestSpec([1, 1, 1, 3], [100, 100], objective=WP)
        plan = SamplingPlan(tolerance=0.01)
        verdict = check_proportionality(spec, plan)
        assert verdict == per_history_check(spec, plan)
        assert verdict.counterexample.history.winner_schedule() == (0, 1)
        assert verdict.histories_checked == 1 + 2 + 2
        twin = history_from_winners(spec, (1, 0))
        assert twin.won_values(spec) == verdict.counterexample.history.won_values(spec)
        assert [twin.spent(i) for i in range(2)] == [
            verdict.counterexample.history.spent(i) for i in range(2)]

    @pytest.mark.parametrize("spec, given", [
        (ContestSpec([1.0] * 12, [30, 20]), ()),
        (ContestSpec([1.0] * 6, [10, 40, 25, 5]), ((0, 1), (2,))),
        (ContestSpec([1, 2, 1, 1], [30, 20, 10], shocks={(1, 3): 5.0}), ()),
        (ContestSpec([1.0] * 8, [30, 20, 10], objective=WP), ()),
        (ContestSpec([1, 2, 1, 2, 1], [37, 81], objective=WP), ((1, 0, 1), (1,))),
    ], ids=["ev-n2-m12", "ev-n4-given", "ev-shocks", "wp-n3-m8", "wp-n2-given"])
    def test_distinct_states_per_depth(self, caplog, spec, given):
        plan = SamplingPlan(histories=tuple(history_from_winners(spec, w) for w in given),
                            tolerance=sum(spec.values))  # every check holds
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            assert check_proportionality(spec, plan).holds
        ((states, distinct, sweeps, *_),) = check_records(caplog)
        assert distinct == distinct_per_depth(spec, plan)
        assert sweeps == spec.n * sum(distinct)


def check_records(caplog):
    """(states and distinct states per depth, sweeps, walks, rows, refuted depth) of each check."""
    return [r.args for r in caplog.records if r.msg.startswith("proportionality check")]


def distinct_per_depth(spec, plan):
    """Distinct states per depth that a check sweeps, from the rules.

    A sweep reads a state's spends under expected value and its standings
    and spends under win probability.  The states of one depth of the
    breadth-first walk are merged on that; each plan history stands alone.
    """
    groups = {}
    for k, history in enumerate(history_bfs_histories(spec, plan)):
        if terminal_status(spec, history).terminal:
            continue
        spent = tuple(history.spent(i) for i in range(spec.n))
        read = spent if spec.objective is EV else (history.won_values(spec), spent)
        group = (k if k < len(plan.histories) else None, len(history))
        groups.setdefault(group, set()).add(read)
    counts = [0] * spec.m
    for (_, played), reads in groups.items():
        counts[played] += len(reads)
    return counts


class TestLargerBattleThatCannotBePivotal:
    def test_five_battle_traces_match(self):
        plain = solve_backward(ContestSpec([7] * 5, [100, 100], objective=WP))
        bumped = solve_backward(ContestSpec([7, 7, 8, 7, 7], [100, 100], objective=WP))
        for t in range(5):
            for i in range(2):
                share_plain = plain.trace[t][i] / 100.0
                share_bumped = bumped.trace[t][i] / 100.0
                assert share_bumped == pytest.approx(share_plain, abs=1e-3)
