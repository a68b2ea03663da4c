"""Strategies: proportional rule, deviations, tabular lookup, profiles."""

import random

import numpy as np
import pytest

from dynblotto import (
    ContestSpec,
    ContractError,
    CsfParams,
    History,
    InputError,
    Objective,
    PROPORTIONAL,
    StrategyProfile,
    Tabular,
    allocations_at,
    csf_probability,
    expected_payoffs,
    history_from_winners,
    one_shot_deviation,
    proportional_allocation,
    proportional_profile,
    reach_probability,
    remaining_budget,
)

WP = Objective.WIN_PROBABILITY


class TestProportionalAllocation:
    def test_three_equal_battles(self):
        spec = ContestSpec([1, 1, 1], [100, 100])
        assert proportional_allocation(spec, History(), 0) == pytest.approx(100 / 3)

    def test_last_battle_takes_everything(self):
        spec = ContestSpec([1, 2, 1], [80, 80])
        h = history_from_winners(spec, (0, 1))
        budget = remaining_budget(spec, h, 0)
        assert proportional_allocation(spec, h, 0) == pytest.approx(budget)

    def test_double_value_opener(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100])
        assert proportional_allocation(spec, History(), 0) == pytest.approx(40.0)

    def test_terminal_history_rejected(self):
        spec = ContestSpec([1, 1], [10, 10])
        h = history_from_winners(spec, (0, 0))
        with pytest.raises(ContractError):
            proportional_allocation(spec, h, 0)

    def test_outputs_telescope_to_the_full_budget(self):
        rng = random.Random(21)
        for _ in range(30):
            m = rng.choice([2, 3, 4, 5])
            values = [rng.uniform(0.5, 3.0) for _ in range(m)]
            budgets = [rng.uniform(1.0, 90.0), rng.uniform(1.0, 90.0)]
            spec = ContestSpec(values, budgets)
            profile = proportional_profile(2)
            h = History()
            spent = [0.0, 0.0]
            for _ in range(m):
                allocations = allocations_at(profile, spec, h)
                spent = [s + a for s, a in zip(spent, allocations)]
                h = h.extend(allocations, rng.randrange(2))
            for i in range(2):
                assert spent[i] == pytest.approx(budgets[i], abs=1e-9)

    def test_stage_win_probability_constant_across_battles(self):
        rng = random.Random(22)
        for _ in range(30):
            m = rng.choice([2, 3, 4, 5])
            n = rng.choice([2, 3])
            values = [rng.uniform(0.5, 3.0) for _ in range(m)]
            spec = ContestSpec(values, [rng.uniform(1.0, 90.0) for _ in range(n)],
                               csf=CsfParams(rng.choice([0.5, 1.0, 2.0])))
            profile = proportional_profile(n)
            h = History()
            first = None
            for _ in range(m):
                allocations = allocations_at(profile, spec, h)
                p = csf_probability(allocations, spec.csf, 0)
                if first is None:
                    first = p
                assert p == pytest.approx(first, rel=1e-10)
                h = h.extend(allocations, rng.randrange(n))


class TestAllocationsAt:
    def test_proportional_profile_at_the_root(self):
        spec = ContestSpec([1, 1, 1], [100, 100], objective=WP)
        allocations = allocations_at(proportional_profile(2), spec, History())
        assert allocations == pytest.approx((100 / 3, 100 / 3))

    def test_deviation_overrides_one_player(self):
        spec = ContestSpec([1, 1, 1], [100, 100], objective=WP)
        profile = one_shot_deviation(proportional_profile(2), 0, History(), 50.0)
        allocations = allocations_at(profile, spec, History())
        assert allocations == pytest.approx((50.0, 100 / 3))

    def test_guaranteed_loser_forced_to_zero(self):
        spec = ContestSpec([3, 3, 1, 1], [90, 90, 90], objective=WP)
        h = history_from_winners(spec, (0, 1))
        allocations = allocations_at(proportional_profile(3), spec, h)
        assert allocations[2] == 0.0
        assert allocations[0] > 0.0 and allocations[1] > 0.0

    def test_outputs_clamped_to_budget(self):
        spec = ContestSpec([1, 1], [10, 10])
        profile = one_shot_deviation(proportional_profile(2), 0, History(), 10.0 + 5e-10)
        allocations = allocations_at(profile, spec, History())
        assert allocations[0] == 10.0

    def test_terminal_history_rejected(self):
        spec = ContestSpec([1, 1], [10, 10])
        h = history_from_winners(spec, (0, 1))
        with pytest.raises(ContractError):
            allocations_at(proportional_profile(2), spec, h)


class TestOneShotDeviation:
    def test_matching_output_changes_nothing(self):
        spec = ContestSpec([1, 2, 1], [60, 40])
        base = proportional_profile(2)
        h = history_from_winners(spec, (0,))
        same = one_shot_deviation(base, 0, h, proportional_allocation(spec, h, 0))
        assert expected_payoffs(same, spec, h) == pytest.approx(expected_payoffs(base, spec, h))
        for winners in [(), (0,), (1,), (0, 1), (1, 0)]:
            probe = history_from_winners(spec, winners)
            assert allocations_at(same, spec, probe) == pytest.approx(
                allocations_at(base, spec, probe)
            )

    def test_changes_apply_only_at_the_given_history(self):
        spec = ContestSpec([1, 1, 1], [100, 100])
        h = history_from_winners(spec, (1,))
        profile = one_shot_deviation(proportional_profile(2), 0, h, 5.0)
        assert allocations_at(profile, spec, h)[0] == 5.0
        assert allocations_at(profile, spec, History())[0] == pytest.approx(100 / 3)
        other = history_from_winners(spec, (0,))
        assert allocations_at(profile, spec, other)[0] == pytest.approx(100 / 3)

    def test_outermost_deviation_at_a_history_wins(self):
        spec = ContestSpec([1, 1, 1], [100, 100])
        h = history_from_winners(spec, (1,))
        inner = one_shot_deviation(proportional_profile(2), 0, h, 5.0)
        outer = one_shot_deviation(inner, 0, h, 7.0)
        assert allocations_at(outer, spec, h)[0] == 7.0
        elsewhere = one_shot_deviation(inner, 0, History(), 9.0)
        assert allocations_at(elsewhere, spec, h)[0] == 5.0
        assert allocations_at(elsewhere, spec, History())[0] == 9.0

    def test_out_of_budget_deviation_rejected(self):
        from dynblotto import deviation_gain

        spec = ContestSpec([1, 1], [10, 10])
        with pytest.raises(InputError):
            deviation_gain(spec, History(), 0, 6.0)  # proportional is 5, budget 10

    def test_bad_player_index(self):
        with pytest.raises(InputError):
            one_shot_deviation(proportional_profile(2), 5, History(), 1.0)

    @pytest.mark.parametrize("amount", [float("nan"), float("inf"), -10**400, "3", True, None])
    def test_an_amount_that_is_no_finite_real_number_is_named(self, amount):
        # NaN made the root allocation NaN and the payoffs (nan, nan); "3"
        # was read as 3.0 and True as 1.0
        with pytest.raises(InputError, match=r"^amount must be a finite real number, got "):
            one_shot_deviation(proportional_profile(2), 0, History(), amount)
        spec = ContestSpec([1, 1, 1], [10, 20])
        deviated = one_shot_deviation(proportional_profile(2), 0, History(), np.float64(-1.0))
        assert allocations_at(deviated, spec, History())[0] == 0.0  # clamped into the budget


class TestTabular:
    def test_recorded_allocation_wins_over_fallback(self):
        spec = ContestSpec([1, 1], [10, 10], objective=WP)
        strategy = Tabular(player=0)
        strategy.record(1, (0.0, 0.0), (10.0, 10.0), 7.5)
        profile = StrategyProfile((strategy, PROPORTIONAL))
        assert allocations_at(profile, spec, History())[0] == 7.5

    def test_nearest_budget_entry_is_used(self):
        spec = ContestSpec([1, 1], [10, 10], objective=WP)
        strategy = Tabular(player=0)
        strategy.record(2, (1.0, 0.0), (8.0, 4.0), 8.0)
        strategy.record(2, (1.0, 0.0), (5.0, 9.0), 3.0)
        h = History().extend((5.0, 1.0), 0)  # standings (1, 0), budgets (5, 9)
        profile = StrategyProfile((strategy, PROPORTIONAL))
        assert allocations_at(profile, spec, h)[0] == 3.0

    def test_states_with_equal_standings_share_entries(self):
        # (A, B) and (B, A) both reach standings (1, 1): one key answers both
        spec = ContestSpec([1, 1, 1], [60, 60])
        strategy = Tabular(player=0)
        strategy.record(3, (1.0, 1.0), (40.0, 40.0), 12.5)
        profile = StrategyProfile((strategy, PROPORTIONAL))
        for winners in [(0, 1), (1, 0)]:
            h = history_from_winners(spec, winners)
            assert allocations_at(profile, spec, h)[0] == 12.5
        assert allocations_at(profile, spec, history_from_winners(spec, (0, 0)))[0] == 20.0

    def test_answers_every_state_of_a_level(self):
        # standings are keyed as rounded to 9 decimals; a state with no
        # entry spends proportionally
        spec = ContestSpec([1, 2, 1], [60, 30])
        strategy = Tabular(player=1)
        strategy.record(2, (1.0, 0.0), (45.0, 22.5), 4.0)
        standings = np.array([[1.0, 0.0], [1.0 + 1e-12, 0.0], [0.0, 1.0]])
        budgets = np.array([[45.0, 22.5]] * 3)
        spends = strategy.spends(spec, 1, standings, budgets, 1)
        assert spends.tolist() == [4.0, 4.0, 22.5 * (2 / 3)]

    def test_missing_key_falls_back_to_proportional(self):
        spec = ContestSpec([1, 1, 1], [60, 60])
        profile = StrategyProfile((Tabular(player=0), PROPORTIONAL))
        assert allocations_at(profile, spec, History())[0] == pytest.approx(20.0)


class TestHistoryFromWinners:
    def test_spends_follow_the_profile(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100])
        h = history_from_winners(spec, (0, 1))
        assert h.records[0].allocations == pytest.approx((40.0, 40.0))
        assert h.records[1].allocations == pytest.approx((20.0, 20.0))
        assert h.winner_schedule() == (0, 1)

    def test_reach_probability_multiplies_stage_odds(self):
        spec = ContestSpec([1, 1], [75, 25])
        h = history_from_winners(spec, (0, 0))
        assert reach_probability(spec, h) == pytest.approx(0.75 * 0.75)

    def test_cannot_extend_past_the_end(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        with pytest.raises(InputError):
            history_from_winners(spec, (0, 0, 0))  # contest over after two
