"""Contest primitives: success function, budgets, terminal rules, histories."""

import random

import numpy as np
import pytest

from dynblotto import (
    ContestSpec,
    ContractError,
    CsfParams,
    History,
    InfeasibleHistoryError,
    InputError,
    Objective,
    allocations_at,
    check_history,
    csf_probability,
    history_from_winners,
    is_guaranteed_loser,
    proportional_profile,
    remaining_budget,
    terminal_payoff,
    terminal_status,
    validate_spec,
)
from dynblotto.core import _csf_distributions, _hopeless, _remaining_budgets, _statuses
from conftest import (
    random_battle_values,
    reference_budget,
    reference_csf,
    reference_hopeless,
    reference_status,
)

WP = Objective.WIN_PROBABILITY


class TestValidateSpec:
    def test_example_contest_is_valid(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100])
        assert validate_spec(spec) == []

    def test_dictatorial_battle_is_flagged(self):
        spec = ContestSpec([5, 1, 1], [100, 100])
        violations = validate_spec(spec)
        assert violations == ["dictatorial battle 1"]

    def test_negative_budget_is_flagged(self):
        spec = ContestSpec([1, 1, 1], [-1, 100])
        assert any("negative budget" in v for v in validate_spec(spec))

    def test_boundary_value_is_dictatorial(self):
        # a battle worth exactly the rest combined still violates the strict rule
        spec = ContestSpec([1, 1, 1, 3], [100, 100])
        assert validate_spec(spec) == ["dictatorial battle 4"]

    def test_violations_are_data_not_errors(self):
        spec = ContestSpec([5, 1, 1], [100, 100])  # constructs fine
        assert spec.m == 3

    def test_structural_problems_raise(self):
        with pytest.raises(InputError):
            ContestSpec([1, 1], [100])  # one player
        with pytest.raises(InputError):
            ContestSpec([], [100, 100])  # no battles
        with pytest.raises(InputError):
            ContestSpec([1, 1], [100, 100], shocks={(5, 1): 1.0})

    @pytest.mark.parametrize("shocks", [
        {(0.7, 1): 2.0}, {(0, 1.9): 2.0}, {(True, 1): 2.0}, {(0, False): 2.0},
        {(0, "1"): 2.0}, [((0.0, 1), 2.0)],
    ])
    def test_shock_indices_must_be_integers(self, shocks):
        with pytest.raises(InputError, match="shock .* indices must be integers"):
            ContestSpec([1, 1], [100, 100], shocks=shocks)

    def test_a_shock_key_must_not_repeat(self):
        with pytest.raises(InputError, match=r"shock key \(0, 1\) repeats"):
            ContestSpec([1, 1], [100, 100], shocks=[((0, 1), 2.0), ((0, 1), 3.0)])
        with pytest.raises(InputError, match=r"shock key \(1, 2\) repeats"):
            ContestSpec([1, 1], [100, 100], shocks=[((1, 2), 2.0), ((np.int64(1), 2), 2.0)])
        spec = ContestSpec([1, 1], [100, 100], shocks=[((np.int64(0), 1), 2.0), ((1, 1), 3.0)])
        assert spec.shock_map() == {(0, 1): 2.0, (1, 1): 3.0}

    def test_budgets_whose_scores_overflow_raise(self):
        # the largest spends' success-function scores must add up to a float
        ContestSpec([1, 1], [1e150, 1e150], CsfParams(2.0))
        with pytest.raises(InputError, match="scores overflow"):
            ContestSpec([1, 1], [1e200, 1.0], CsfParams(2.0))
        with pytest.raises(InputError, match="scores overflow"):
            ContestSpec([1, 1], [1.0, 1.0], CsfParams(2.0), shocks={(1, 2): 1e200})
        with pytest.raises(InputError, match="scores overflow"):
            ContestSpec([1, 1], [1e308, 1e308])


class TestCsfProbability:
    def test_nobody_spends_splits_uniformly(self):
        assert csf_probability((0, 0, 0), CsfParams(2.0, 7.0), 0) == pytest.approx(1 / 3)

    def test_equal_spends_split_evenly(self):
        assert csf_probability((50, 50), CsfParams(), 0) == pytest.approx(0.5)

    def test_exponent_two_scale_five(self):
        # beta cancels; 1 / (1 + 4)
        assert csf_probability((1, 2), CsfParams(2.0, 5.0), 0) == pytest.approx(0.2)

    def test_probabilities_sum_to_one(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.choice([2, 3, 4, 5])
            w = [rng.uniform(0, 10) if rng.random() > 0.2 else 0.0 for _ in range(n)]
            params = CsfParams(rng.uniform(0.3, 3.0), rng.uniform(0.1, 9.0))
            total = sum(csf_probability(w, params, i) for i in range(n))
            assert abs(total - 1.0) <= 1e-12

    def test_invariant_to_beta_and_common_scaling(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.choice([2, 3, 4])
            w = [rng.uniform(0.01, 10) for _ in range(n)]
            alpha = rng.uniform(0.3, 3.0)
            c = rng.uniform(0.01, 50.0)
            base = csf_probability(w, CsfParams(alpha, 1.0), 0)
            rescaled = csf_probability([c * x for x in w], CsfParams(alpha, 7.5), 0)
            assert rescaled == pytest.approx(base, abs=1e-12)

    def test_scores_that_underflow_count_as_zero(self):
        # 1e-200 ** 2 underflows to 0: an even split when every score does,
        # and no chance beside a score that does not
        assert csf_probability((1e-200, 1e-200), CsfParams(2.0), 0) == 0.5
        assert [csf_probability((1e-200, 0.0, 1e-300), CsfParams(3.0), i)
                for i in range(3)] == [1 / 3] * 3
        assert csf_probability((1e-200, 1e-100), CsfParams(2.0), 1) == 1.0

    def test_bad_inputs_raise(self):
        with pytest.raises(InputError):
            csf_probability((-1.0, 2.0), CsfParams(), 0)
        with pytest.raises(InputError):
            csf_probability((float("nan"), 2.0), CsfParams(), 0)
        with pytest.raises(InputError):
            csf_probability((1.0, 2.0), CsfParams(), 5)

    def test_bad_params_raise(self):
        with pytest.raises(InputError):
            CsfParams(0.0, 1.0)
        with pytest.raises(InputError):
            CsfParams(1.0, -2.0)


class TestRemainingBudget:
    def test_fresh_contest(self):
        spec = ContestSpec([1, 1, 1], [100, 100])
        assert remaining_budget(spec, History(), 0) == 100.0

    def test_after_equal_first_battle(self):
        spec = ContestSpec([1, 1, 1], [100, 100], objective=WP)
        h = History().extend((100 / 3, 100 / 3), 0)
        assert remaining_budget(spec, h, 0) == pytest.approx(200 / 3)
        assert remaining_budget(spec, h, 1) == pytest.approx(200 / 3)

    def test_negative_shock_clamps_at_zero(self):
        spec = ContestSpec([1, 1], [10, 10], shocks={(0, 2): -5.0})
        h = History().extend((10.0, 3.0), 0)
        assert remaining_budget(spec, h, 0) == 0.0

    def test_upcoming_shock_included_later_excluded(self):
        spec = ContestSpec([1, 1, 1], [10, 10], shocks={(0, 2): 4.0, (0, 3): 100.0})
        h = History().extend((2.0, 2.0), 0)
        # after battle 1: 10 + 4 - 2, the battle-3 shock invisible
        assert remaining_budget(spec, h, 0) == pytest.approx(12.0)

    def test_positive_shock_can_recover_a_negative_ledger(self):
        spec = ContestSpec([1, 1, 1], [10, 10], shocks={(0, 2): -5.0, (0, 3): 9.0})
        h = History().extend((10.0, 1.0), 0)
        assert remaining_budget(spec, h, 0) == 0.0
        h2 = h.extend((0.0, 1.0), 1)
        assert remaining_budget(spec, h2, 0) == pytest.approx(4.0)

    def test_guaranteed_loser_reads_zero(self):
        spec = ContestSpec([3, 3, 1, 1], [90, 90, 90], objective=WP)
        h = history_from_winners(spec, (0, 1))
        assert remaining_budget(spec, h, 2) == 0.0
        assert remaining_budget(spec, h, 1) > 0.0

    def test_terminal_history_reads_the_formal_budget(self):
        # the guaranteed-loser rule applies before the contest ends only
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        h = history_from_winners(spec, (0, 0))
        assert terminal_status(spec, h).terminal
        assert remaining_budget(spec, h, 1) == 100.0 - h.spent(1) > 0.0

    def test_nonincreasing_and_nonnegative(self):
        rng = random.Random(13)
        spec = ContestSpec([1, 2, 1, 1], [30, 70])
        h = History()
        previous = [remaining_budget(spec, h, i) for i in range(2)]
        for _ in range(4):
            spend = [rng.uniform(0, remaining_budget(spec, h, i) / 2) for i in range(2)]
            h = h.extend(spend, rng.randrange(2))
            current = [remaining_budget(spec, h, i) for i in range(2)]
            for before, after in zip(previous, current):
                assert 0.0 <= after <= before + 1e-12
            previous = current


class TestHistoriesThePublicRulesRefuse:
    @pytest.mark.parametrize("objective", list(Objective), ids=["ev", "wp"])
    def test_a_history_longer_than_the_contest(self, objective):
        spec = ContestSpec([1, 2, 1.5], [40, 60], objective=objective)
        long = History()
        for winner in (0, 1, 1, 0):
            long = long.extend((1.0, 1.0), winner)
        rules = [lambda: remaining_budget(spec, long, 0), lambda: terminal_status(spec, long),
                 lambda: terminal_payoff(spec, long),
                 lambda: allocations_at(proportional_profile(2), spec, long)]
        if objective is WP:
            rules.append(lambda: is_guaranteed_loser(spec, long, 0))
        for rule in rules:
            with pytest.raises(InfeasibleHistoryError, match="longer than the contest"):
                rule()

    def test_a_history_of_another_player_count(self):
        spec = ContestSpec([1, 2, 1.5], [40, 60])
        with pytest.raises(InfeasibleHistoryError, match="3 players"):
            remaining_budget(spec, History().extend((1.0, 1.0, 1.0), 0), 0)

    def test_guaranteed_loser_player_out_of_range(self):
        spec = ContestSpec([3, 3, 1, 1], [90, 90, 90], objective=WP)
        h = history_from_winners(spec, (0, 1))
        for player in (-1, 3):
            with pytest.raises(InputError, match="out of range"):
                is_guaranteed_loser(spec, h, player)


class TestTerminalStatus:
    def test_big_early_lead_ends_the_contest(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        h = history_from_winners(spec, (0, 0))
        status = terminal_status(spec, h)
        assert status.terminal and status.winners == (0,)

    def test_split_continues_to_the_last_battle(self):
        spec = ContestSpec([1, 1, 1], [100, 100], objective=WP)
        h = history_from_winners(spec, (0, 1))
        assert not terminal_status(spec, h).terminal

    def test_full_length_history_is_terminal(self):
        spec = ContestSpec([1, 1, 1], [100, 100])
        h = history_from_winners(spec, (0, 1, 0))
        assert terminal_status(spec, h).terminal

    def test_lead_equal_to_remaining_value_does_not_clinch(self):
        spec = ContestSpec([1, 1, 1, 3], [100, 100], objective=WP)
        h = history_from_winners(spec, (0, 0, 0))  # lead 3, remaining 3
        assert not terminal_status(spec, h).terminal

    def test_expected_value_never_ends_early(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100])
        h = history_from_winners(spec, (0, 0))
        assert not terminal_status(spec, h).terminal


class TestArrayRulesAgainstTheDefinitions:
    """Every array rule of `core`, row by row, against its rule for one state."""

    @pytest.mark.parametrize("objective", list(Objective), ids=["ev", "wp"])
    def test_statuses(self, objective):
        # integer standings up to the total value, so ties and leads equal
        # to the value left occur
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            spec = ContestSpec([1, 2, 1, 3, 1], [100.0] * n, objective=objective)
            for played in range(spec.m + 1):
                standings = rng.integers(0, 9, size=(300, n)).astype(float)
                status = _statuses(spec, played, standings)
                if status is None:  # no state has ended
                    status = np.zeros(300, bool), np.zeros((300, n), bool)
                else:
                    assert status[0].any()
                ended, winners = status
                assert ended.shape == (300,) and winners.shape == (300, n)
                for row, done, won in zip(standings.tolist(), ended, winners):
                    terminal, who = reference_status(spec, played, row)
                    assert done == terminal, (played, row)
                    if terminal:
                        assert won.tolist() == [i in who for i in range(n)]
                    else:
                        assert not won.any()

    @pytest.mark.parametrize("objective", list(Objective), ids=["ev", "wp"])
    def test_hopeless_and_remaining_budgets(self, objective):
        # with shocks, after the last battle, and at clinched rows too,
        # where the array rules read as at any other row
        rng = np.random.default_rng(18)
        clinched = 0
        for n in (2, 3, 4):
            shocks = {(0, 1): 5.0, (1, 3): -60.0, (n - 1, 5): 7.5, (0, 4): 2.25}
            spec = ContestSpec([1, 2, 1, 3, 1], [30.0, 50.0, 20.0, 40.0][:n], objective=objective,
                               shocks=shocks)
            for played in range(spec.m + 1):
                standings = rng.integers(0, 9, size=(200, n)).astype(float)
                spent = rng.choice([0.0, 12.5, 35.0, 70.0], size=(200, n))
                hopeless = _hopeless(spec, played, standings)
                budgets = _remaining_budgets(spec, played, standings, spent)
                for r, (row, spends) in enumerate(zip(standings.tolist(), spent.tolist())):
                    clinched += played < spec.m and reference_status(spec, played, row)[0]
                    for i in range(n):
                        assert hopeless[r, i] == reference_hopeless(spec, played, row, i)
                        assert budgets[r, i] == reference_budget(spec, played, row, spends, i)
        assert clinched > 0 or objective is Objective.EXPECTED_VALUE

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_csf_distributions(self, alpha):
        # numpy's power may differ from Python's in the last bit, so alpha
        # != 1 agrees to a few units in the last place
        rng = np.random.default_rng(19)
        for n in (2, 3, 4):
            spends = rng.choice([0.0, 1e-200, 0.5, 3.0, 47.25], size=(300, n))
            spends[:10] = 0.0  # nobody spends: an even split
            probs = _csf_distributions(spends, CsfParams(alpha))
            for row, got in zip(spends.tolist(), probs.tolist()):
                want = reference_csf(row, CsfParams(alpha))
                if alpha == 1.0:
                    assert got == want, row
                else:
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0), row


class TestTerminalPayoff:
    def test_tied_full_contest_splits_the_prize(self):
        spec = ContestSpec([1, 1, 1, 1], [100, 100], objective=WP)
        h = history_from_winners(spec, (0, 1, 0, 1))
        assert terminal_payoff(spec, h) == (0.5, 0.5)

    def test_expected_value_payoffs_are_won_values(self):
        spec = ContestSpec([1, 1, 1], [100, 100])
        h = history_from_winners(spec, (0, 1, 1))
        assert terminal_payoff(spec, h) == (1.0, 2.0)

    def test_sweep_takes_everything(self):
        spec = ContestSpec([2, 1, 1], [60, 60, 60])
        h = history_from_winners(spec, (0, 0, 0))
        assert terminal_payoff(spec, h) == (4.0, 0.0, 0.0)

    def test_nonterminal_history_raises(self):
        spec = ContestSpec([1, 1, 1], [100, 100])
        with pytest.raises(ContractError):
            terminal_payoff(spec, history_from_winners(spec, (0,)))

    def test_payoff_components_sum_correctly(self):
        rng = random.Random(14)
        for _ in range(50):
            n = rng.choice([2, 3])
            m = rng.choice([2, 3, 4])
            objective = rng.choice([Objective.EXPECTED_VALUE, WP])
            values = [rng.uniform(0.5, 3.0) for _ in range(m)]
            spec = ContestSpec(values, [rng.uniform(1, 50) for _ in range(n)], objective=objective)
            h = History()
            while not terminal_status(spec, h).terminal:
                spends = [remaining_budget(spec, h, i) / (spec.m - len(h)) for i in range(n)]
                h = h.extend(spends, rng.randrange(n))
            total = sum(terminal_payoff(spec, h))
            expected = 1.0 if objective is WP else sum(values)
            assert abs(total - expected) <= 1e-12


class TestGuaranteedLoser:
    def test_tie_reachable_is_not_losing(self):
        spec = ContestSpec([1, 1, 1, 3], [100, 100], objective=WP)
        h = history_from_winners(spec, (0, 0, 0))
        assert not is_guaranteed_loser(spec, h, 1)

    def test_chaser_with_enough_left_is_not_losing(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        h = history_from_winners(spec, (0,))
        assert not is_guaranteed_loser(spec, h, 1)

    def test_third_player_out_of_reach(self):
        # leaders split the two big battles; the third player cannot even tie
        spec = ContestSpec([3, 3, 1, 1], [90, 90, 90], objective=WP)
        h = history_from_winners(spec, (0, 1))
        assert is_guaranteed_loser(spec, h, 2)
        assert not is_guaranteed_loser(spec, h, 0)
        # oracle: no continuation puts player 2 among the leaders
        for w3 in range(3):
            for w4 in range(3):
                totals = [3.0, 3.0, 0.0]
                totals[w3] += 1.0
                totals[w4] += 1.0
                assert totals[2] < max(totals[0], totals[1])

    def test_expected_value_objective_rejected(self):
        spec = ContestSpec([1, 1], [10, 10])
        with pytest.raises(ContractError):
            is_guaranteed_loser(spec, History(), 0)


class TestCheckHistory:
    def test_feasible_history_passes(self):
        spec = ContestSpec([1, 1, 1], [100, 100])
        check_history(spec, history_from_winners(spec, (0, 1)))

    def test_overspending_is_infeasible(self):
        spec = ContestSpec([1, 1], [10, 10])
        h = History().extend((10.5, 2.0), 0)
        with pytest.raises(InfeasibleHistoryError):
            check_history(spec, h)

    def test_tiny_float_slack_is_tolerated(self):
        spec = ContestSpec([1, 1], [10, 10])
        h = History().extend((10.0 + 1e-12, 2.0), 0)
        check_history(spec, h)

    def test_battle_after_the_contest_ended(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        h = history_from_winners(spec, (0, 0))
        bad = h.extend((1.0, 1.0), 1)
        with pytest.raises(InfeasibleHistoryError):
            check_history(spec, bad)

    def test_winner_out_of_range(self):
        spec = ContestSpec([1, 1], [10, 10])
        with pytest.raises(InfeasibleHistoryError):
            check_history(spec, History().extend((1.0, 1.0), 7))

    def test_too_long_history(self):
        spec = ContestSpec([1], [10, 10])
        h = History().extend((1.0, 1.0), 0).extend((1.0, 1.0), 1)
        with pytest.raises(InfeasibleHistoryError):
            check_history(spec, h)


class TestHistory:
    def test_winner_schedule_and_spent(self):
        h = History().extend((3.0, 4.0), 1).extend((1.0, 0.5), 0)
        assert h.winner_schedule() == (1, 0)
        assert h.spent(0) == pytest.approx(4.0)
        assert h.spent(1) == pytest.approx(4.5)

    def test_won_values(self):
        spec = ContestSpec([2, 1], [10, 10])
        h = history_from_winners(spec, (1, 1))
        assert h.won_values(spec) == (0.0, 3.0)

    def test_histories_compare_by_records(self):
        a = History().extend((1.0, 2.0), 0)
        b = History().extend((1.0, 2.0), 0)
        assert a == b and hash(a) == hash(b)
        assert a != b.extend((0.5, 0.5), 1)


def test_random_battle_values_refuses_too_few_battles():
    # with one or two battles no values avoid a dictatorial battle, so the
    # helper would draw forever
    rng = random.Random(0)
    for m in (0, 1, 2):
        with pytest.raises(ValueError, match="at least 3"):
            random_battle_values(rng, m)
    values = random_battle_values(rng, 3)
    assert all(v < sum(values) - v for v in values)
