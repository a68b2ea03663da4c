"""Contest primitives: success function, budgets, terminal rules, histories."""

import random
from fractions import Fraction

import numpy as np
import pytest

from dynblotto import (
    BattleRecord,
    ContestSpec,
    ContractError,
    CsfParams,
    History,
    InfeasibleHistoryError,
    InputError,
    Objective,
    SamplingPlan,
    allocations_at,
    best_response,
    check_history,
    check_proportionality,
    csf_probability,
    deviation_gains,
    deviation_grid,
    expected_payoffs,
    history_from_winners,
    is_guaranteed_loser,
    proportional_allocation,
    proportional_profile,
    reach_probability,
    remaining_budget,
    stage_equilibrium,
    terminal_payoff,
    terminal_status,
    validate_spec,
)
from dynblotto import core
from dynblotto.core import (
    _csf_distributions,
    _hashed_rows,
    _hopeless,
    _remaining_budgets,
    _state,
    _statuses,
    _top,
    _top_two,
    _winner_counts,
)
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

    @pytest.mark.parametrize("bad", [True, False, "1", None])
    def test_a_field_that_is_no_real_number_is_named(self, bad):
        # a string once read as its number and a boolean as 0 or 1
        cases = [
            (lambda: ContestSpec([1, bad, 1], [100, 100]), r"values\[1\]"),
            (lambda: ContestSpec([1, 1, 1], [bad, 100]), r"budgets\[0\]"),
            (lambda: ContestSpec([1, 1], [100, 100], shocks={(1, 2): bad}),
             r"shock amount of \(1, 2\)"),
            (lambda: CsfParams(alpha=bad), "csf alpha"),
            (lambda: CsfParams(1.0, bad), "csf beta"),
        ]
        for build, field in cases:
            with pytest.raises(InputError, match=f"^{field} must be a "):
                build()

    def test_numpy_and_fraction_numbers_are_real(self):
        spec = ContestSpec(np.array([1, 2, 1.5]), [np.int64(3), Fraction(1, 2)],
                           CsfParams(np.float64(0.5), np.int32(2)), shocks={(0, 1): np.float32(1)})
        assert spec.values == (1.0, 2.0, 1.5) and spec.budgets == (3.0, 0.5)
        assert spec.shock_map() == {(0, 1): 1.0}

    @pytest.mark.parametrize("objective", ["foo", None, 1, "WIN_PROBABILITY"])
    def test_an_unknown_objective_names_the_valid_ones(self, objective):
        with pytest.raises(InputError, match="^objective must be one of expected_value, "
                                             "win_probability, got "):
            ContestSpec([1, 1], [100, 100], objective=objective)
        assert ContestSpec([1, 1], [1, 1], objective="win_probability").objective is WP

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

    @pytest.mark.parametrize("spends", [("1", True), (True, 2.0), (1.0, None)])
    def test_a_spend_that_is_no_real_number_is_refused(self, spends):
        # ("1", True) was read as (1.0, 1.0), and None ended in a TypeError
        with pytest.raises(InputError, match=r"^allocations must be nonnegative reals, got "):
            csf_probability(spends, CsfParams(), 0)
        assert csf_probability((np.float64(1.0), Fraction(3)), CsfParams(), 0) == 0.25

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


def infeasible(*battles) -> History:
    history = History()
    for allocations, winner in battles:
        history = history.extend(allocations, winner)
    return history


EVEN = ((1.0, 1.0), 0)

# Each kind of infeasible history of ContestSpec([1, 1, 1], [10, 20]), and
# the message every reader refuses it with.
INFEASIBLE = {
    "too-long": (infeasible(EVEN, EVEN, EVEN, EVEN), "history longer than the contest"),
    "three-players": (infeasible(((1.0, 1.0, 1.0), 0)), "history has 3 players, the contest 2"),
    "mixed-counts": (infeasible(EVEN, ((1.0, 1.0, 1.0), 1)),
                     "battle 2: expected 2 allocations, got 3"),
    "winner-minus-1": (infeasible(((1.0, 1.0), -1)), "battle 1: winner -1 out of range"),
    "winner-2": (infeasible(((1.0, 3.0), 0), ((1.0, 3.0), 2)), "battle 2: winner 2 out of range"),
    "winner-5": (infeasible(((1.0, 1.0), 5)), "battle 1: winner 5 out of range"),
    "nan-spend": (infeasible(((np.nan, 1.0), 0)), "battle 1: bad allocation nan for player 0"),
    "overspent": (infeasible(((500, 0), 0)),
                  "battle 1: player 0 spent 500.0, over the budget 10.0"),
    # A has clinched after two battles under win probability only
    "after-the-end": (infeasible(EVEN, EVEN, ((1.0, 1.0), 1)),
                      "battle 3 fought after the contest ended"),
}

# Every public function that reads a History in a contest.
READERS = {
    "terminal_status": lambda spec, h: terminal_status(spec, h),
    "remaining_budget": lambda spec, h: remaining_budget(spec, h, 0),
    "terminal_payoff": lambda spec, h: terminal_payoff(spec, h),
    "check_history": lambda spec, h: check_history(spec, h),
    "History.won_values": lambda spec, h: h.won_values(spec),
    "allocations_at": lambda spec, h: allocations_at(proportional_profile(2), spec, h),
    "proportional_allocation": lambda spec, h: proportional_allocation(spec, h, 0),
    "reach_probability": lambda spec, h: reach_probability(spec, h),
    "expected_payoffs": lambda spec, h: expected_payoffs(proportional_profile(2), spec, h),
    "deviation_grid": lambda spec, h: deviation_grid(spec, h, 0),
    "deviation_gains": lambda spec, h: deviation_gains(spec, h, 0, [0.0]),
    "check_proportionality": lambda spec, h: check_proportionality(
        spec, SamplingPlan(histories=(h,))),
}
WIN_PROBABILITY_READERS = {
    "is_guaranteed_loser": lambda spec, h: is_guaranteed_loser(spec, h, 0),
    "best_response": lambda spec, h: best_response(spec, h, 1, 1.0),
    "stage_equilibrium": lambda spec, h: stage_equilibrium(spec, h),
}


class TestHistoriesThePublicRulesRefuse:
    @pytest.mark.parametrize("kind", list(INFEASIBLE))
    @pytest.mark.parametrize("objective", list(Objective), ids=["ev", "wp"])
    def test_every_reader_refuses_every_infeasible_kind(self, objective, kind):
        # A NaN spend gave allocations (nan, 9.5) and a reach of nan, an
        # overspent history a terminal status, budgets and allocations, and
        # a battle after the end a payoff of (1.0, 0.0); a history longer
        # than the contest ended won_values in an IndexError.
        history, message = INFEASIBLE[kind]
        spec = ContestSpec([1, 1, 1], [10, 20], objective=objective)
        readers = dict(READERS)
        if objective is WP:
            readers.update(WIN_PROBABILITY_READERS)
        elif kind == "after-the-end":  # an expected-value contest runs every battle
            check_history(spec, history)
            return
        answers = {}
        for name, read in readers.items():
            try:
                answers[name] = read(spec, history)
            except InfeasibleHistoryError as error:
                if str(error) != message:
                    answers[name] = str(error)
        assert answers == {}

    def test_an_extended_history_checks_its_last_battle_from_its_parents_state(self):
        spec = ContestSpec([1, 1, 1], [10, 20], objective=WP)
        parent = history_from_winners(spec, (0, 1))
        assert not terminal_status(spec, parent).terminal
        child = parent.extend((8.0, 0.0), 0)
        assert child._parent_state[0] is spec
        with pytest.raises(InfeasibleHistoryError,
                           match=r"^battle 3: player 0 spent 8\.0, over the budget 3\.3333"):
            terminal_status(spec, child)
        # the parent's state is kept for one spec object; another spec
        # walks from the first battle
        smaller = ContestSpec([1, 1, 1], [1, 20], objective=WP)
        with pytest.raises(InfeasibleHistoryError, match=r"^battle 1: player 0 spent 3\.33"):
            terminal_status(smaller, parent.extend((0.0, 0.0), 0))

    def test_a_contest_below_unit_scale_takes_its_scale_times_the_slack(self):
        # the slack is core.BUDGET_TOLERANCE times the scale, the largest
        # budget plus that player's positive shocks, when that is below 1:
        # here 3e-21, so a spend of 500 times player 0's budget is refused
        spec = ContestSpec([1, 2, 1], [1e-12, 3e-12])
        with pytest.raises(InfeasibleHistoryError,
                           match=r"^battle 1: player 0 spent 5e-10, over the budget 1e-12$"):
            check_history(spec, History().extend((5e-10, 1e-12), 0))
        check_history(spec, History().extend((1e-12 + 2e-21, 3e-12), 0))
        with pytest.raises(InputError, match=r"^opponents_allocation 1\.1e-11 lies outside"):
            best_response(ContestSpec([1, 2, 1], [1e-12, 3e-12], objective=WP), History(), 0,
                          1.1e-11)
        shocked = ContestSpec([1, 1], [1e-12, 3e-12], shocks={(0, 2): 0.25, (1, 2): -1.0})
        assert shocked._slack == core.BUDGET_TOLERANCE * (1e-12 + 0.25)
        assert ContestSpec([1, 1], [0.5, 1.0])._slack == core.BUDGET_TOLERANCE == 1e-9
        assert ContestSpec([1, 1], [0.0, 0.0])._slack == 0.0

    @pytest.mark.parametrize("objective", list(Objective), ids=["ev", "wp"])
    def test_an_extended_history_has_the_state_of_a_fresh_walk(self, objective):
        rng = random.Random(3)
        for _ in range(20):
            spec = ContestSpec(random_battle_values(rng, 5), [rng.uniform(1, 50) for _ in range(3)],
                               objective=objective, shocks={(1, 3): rng.uniform(-5, 5)})
            history = History()
            while not terminal_status(spec, history).terminal:
                spends = [rng.uniform(0, remaining_budget(spec, history, i)) for i in range(3)]
                history = history.extend(spends, rng.randrange(3))
                fresh = History(history.records)
                for kept, walked in zip(_state(spec, history), _state(spec, fresh)):
                    if isinstance(kept, np.ndarray):
                        assert kept.tobytes() == walked.tobytes()
                assert terminal_status(spec, history) == terminal_status(spec, fresh)

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


def first_occurrence_rows(*arrays):
    """Reference for `core._hashed_rows`: `np.unique` on void rows, its groups
    put in order of first occurrence."""
    rows = np.column_stack(arrays)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


def planted_rows(rng, count, n, generic):
    """(key, standings, spent) with a third of the rows copied over others;
    the non-generic ones take few values, 0.0 and -0.0 among them."""
    key = rng.integers(0, 4, count)
    if generic:
        standings, spent = rng.random((count, n)), rng.random((count, n))
    else:
        standings = rng.choice([0.0, -0.0, 1.0, 2.5, 1e-300], size=(count, n))
        spent = rng.choice([0.0, -0.0, 3.0, 7.25], size=(count, n))
    copies, into = rng.integers(0, count, (2, count // 3))
    key[into], standings[into], spent[into] = key[copies], standings[copies], spent[copies]
    return key, standings, spent


class TestRowKernels:
    """The hash merge and the column-wise reductions against the forms they replace."""

    @pytest.fixture
    def byte_sorts(self, monkeypatch):
        """A list that grows by one each time the byte sort is called."""
        calls, byte_rows = [], core._distinct_rows
        monkeypatch.setattr(core, "_distinct_rows", lambda *a: calls.append(1) or byte_rows(*a))
        return calls

    @pytest.mark.parametrize("least", [0, core.HASH_MIN_ROWS], ids=["hash-always", "default"])
    @pytest.mark.parametrize("generic", [True, False], ids=["generic", "few-values"])
    def test_the_hash_merge_is_the_byte_merge_in_first_occurrence_order(
            self, monkeypatch, byte_sorts, generic, least):
        monkeypatch.setattr(core, "HASH_MIN_ROWS", least)
        rng = np.random.default_rng(23)
        counts = (1, 2, 7, 300, 5000)
        for count in counts:
            for n in (2, 3, 5):
                arrays = planted_rows(rng, count, n, generic)
                first, group = _hashed_rows(*arrays)
                want_first, want_group = first_occurrence_rows(*arrays)
                assert np.array_equal(first, want_first) and np.array_equal(group, want_group)
        # no collision: the hash grouped every level of HASH_MIN_ROWS rows or more
        assert len(byte_sorts) == 3 * sum(count < least for count in counts)

    @pytest.mark.parametrize("least", [0, core.HASH_MIN_ROWS], ids=["hash-always", "default"])
    def test_zero_and_negative_zero_stay_apart(self, monkeypatch, least):
        monkeypatch.setattr(core, "HASH_MIN_ROWS", least)
        spent = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        first, group = _hashed_rows(np.zeros(3, int), spent)
        assert first.tolist() == [0, 1] and group.tolist() == [0, 1, 0]

    def test_a_hash_collision_falls_back_to_the_byte_sort(self, monkeypatch, byte_sorts):
        monkeypatch.setattr(core, "_HASH_MULTIPLIER", np.uint64(0))  # every row hashes to 0
        for generic in (True, False):
            arrays = planted_rows(np.random.default_rng(24), 300, 3, generic)
            first, group = _hashed_rows(*arrays)
            want_first, want_group = first_occurrence_rows(*arrays)
            assert np.array_equal(first, want_first) and np.array_equal(group, want_group)
        assert byte_sorts == [1, 1]

    def test_column_reductions_equal_the_axis_forms(self):
        rng = np.random.default_rng(25)
        tied = 0
        for n in range(2, 7):
            for count in (1, 2, 500):
                standings = rng.integers(0, 4, size=(count, n)).astype(float)
                top, second = _top_two(standings)
                assert np.array_equal(_top(standings), np.maximum.reduce(standings, axis=1))
                assert np.array_equal(top, np.maximum.reduce(standings, axis=1))
                assert np.array_equal(second, np.sort(standings, axis=1)[:, -2])
                winners = standings == top[:, None]
                assert np.array_equal(_winner_counts(winners), winners.sum(axis=1))
                tied += np.count_nonzero(top == second)
        assert tied > 0


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

    @pytest.mark.parametrize("bad", [True, "30", None])
    def test_an_allocation_that_is_no_real_number_is_named(self, bad):
        # a string was read as its number and a boolean as 0 or 1
        with pytest.raises(InputError, match=r"^allocation 0 must be a real number, got "):
            History().extend((bad, 20), 0)
        with pytest.raises(InputError, match=r"^allocation 1 must be a real number, got "):
            History().extend((30.0, 20.0), 0).extend((1.0, bad), 1)
        h = History().extend((np.float64(30), Fraction(1, 2)), 0)
        assert h.records[0].allocations == (30.0, 0.5)


    @pytest.mark.parametrize("big", [10**400, -10**400, Fraction(10**400, 3), float("inf")],
                             ids=["integer", "negative-integer", "fraction", "inf"])
    def test_a_number_beyond_the_float_range_is_named(self, big):
        # an integer too large for a float ended in a bare OverflowError
        with pytest.raises(InputError, match=r"^allocation 0 must lie within the float range"):
            History().extend((big, 1), 0)
        for build, field in (
            (lambda: ContestSpec([big, 1, 1], [10, 20]), r"values\[0\]"),
            (lambda: ContestSpec([1, 1, 1], [10, big]), r"budgets\[1\]"),
            (lambda: ContestSpec([1, 1, 1], [10, 20], shocks={(0, 1): big}),
             r"shock amount of \(0, 1\)"),
        ):
            with pytest.raises(InputError, match=f"^{field} must be a finite real number, got "):
                build()
        # nan is a float: a History holds it, and its readers refuse it
        assert History().extend((float("nan"), 1), 0).records[0].allocations[1] == 1.0

    def test_every_record_is_checked_when_it_is_made(self):
        # a History built from records once reached its readers unchecked: a
        # string spend raised TypeError there, and a winner of 0.5 an IndexError
        spec = ContestSpec([1, 1, 1], [10, 20])
        with pytest.raises(InputError, match=r"^allocation 0 must be a real number, got '1'"):
            terminal_status(spec, History((BattleRecord(("1", 2.0), 0),)))
        with pytest.raises(InputError, match=r"^winner must be an integer, got 0\.5"):
            terminal_status(spec, History((BattleRecord((1.0, 2.0), 0.5),)))
        record = BattleRecord([np.float32(1.5), Fraction(1, 2)], np.int64(1))
        assert (record.allocations, type(record.winner)) == ((1.5, 0.5), int)
        assert History((record,)) == History().extend((1.5, 0.5), 1)

    @pytest.mark.parametrize("bad", [True, "1", 1.7, None])
    def test_a_winner_that_is_no_integer_is_refused(self, bad):
        # 1.7 was read as 1, "1" as 1 and a boolean as 0 or 1
        with pytest.raises(InputError, match=r"^winner must be an integer, got "):
            History().extend((1.0, 1.0), bad)
        assert History().extend((1.0, 1.0), np.int64(1)).winner_schedule() == (1,)


def test_random_battle_values_refuses_too_few_battles():
    # with one or two battles no values avoid a dictatorial battle, so the
    # helper would draw forever
    rng = random.Random(0)
    for m in (0, 1, 2):
        with pytest.raises(ValueError, match="at least 3"):
            random_battle_values(rng, m)
    values = random_battle_values(rng, 3)
    assert all(v < sum(values) - v for v in values)
