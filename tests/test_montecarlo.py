"""Seeded simulation: determinism and agreement with exact evaluation."""

import itertools
import logging
import math
import random
import time
import tracemalloc

import numpy
import pytest

from dynblotto import (
    ContestSpec,
    CsfParams,
    History,
    InputError,
    Objective,
    PROPORTIONAL,
    Proportional,
    StrategyProfile,
    Tabular,
    expected_payoffs,
    history_from_winners,
    one_shot_deviation,
    proportional_profile,
    simulate,
    solve_backward,
)
from dynblotto import montecarlo
from conftest import chi_square_sf, random_table, terminal_distribution

WP = Objective.WIN_PROBABILITY
EV = Objective.EXPECTED_VALUE


def test_same_seed_same_result():
    spec = ContestSpec([1, 2, 3], [60, 40])
    profile = proportional_profile(2)
    first = simulate(profile, spec, seed=123, trials=5000)
    second = simulate(profile, spec, seed=123, trials=5000)
    assert first == second  # bit-identical, not just close


@pytest.mark.skipif(numpy.__version__ != "2.4.6",
                    reason="values drawn with numpy 2.4.6; NEP 19 does not promise that "
                           "Generator.binomial keeps its stream across numpy releases")
def test_the_stream_of_each_seed_is_pinned():
    # literal results, repr-exact, so a change in the order of the draws shows
    table = Tabular(player=1)
    table.record(1, (0.0, 0.0), (50.0, 50.0), 30.0)
    table.record(2, (1.0, 0.0), (50.0, 20.0), 20.0)
    table.record(2, (0.0, 1.0), (50.0, 20.0), 5.0)
    table.record(3, (1.0, 1.0), (40.0, 10.0), 10.0)
    runs = [
        (proportional_profile(2), ContestSpec([1, 2, 1.5, 1], [40, 60], CsfParams(0.5)), 11,
         (2.48905, 3.01095), (0.014263094101047414, 0.014263094101047414)),
        (proportional_profile(3), ContestSpec([1, 1, 2, 1, 1], [30, 50, 20], CsfParams(2.0), WP,
                                              {(0, 2): 10.0, (2, 4): -5.0}), 12,
         (0.31901666666666667, 0.6619666666666667, 0.019016666666666664),
         (0.004103767734501997, 0.004158200473068673, 0.0009112126857291007)),
        (StrategyProfile((PROPORTIONAL, table)), ContestSpec([1, 1, 1, 1], [50, 50], objective=WP),
         13, (0.65735, 0.34265), (0.003823357105471001, 0.003823357105471001)),
        (one_shot_deviation(proportional_profile(3), 1, History(), 7.5),
         ContestSpec([2, 1, 1, 2], [30, 40, 50]), 14, (1.5213, 1.9508, 2.5279),
         (0.01377728610290271, 0.014582153473338293, 0.01563606752546068)),
    ]
    for profile, spec, seed, means, std_errors in runs:
        result = simulate(profile, spec, seed, 10_000)
        assert (repr(result.means), repr(result.std_errors)) == (repr(means), repr(std_errors))


def test_different_seeds_differ():
    spec = ContestSpec([1, 2, 3], [60, 40])
    profile = proportional_profile(2)
    assert simulate(profile, spec, 1, 2000).means != simulate(profile, spec, 2, 2000).means


def test_symmetric_contest_estimates_a_half():
    spec = ContestSpec([1, 1, 1], [100, 100], objective=WP)
    result = simulate(proportional_profile(2), spec, seed=7, trials=100_000)
    assert abs(result.means[0] - 0.5) <= 3 * result.std_errors[0]
    assert result.means[0] + result.means[1] == pytest.approx(1.0)


def test_estimates_track_the_exact_evaluator():
    spec = ContestSpec([1, 2, 3], [60, 40])
    profile = proportional_profile(2)
    exact = expected_payoffs(profile, spec)
    result = simulate(profile, spec, seed=11, trials=100_000)
    for i in range(2):
        assert abs(result.means[i] - exact[i]) <= 3 * result.std_errors[i]


def test_shocks_hit_simulation_and_evaluation_identically():
    spec = ContestSpec(
        [1, 1, 2], [30, 50], csf=CsfParams(0.5, 2.0), shocks={(0, 2): 15.0, (1, 3): -10.0}
    )
    profile = proportional_profile(2)
    exact = expected_payoffs(profile, spec)
    result = simulate(profile, spec, seed=13, trials=100_000)
    for i in range(2):
        assert abs(result.means[i] - exact[i]) <= 3 * result.std_errors[i]


def test_win_probability_means_stay_in_range():
    spec = ContestSpec([2, 1, 1, 1], [70, 30], objective=WP)
    result = simulate(proportional_profile(2), spec, seed=3, trials=20_000)
    assert all(0.0 <= mean <= 1.0 for mean in result.means)
    assert all(se >= 0.0 for se in result.std_errors)


def test_single_trial_has_no_spread():
    spec = ContestSpec([1, 1], [10, 10])
    result = simulate(proportional_profile(2), spec, seed=5, trials=1)
    assert result.std_errors == (0.0, 0.0)


def test_trials_must_be_positive():
    spec = ContestSpec([1, 1], [10, 10])
    with pytest.raises(InputError):
        simulate(proportional_profile(2), spec, seed=5, trials=0)


@pytest.mark.parametrize("trials", [2.5, "10"])
def test_trials_must_be_an_integer(trials):
    spec = ContestSpec([1, 1], [10, 10])
    with pytest.raises(InputError, match="trials must be an integer"):
        simulate(proportional_profile(2), spec, seed=5, trials=trials)


def test_trials_must_not_be_a_boolean():
    spec = ContestSpec([1, 1], [10, 10])
    with pytest.raises(InputError, match="trials must be an integer"):
        simulate(proportional_profile(2), spec, seed=5, trials=True)


def test_seed_must_be_nonnegative():
    spec = ContestSpec([1, 1], [10, 10])
    with pytest.raises(InputError, match="seed"):
        simulate(proportional_profile(2), spec, seed=-1, trials=5)


@pytest.mark.parametrize("seed", [1.5, "a", None])
def test_seed_must_be_an_integer(seed):
    spec = ContestSpec([1, 1], [10, 10])
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        simulate(proportional_profile(2), spec, seed=seed, trials=5)


def test_contests_longer_than_the_recursion_limit():
    # expected value: every trial plays all 1100 battles and banks each value once
    spec = ContestSpec([1.0] * 1100, [10, 10])
    result = simulate(proportional_profile(2), spec, seed=4, trials=3)
    assert sum(result.means) == pytest.approx(1100.0, abs=1e-9)


def assert_counts_follow_the_exact_distribution(profile, spec, seed, trials=100_000):
    """The banked terminal counts of `simulate` pass a chi-square test against
    the exact distribution of terminal states, at p >= 1e-6.

    A cell is a terminal state's final standings with its payoff vector:
    under win probability the standings tell apart terminals that pay the
    same, so a profile that plays the wrong spends below the root shows.
    Cells expected to hold fewer than 5 trials pool, smallest first, until
    the pool is expected to hold 5.  The counts add up to `trials`, every
    banked state is a reachable terminal with its payoff, and the reported
    means are the counts' weighted mean.
    """
    finals, payoffs, counts = montecarlo._terminal_counts(profile, spec, seed, trials)
    assert counts.sum() == trials and counts.min() > 0
    exact = terminal_distribution(profile, spec)
    observed = dict.fromkeys(exact, 0)
    rows = zip(map(tuple, finals.tolist()), map(tuple, payoffs.tolist()))
    for final, count in zip(rows, counts.tolist()):
        assert final in exact, (spec, final)
        observed[final] += count
    cells = sorted((trials * p, observed[final]) for final, p in exact.items())
    pool = [0.0, 0]
    while cells and (pool[0] < 5.0 or cells[0][0] < 5.0):
        expected, count = cells.pop(0)
        pool = [pool[0] + expected, pool[1] + count]
    cells.append(tuple(pool))
    if len(cells) > 1:
        statistic = sum((count - expected) ** 2 / expected for expected, count in cells)
        assert chi_square_sf(statistic, len(cells) - 1) >= 1e-6, (spec, seed, statistic)
    means = simulate(profile, spec, seed, trials).means
    for i in range(spec.n):
        weighted = math.fsum(c * p for c, p in zip(counts.tolist(), payoffs[:, i].tolist()))
        assert means[i] == pytest.approx(weighted / trials, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("statistic, dof, tail", [
    (3.841459, 1, 0.05), (5.991465, 2, 0.05), (15.08627, 5, 0.01), (18.30704, 10, 0.05),
    (59.70306, 30, 0.001),
])
def test_chi_square_tail_matches_the_tables(statistic, dof, tail):
    assert chi_square_sf(statistic, dof) == pytest.approx(tail, rel=1e-5)


class TestAgainstTheTerminalDistribution:
    """`simulate` reaches the terminal payoffs the contest reaches, as often as it does."""

    @pytest.mark.parametrize("objective", [EV, WP], ids=["ev", "wp"])
    @pytest.mark.parametrize("with_shocks", [False, True], ids=["no-shocks", "shocks"])
    def test_proportional_play_over_a_seeded_family(self, objective, with_shocks):
        # integer values, so win-probability ties and clinches occur; some budgets are 0
        rng = random.Random(f"simulate-family:{objective.value}:{with_shocks}")
        alphas = (0.5, 1.0, 2.0)
        for k, (n, m) in enumerate((n, m) for n in (2, 3, 4) for m in range(1, 9)):
            values = [float(rng.randint(1, 3)) for _ in range(m)]
            budgets = [rng.choice([0.0, rng.uniform(1.0, 100.0)]) for _ in range(n)]
            shocks = {}
            if with_shocks:
                for _ in range(rng.randint(1, n)):
                    shocks[(rng.randrange(n), rng.randint(1, m))] = rng.uniform(-30.0, 30.0)
            spec = ContestSpec(values, budgets, CsfParams(alphas[k % 3], rng.choice([1.0, 2.0])),
                               objective, shocks)
            assert_counts_follow_the_exact_distribution(
                proportional_profile(n), spec, rng.randrange(2**31))

    def test_tabular_profile(self):
        spec = ContestSpec([2, 1, 1, 1], [70, 50], objective=WP)
        profile = solve_backward(spec).profile
        for seed in (3, 4, 5, 6):
            assert_counts_follow_the_exact_distribution(profile, spec, seed)
        # The solved profile spends proportionally to within 1e-7, so a walk
        # that played it proportionally below the root would pass the above.
        # A table of other spends at every battle tells the two apart.
        rng = random.Random("simulate-tabular")
        for k, (objective, n, m) in enumerate(itertools.product((EV, WP), (2, 3), range(2, 6))):
            values = [float(rng.randint(1, 3)) for _ in range(m)]
            shocks = {}
            if k % 2:
                shocks[(rng.randrange(n), rng.randint(1, m))] = rng.uniform(-20.0, 20.0)
            spec = ContestSpec(values, [rng.uniform(10.0, 90.0) for _ in range(n)],
                               CsfParams((0.5, 1.0, 2.0)[k % 3]), objective, shocks)
            strategies = [Proportional()] * n
            strategies[k % n] = random_table(rng, spec, k % n)
            assert_counts_follow_the_exact_distribution(StrategyProfile(tuple(strategies)), spec, k)

    @pytest.mark.parametrize("objective", [EV, WP], ids=["ev", "wp"])
    def test_deviation_profiles(self, objective):
        # a deviation at the root plays there; one below it is refused
        spec = ContestSpec([1, 2, 1, 2, 1], [40, 55, 30], objective=objective)
        base = proportional_profile(3)
        at_root = one_shot_deviation(base, 1, History(), 3.0)
        assert_counts_follow_the_exact_distribution(at_root, spec, 9)
        below_root = one_shot_deviation(base, 2, history_from_winners(spec, [0]), 0.5)
        with pytest.raises(InputError, match="evaluate from its history"):
            simulate(below_root, spec, 9, 1000)


@pytest.mark.parametrize("objective", [EV, WP], ids=["ev", "wp"])
def test_proportional_play_builds_no_history(monkeypatch, objective):
    # nor does a table keyed by standings, nor a deviation at the root
    def refuse(*args):
        raise AssertionError("History.extend called")

    spec = ContestSpec([1, 2, 1, 1, 3], [50, 40, 30], objective=objective)
    tabular = StrategyProfile((PROPORTIONAL, random_table(random.Random(5), spec, 1), PROPORTIONAL))
    profiles = [proportional_profile(3), tabular, one_shot_deviation(tabular, 0, History(), 9.0)]
    expected = [simulate(profile, spec, 2, 5000) for profile in profiles]
    monkeypatch.setattr(History, "extend", refuse)
    assert [simulate(profile, spec, 2, 5000) for profile in profiles] == expected


def test_a_trial_count_costs_no_time():
    spec = ContestSpec([1, 2, 3], [60, 40])
    start = time.process_time()
    result = simulate(proportional_profile(2), spec, seed=8, trials=2**31 - 1)
    elapsed = time.process_time() - start
    assert all(math.isfinite(mean) for mean in result.means)
    assert all(se > 0.0 for se in result.std_errors)
    assert elapsed < 0.1


def test_debug_record_counts_states_merges_and_draws(caplog):
    spec = ContestSpec([1, 1, 1], [30, 30, 30])
    with caplog.at_level(logging.DEBUG, logger="dynblotto"):
        simulate(proportional_profile(3), spec, seed=1, trials=1000)
    # 3, 9 and 18 children merge into 3, 6 and 10 states; two binomial calls per battle
    assert caplog.messages == [
        "simulation: 1000 trials, states per battle [1, 3, 6], 11 states merged, 6 binomial calls"
    ]


def test_profile_for_another_player_count_is_rejected():
    spec = ContestSpec([1, 1, 1], [10, 10, 10])
    with pytest.raises(InputError, match="profile has 2 strategies for 3 players"):
        simulate(proportional_profile(2), spec, seed=1, trials=10)


@pytest.mark.parametrize("objective", [EV, WP], ids=["ev", "wp"])
def test_long_contests_take_linear_time(objective):
    # 1,000 trials of 1,200 battles; a walk over Histories costs O(m^2) per path
    spec = ContestSpec([1.0] * 1200, [10, 10], objective=objective)
    start = time.process_time()  # CPU time: other processes on the machine do not count
    result = simulate(proportional_profile(2), spec, seed=4, trials=1000)
    elapsed = time.process_time() - start
    total = 1200.0 if objective is EV else 1.0
    assert sum(result.means) == pytest.approx(total, abs=1e-9)
    assert elapsed < 0.5


def test_a_million_trials_take_little_memory():
    # no per-trial arrays at all: the trials are counts carried by the
    # distinct states of each battle (82 MB with (trials x battles) matrices)
    spec = ContestSpec([1, 2, 1, 3, 1, 2, 1, 1], [60, 40])
    tracemalloc.start()
    try:
        simulate(proportional_profile(2), spec, seed=1, trials=1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
