"""Seeded simulation: determinism and agreement with exact evaluation."""

import pytest

from dynblotto import (
    ContestSpec,
    CsfParams,
    InputError,
    Objective,
    expected_payoffs,
    proportional_profile,
    simulate,
)

WP = Objective.WIN_PROBABILITY


def test_same_seed_same_result():
    spec = ContestSpec([1, 2, 3], [60, 40])
    profile = proportional_profile(2)
    first = simulate(profile, spec, seed=123, trials=5000)
    second = simulate(profile, spec, seed=123, trials=5000)
    assert first == second  # bit-identical, not just close


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


def test_seed_must_be_nonnegative():
    spec = ContestSpec([1, 1], [10, 10])
    with pytest.raises(InputError, match="seed"):
        simulate(proportional_profile(2), spec, seed=-1, trials=5)


def test_contests_longer_than_the_recursion_limit():
    # expected value: every trial plays all 1100 battles and banks each value once
    spec = ContestSpec([1.0] * 1100, [10, 10])
    result = simulate(proportional_profile(2), spec, seed=4, trials=3)
    assert sum(result.means) == pytest.approx(1100.0, abs=1e-9)
