"""Exact evaluation, deviation gains, closed form, marginal gains."""

import itertools
import logging
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dynblotto import (
    ContestSpec,
    CsfParams,
    EnumerationCapError,
    History,
    InputError,
    Objective,
    PROPORTIONAL,
    StrategyProfile,
    allocations_at,
    closed_form_gain,
    csf_probability,
    deviation_gain,
    deviation_gains,
    deviation_grid,
    expected_payoffs,
    history_from_winners,
    marginal_gain,
    one_shot_deviation,
    proportional_profile,
    remaining_budget,
    terminal_status,
)
from dynblotto import evaluation
from dynblotto.evaluation import _level_walk
from conftest import brute_force_payoffs, exact_payoffs, random_ev_spec, random_table
from test_acceptance import _random_suite_spec

WP = Objective.WIN_PROBABILITY
EV = Objective.EXPECTED_VALUE


def oracle_spec(rng, objective, n, m, alpha, shocked, integer_values=False):
    """A contest on the grid of the walk's oracle tests.

    Values are drawn without the no-dictator rule (which one or two battles
    cannot meet); integer values make ties and exact clinch margins common.
    """
    if integer_values:
        values = [float(rng.randint(1, 2)) for _ in range(m)]
    else:
        values = [rng.uniform(0.5, 3.0) for _ in range(m)]
    budgets = [rng.uniform(0.0, 100.0) for _ in range(n)]
    shocks = {}
    if shocked:
        for _ in range(rng.randint(1, n)):
            shocks[(rng.randrange(n), rng.randint(1, m))] = rng.uniform(-20.0, 20.0)
    return ContestSpec(values, budgets, CsfParams(alpha, rng.choice([1.0, 5.0])), objective, shocks)


def last_bits(spec, payoff):
    """How far an expected-value gain from zero standings may be from a payoff difference.

    Both payoffs add up to m battle credits to the standings, and both rows
    of the sweep add the same credits to 0: each of these 4m additions
    rounds by at most half an ulp of a total no larger than the payoff.
    """
    return 2 * spec.m * np.finfo(float).eps * max(1.0, abs(payoff))


def open_history(rng, spec, profile, depth):
    """A nonterminal history of up to `depth` battles played under `profile`."""
    h = History()
    for _ in range(depth):
        allocations = allocations_at(profile, spec, h)
        successor = h.extend(allocations, rng.randrange(spec.n))
        if terminal_status(spec, successor).terminal:
            break
        h = successor
    return h


class TestExpectedPayoffs:
    def test_single_battle_all_in(self):
        spec = ContestSpec([5], [75, 25])
        payoffs = expected_payoffs(proportional_profile(2), spec)
        assert payoffs == pytest.approx((3.75, 1.25))

    def test_symmetric_win_probability_contest(self):
        spec = ContestSpec([1, 1, 1], [100, 100], objective=WP)
        payoffs = expected_payoffs(proportional_profile(2), spec)
        assert payoffs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_proportional_expected_value_is_budget_share_of_total(self):
        spec = ContestSpec([1, 2, 3], [60, 40])
        profile = proportional_profile(2)
        payoffs = expected_payoffs(profile, spec)
        assert payoffs == pytest.approx((3.6, 2.4))
        assert payoffs == pytest.approx(brute_force_payoffs(profile, spec))

    def test_matches_independent_enumeration(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.choice([2, 3])
            m = rng.choice([2, 3, 4])
            objective = rng.choice([Objective.EXPECTED_VALUE, WP])
            values = [rng.uniform(0.5, 3.0) for _ in range(m)]
            budgets = [rng.uniform(0.0, 50.0) for _ in range(n)]
            shocks = {}
            if rng.random() < 0.5:
                shocks[(rng.randrange(n), rng.randint(1, m))] = rng.uniform(-10.0, 10.0)
            spec = ContestSpec(
                values, budgets,
                CsfParams(rng.choice([0.5, 1.0, 2.0]), rng.choice([1.0, 5.0])),
                objective, shocks,
            )
            profile = proportional_profile(n)
            fast = expected_payoffs(profile, spec)
            oracle = brute_force_payoffs(profile, spec)
            assert fast == pytest.approx(oracle, abs=1e-12)

    def test_scaling_all_budgets_leaves_payoffs_unchanged(self):
        rng = random.Random(32)
        for _ in range(20):
            spec = random_ev_spec(rng, alphas=(0.5, 1.0, 2.0))
            scale = rng.uniform(0.1, 10.0)
            scaled = ContestSpec(
                spec.values, [w * scale for w in spec.budgets], spec.csf, spec.objective
            )
            base = expected_payoffs(proportional_profile(spec.n), spec)
            after = expected_payoffs(proportional_profile(spec.n), scaled)
            assert after == pytest.approx(base, rel=1e-10, abs=1e-12)

    def test_enumeration_cap(self):
        spec = ContestSpec([1.0] * 30, [10, 10], objective=WP)
        with pytest.raises(EnumerationCapError):
            expected_payoffs(proportional_profile(2), spec)

    @pytest.mark.parametrize("m", [30, 2000])
    def test_cap_spares_the_one_node_per_battle_walk(self, m):
        # 2**m winner sequences, but proportional expected value follows one
        # state per battle (a loop, so also past the recursion limit): each
        # battle pays its value times the budget share
        spec = ContestSpec([1.0] * m, [10, 30])
        payoffs = expected_payoffs(proportional_profile(2), spec)
        assert payoffs == pytest.approx((m / 4, 3 * m / 4), abs=1e-12)

    def test_cap_spares_a_terminal_root(self):
        # 2**29 winner sequences would follow, but battle 1 settles the contest
        spec = ContestSpec([30.0] + [1.0] * 29, [10, 10], objective=WP)
        root = history_from_winners(spec, [0])
        assert expected_payoffs(proportional_profile(2), spec, root) == (1.0, 0.0)

    @pytest.mark.skipif(np.__version__ != "2.4.6",
                        reason="values computed with numpy 2.4.6, whose power and division "
                               "may round differently in other releases")
    def test_expected_value_results_are_pinned(self):
        # literal results, repr-exact, so a change in the order of the
        # float operations of the budget path shows
        cases = [
            (ContestSpec([1, 2, 1.5, 1], [40, 60]), (), 0,
             (2.2, 3.3),
             (-0.17959183673469425, -0.014842578710644982, -0.25030959752322013,
              -0.7051282051282051, -1.4142857142857144)),
            (ContestSpec([2, 1, 1, 2, 1.5], [30, 40, 50], CsfParams(0.5),
                         shocks={(0, 3): 12.5, (2, 4): -7.0}), (1, 0), 2,
             (2.6356244170255216, 3.4509060324295264, 1.4134695505449524),
             (-0.24334413948189493, -0.0009131572586393855, -0.07182767478632801,
              -0.2555662155160858, -1.023105839204809)),
            (ContestSpec([1, 1, 2, 1, 3, 1], [25, 35, 45, 55], CsfParams(2.0)), (3,), 1,
             (0.7246376811594202, 1.4202898550724636, 2.347826086956521, 4.507246376811594),
             (0.11922904527117839, 0.001242023865774211, -0.18391467342857104,
              -0.41309079262478243, -0.4877891116885802)),
        ]
        for spec, winners, player, payoffs, gains in cases:
            root = history_from_winners(spec, winners)
            got = expected_payoffs(proportional_profile(spec.n), spec, root)
            reports = deviation_gains(spec, root, player, deviation_grid(spec, root, player, 5))
            assert repr(got) == repr(payoffs)
            assert repr(tuple(r.gain for r in reports)) == repr(gains)
        # a sweep of more rows than one part holds
        spec = ContestSpec([1, 2, 1, 1.5], [30, 70], CsfParams(0.5))
        grid = deviation_grid(spec, History(), 1, 2**16 + 3)
        gains = [r.gain for r in deviation_gains(spec, History(), 1, grid)]
        assert evaluation.PART == 2**16 and len(gains) == 65539
        picked = tuple(gains[i] for i in (0, 1, 2**16 - 1, 2**16, -1))
        assert repr(picked) == repr((-0.4976031408997992, -0.4838108767698661, -2.491356072616376,
                                     -2.50059680458959, -2.5421863808470535))
        assert repr(math.fsum(gains)) == repr(-23140.83124581983)


class TestStateWalkAgainstOracle:
    """The state walk against brute-force enumeration over histories."""

    @pytest.mark.parametrize("objective", [EV, WP], ids=["ev", "wp"])
    @pytest.mark.parametrize("shocked", [False, True], ids=["no-shocks", "shocks"])
    def test_proportional_play_over_the_grid(self, objective, shocked):
        rng = random.Random(f"{objective.value}-{shocked}")
        for n, m, alpha in itertools.product((2, 3, 4), range(1, 7), (0.5, 1.0, 2.0)):
            integer_values = objective is WP and rng.random() < 0.5
            spec = oracle_spec(rng, objective, n, m, alpha, shocked, integer_values)
            profile = proportional_profile(n)
            assert expected_payoffs(profile, spec) == pytest.approx(
                brute_force_payoffs(profile, spec), abs=1e-12
            ), spec

    def test_deviations_and_tables_from_inner_histories(self):
        # a deviation at the root, a table keyed by standings that differs
        # from proportional play at every battle, and the two together
        rng = random.Random(41)
        grid = itertools.product((EV, WP), (2, 3), range(2, 6), (0.5, 1.0, 2.0), (False, True))
        for objective, n, m, alpha, shocked in grid:
            spec = oracle_spec(rng, objective, n, m, alpha, shocked, rng.random() < 0.5)
            base = proportional_profile(n)
            root = open_history(rng, spec, base, rng.randrange(m))
            player = rng.randrange(n)
            strategies = [PROPORTIONAL] * n
            strategies[player] = random_table(rng, spec, player, root)
            tabular = StrategyProfile(tuple(strategies))
            deviator = rng.randrange(n)
            for profile in (
                one_shot_deviation(base, deviator, root, rng.uniform(0.0, 50.0)),
                tabular,
                one_shot_deviation(tabular, deviator, root, rng.uniform(0.0, 50.0)),
            ):
                assert expected_payoffs(profile, spec, root) == pytest.approx(
                    brute_force_payoffs(profile, spec, root), abs=1e-12
                ), (spec, root, profile)

    def test_a_deviation_below_the_root_is_refused(self):
        spec = ContestSpec([1, 2, 1, 1], [50, 40, 30], objective=WP)
        base = proportional_profile(3)
        child = history_from_winners(spec, [0])
        deeper = one_shot_deviation(base, 2, child, 1.0)
        with pytest.raises(InputError, match="evaluate from its history"):
            expected_payoffs(deeper, spec)
        with pytest.raises(InputError, match="evaluate from its history"):
            expected_payoffs(one_shot_deviation(deeper, 0, History(), 5.0), spec)
        # from its own history, or from a sibling of it, the deviation is fine
        assert expected_payoffs(deeper, spec, child) == pytest.approx(
            brute_force_payoffs(deeper, spec, child), abs=1e-12)
        sibling = history_from_winners(spec, [1])
        assert expected_payoffs(deeper, spec, sibling) == expected_payoffs(base, spec, sibling)

    def test_deviation_gains_match_brute_force_differences(self):
        rng = random.Random(42)
        for _ in range(25):
            objective = rng.choice([EV, WP])
            n, m = rng.choice([2, 3, 4]), rng.randint(2, 4)
            spec = oracle_spec(rng, objective, n, m, rng.choice([0.5, 1.0, 2.0]),
                               rng.random() < 0.5)
            h = open_history(rng, spec, proportional_profile(n), rng.randrange(m))
            player = rng.randrange(n)
            deltas = deviation_grid(spec, h, player, points=5)
            known = spec.truncate_shocks(len(h) + 1)
            base = proportional_profile(n)
            baseline = brute_force_payoffs(base, known, h)[player]
            # the proportional spend rounded as the library rounds it: at
            # alpha < 1 the grid's zero-spend end is that sensitive to the last bit
            played = len(h)
            spend = remaining_budget(known, h, player) * (known.values[played] / known.suffix_value(played))
            for report in deviation_gains(spec, h, player, deltas):
                deviated = one_shot_deviation(base, player, h, spend + report.delta)
                want = brute_force_payoffs(deviated, known, h)[player] - baseline
                assert report.gain == pytest.approx(want, abs=1e-12)

    def test_expected_value_takes_one_node_per_battle(self):
        # 2**20 winner sequences; the walk follows one state per battle
        rng = random.Random(43)
        values = [rng.uniform(0.5, 3.0) for _ in range(20)]
        budgets = [37.0, 81.0]
        for alpha in (0.5, 1.0, 2.0):
            spec = ContestSpec(values, budgets, CsfParams(alpha))
            start = time.perf_counter()
            payoffs = expected_payoffs(proportional_profile(2), spec)
            elapsed = time.perf_counter() - start
            scores = [w**alpha for w in budgets]
            closed = [sum(values) * s / sum(scores) for s in scores]
            assert payoffs == pytest.approx(closed, abs=1e-12)
            assert elapsed < 0.5


def known_at(spec, history):
    """The contest as known at `history`: shocks after its upcoming battle dropped."""
    shocks = [item for item in spec.shocks if item[0][1] <= len(history) + 1]
    return ContestSpec(spec.values, spec.budgets, spec.csf, spec.objective, shocks)


class TestExactRationalOracle:
    """The float engines against `exact_payoffs`, which computes in Fractions."""

    def test_payoffs_and_deviation_gains_are_exact_to_1e_12(self):
        rng = random.Random("exact-oracle")
        for k in range(24):
            objective, shocked = (EV, WP)[k % 2], k % 4 < 2
            n, m, alpha = rng.choice((2, 3, 4)), rng.choice((3, 4, 5)), rng.choice((1.0, 2.0, 3.0))
            spec = oracle_spec(rng, objective, n, m, alpha, shocked, k % 8 < 4)
            profile = proportional_profile(n)
            for want, got in zip(exact_payoffs(spec), expected_payoffs(profile, spec)):
                assert abs(want - Fraction(got)) <= 1e-12, spec
            h = open_history(rng, spec, profile, rng.randrange(m))
            known, player = known_at(spec, h), rng.randrange(n)
            baseline = exact_payoffs(known, h)[player]
            for report in deviation_gains(spec, h, player, deviation_grid(spec, h, player, 5)):
                gain = exact_payoffs(known, h, (player, report.delta))[player] - baseline
                assert abs(gain - Fraction(report.gain)) <= 1e-12, (spec, h, report)

    def test_criterion_08s_deviations_gain_in_exact_arithmetic(self):
        """Criterion 08's three reported deviations, at alpha 2, gain exactly
        what they report: the failure is the game's, not rounding."""
        rng = random.Random(80_2026)  # criterion 08's draw; the deviations are in its 14th contest
        for _ in range(14):
            spec = _random_suite_spec(rng, alphas=(0.5, 1.0, 2.0), betas=(1.0, 5.0),
                                      with_shocks=True)
        root = History()
        reports = [r for r in deviation_gains(spec, root, 0, deviation_grid(spec, root, 0))
                   if r.gain > 1e-9][:3]
        assert [f"alpha={spec.csf.alpha} budgets={tuple(round(b, 1) for b in spec.budgets)} "
                f"player={r.player} delta={r.delta:.2f} gain={r.gain:.4f}" for r in reports] == [
            f"alpha=2.0 budgets=(7.7, 84.3, 86.0, 33.7) player=0 {deviation}" for deviation in
            ("delta=-2.01 gain=0.0086", "delta=-1.63 gain=0.0056", "delta=-1.24 gain=0.0033")]
        known = known_at(spec, root)
        baseline = exact_payoffs(known)[0]
        for report in reports:
            gain = exact_payoffs(known, root, (0, report.delta))[0] - baseline
            assert gain > 0 and abs(gain - Fraction(report.gain)) <= 1e-12, report


def walk_records(caplog):
    """(rows, states per battle, states merged, parts split) of each logged walk."""
    return [r.args for r in caplog.records if r.msg.startswith("exact walk")]


class TestLevelWalk:
    """The level-by-level kernel: merging, rows, sweeps, parts and its log."""

    def test_merged_win_probability_states_match_the_oracle(self, caplog):
        # integer values make equal standings common, so states merge
        caplog.set_level(logging.DEBUG, logger="dynblotto")
        rng = random.Random(44)
        for n, m in ((2, 9), (3, 6), (4, 5)):
            for _ in range(4):
                spec = oracle_spec(rng, WP, n, m, rng.choice([0.5, 1.0, 2.0]),
                                   rng.random() < 0.5, integer_values=True)
                profile = proportional_profile(n)
                assert expected_payoffs(profile, spec) == pytest.approx(
                    brute_force_payoffs(profile, spec), abs=1e-12
                ), spec
        merged = [record[2] for record in walk_records(caplog)]
        assert len(merged) == 12 and min(merged) > 0

    @pytest.mark.parametrize("part", [None, 7], ids=["whole", "parts-of-7"])
    @pytest.mark.parametrize("objective", [EV, WP], ids=["ev", "wp"])
    def test_rows_do_not_touch_each_other(self, monkeypatch, objective, part):
        # each row of a batch, repeated rows and rows of other states
        # included, pays bit for bit what it pays alone, also when levels are
        # finished in parts
        if part is not None:
            monkeypatch.setattr(evaluation, "PART", part)
        rng = random.Random(f"rows-{objective.value}")
        for _ in range(20):
            n = rng.choice([2, 3, 4])
            spec = oracle_spec(rng, objective, n, rng.randint(2, 5), rng.choice([0.5, 1.0, 2.0]),
                               rng.random() < 0.5, rng.random() < 0.5)
            base = proportional_profile(n)
            depth = rng.randrange(spec.m)
            roots = [open_history(rng, spec, base, depth) for _ in range(3)]
            roots = [h for h in roots if len(h) == len(roots[0])]
            strategies = [PROPORTIONAL] * n
            if rng.random() < 0.3:  # a table keeps states apart that proportional play merges
                strategies[0] = random_table(rng, spec, 0, roots[0])
            below = tuple(strategies)
            picks = [rng.randrange(len(roots)) for _ in range(4)]
            picks += picks[:2]
            batch = np.array([[rng.uniform(0.0, remaining_budget(spec, roots[k], i))
                               for i in range(n)] for k in picks[:4]])
            batch = np.concatenate((batch, batch[:2]))
            states = [evaluation._state(spec, roots[k])[:2] for k in picks]
            standings, spent = (np.concatenate(arrays) for arrays in zip(*states))
            together = _level_walk(spec, len(roots[0]), standings, spent, batch, below)
            for row, (one, spend), payoffs in zip(batch, states, together):
                alone = _level_walk(spec, len(roots[0]), one, spend, row[None, :], below)
                assert np.array_equal(payoffs, alone[0]), (spec, roots, row)

    @pytest.mark.parametrize(
        "objective, alpha, shocked",
        [(EV, 1.0, False), (WP, 1.0, False), (EV, 2.0, False), (WP, 2.0, True), (EV, 0.5, True)],
        ids=["ev", "wp", "ev-alpha2", "wp-alpha2-shocks", "ev-alpha0.5-shocks"],
    )
    def test_sweep_equals_single_evaluations(self, objective, alpha, shocked):
        rng = random.Random(f"sweep-{objective.value}-{alpha}-{shocked}")
        for _ in range(15):
            n = rng.choice([2, 3, 4])
            spec = oracle_spec(rng, objective, n, rng.randint(2, 5), alpha, shocked,
                               objective is WP and rng.random() < 0.5)
            base = proportional_profile(n)
            h = open_history(rng, spec, base, rng.randrange(spec.m))
            player = rng.randrange(n)
            known = spec.truncate_shocks(len(h) + 1)
            budget = remaining_budget(known, h, player)
            spend = budget * (known.values[len(h)] / known.suffix_value(len(h)))
            baseline = expected_payoffs(base, known, h)[player]
            for report in deviation_gains(spec, h, player, deviation_grid(spec, h, player, 7)):
                single = one_shot_deviation(base, player, h, spend + report.delta)
                want = expected_payoffs(single, known, h)[player] - baseline
                if objective is WP:
                    assert report.gain == want
                else:  # the sweep starts from zero standings, the payoffs from h's
                    assert abs(report.gain - want) <= last_bits(spec, baseline)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_sweeps_from_many_battles_gain_what_they_gain_alone(self, caplog, alpha):
        # expected value: one walk of sweeps at histories of any length, in
        # any order, each sweep bit for bit its own walk in the contest as
        # known at its history, and each row walked from its own battle on
        caplog.set_level(logging.DEBUG, logger="dynblotto")
        rng = random.Random(f"many-starts-{alpha}")
        for _ in range(10):
            n = rng.choice([2, 3, 4])
            spec = oracle_spec(rng, EV, n, rng.randint(2, 6), alpha, True)
            roots = [open_history(rng, spec, proportional_profile(n), rng.randrange(spec.m))
                     for _ in range(6)]
            if spec.m > 1:  # a state off the proportional path
                roots[0] = History().extend((0.0,) * n, 0)
            played = np.array([len(h) for h in roots])
            states = [evaluation._state(spec, h)[:2] for h in roots]
            standings, spent = (np.concatenate(arrays) for arrays in zip(*states))
            players = np.array([rng.randrange(n) for _ in roots])
            deltas = []
            for h, player in zip(roots, players.tolist()):
                grid = deviation_grid(spec.truncate_shocks(len(h) + 1), h, player, 5)
                deltas.append(grid if len(grid) == 5 else grid * 5)  # a broke player's (0.0,)
            caplog.clear()
            together = evaluation._sweeps(spec, played, standings, spent, players,
                                          np.array(deltas))
            ((rows, per_battle, _, _),) = walk_records(caplog)
            start = int(played.min())
            assert rows == 6 * 6 and per_battle == [
                6 * int(np.sum(played <= t)) for t in range(start, spec.m)] + [rows]
            for k, h in enumerate(roots):
                alone = evaluation._sweeps(spec.truncate_shocks(len(h) + 1), len(h),
                                           standings[k:k + 1], spent[k:k + 1],
                                           players[k:k + 1], np.array(deltas[k:k + 1]))
                assert np.array_equal(together[k], alone[0]), (spec, h)

    def test_large_levels_are_finished_in_parts(self, monkeypatch, caplog):
        # 2**20 winner sequences with generic values: nothing merges, and the
        # last four battles hold over 100,000 states each
        caplog.set_level(logging.DEBUG, logger="dynblotto")
        rng = random.Random(45)
        values = [rng.uniform(0.5, 3.0) for _ in range(20)]
        spec = ContestSpec(values, [37.0, 81.0], objective=WP)
        tracemalloc.start()
        try:
            split = expected_payoffs(proportional_profile(2), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(evaluation, "PART", 2**30)
        whole = expected_payoffs(proportional_profile(2), spec)
        assert split == pytest.approx(whole, abs=1e-12)
        assert peak < 40 * 2**20
        parts = [record[3] for record in walk_records(caplog)]
        assert parts[0] > 0 and parts[1] == 0

    def test_proportional_play_builds_no_history(self, monkeypatch):
        # nor does a table keyed by standings, nor a deviation at the root
        def refuse(*args):
            raise AssertionError("History.extend called")

        rng = random.Random(47)
        roots = {}
        for objective in (EV, WP):
            spec = ContestSpec([1, 2, 1, 1, 3], [50, 40, 30], objective=objective)
            roots[objective] = (spec, history_from_winners(spec, [0]))
        monkeypatch.setattr(History, "extend", refuse)
        for spec, root in roots.values():
            base = proportional_profile(3)
            tabular = StrategyProfile((PROPORTIONAL, random_table(rng, spec, 1), PROPORTIONAL))
            for profile in (base, tabular):
                expected_payoffs(profile, spec)
                expected_payoffs(profile, spec, root)
                expected_payoffs(one_shot_deviation(profile, 2, root, 1.0), spec, root)
                expected_payoffs(one_shot_deviation(profile, 2, History(), 1.0), spec)
            deviation_gains(spec, root, 1, deviation_grid(spec, root, 1))

    def test_generic_win_probability_is_fast(self):
        # 2**16 winner sequences with generic values: about 49,000 states,
        # none merged
        rng = random.Random(46)
        spec = ContestSpec([rng.uniform(0.5, 3.0) for _ in range(16)], [37.0, 81.0], objective=WP)
        start = time.process_time()  # CPU time: other processes on the machine do not count
        payoffs = expected_payoffs(proportional_profile(2), spec)
        elapsed = time.process_time() - start
        assert sum(payoffs) == pytest.approx(1.0, abs=1e-12)
        assert elapsed < 0.15

    def test_one_debug_record_per_evaluation(self, caplog):
        spec = ContestSpec([1, 1, 2], [30, 20, 10], objective=WP)
        with caplog.at_level(logging.INFO, logger="dynblotto"):
            expected_payoffs(proportional_profile(3), spec)
        assert walk_records(caplog) == []
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            expected_payoffs(proportional_profile(3), spec)
            deviation_gains(spec, History(), 0, (0.0, 1.0))
        (one, sweep) = walk_records(caplog)
        rows, states, merged, parts = one
        assert (rows, states[:2], parts) == (1, [1, 3], 0)  # the root, then one state per winner
        assert len(states) == 4 and merged >= 0
        assert sweep[0] == 3  # the baseline and two offsets

    def test_the_last_battle_is_banked_unmerged(self, caplog):
        # after two battles the live states (1, 1, 0), (1, 0, 1) and (0, 1, 1),
        # each merged from two children with equal spends, have nine children,
        # three of them (1, 1, 1); all of them end and are banked as they are
        spec = ContestSpec([1, 1, 1], [30, 20, 10], objective=WP)
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            payoffs = expected_payoffs(proportional_profile(3), spec)
        assert walk_records(caplog) == [(1, [1, 3, 6, 9], 3, 0)]
        assert payoffs == pytest.approx(brute_force_payoffs(proportional_profile(3), spec),
                                        abs=1e-12)

    def test_a_budget_path_logs_its_rows_at_every_battle(self, caplog):
        spec = ContestSpec([1, 1, 2], [30, 20, 10])
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            expected_payoffs(proportional_profile(3), spec)
            deviation_gains(spec, history_from_winners(spec, [1]), 0, (0.0, 1.0))
        assert walk_records(caplog) == [(1, [1, 1, 1, 1], 0, 0), (3, [3, 3, 3], 0, 0)]

    def test_a_sweep_walks_the_nodes_of_its_groups(self, caplog):
        # 22 rows from one state: the baseline and the offsets that leave every
        # spend positive share one group, and the offsets that spend nothing at
        # the root, or everything there and so nothing after, have one each;
        # the states per battle are the nodes of the three groups
        spec = ContestSpec([1.0, 1.5, 1.2, 1.7, 1.1], [40, 50, 60], objective=WP)
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            expected_payoffs(proportional_profile(3), spec)
            deviation_gains(spec, History(), 0, deviation_grid(spec, History(), 0))
        (one, sweep) = walk_records(caplog)
        assert one == (1, [1, 3, 9, 27, 69, 72], 3, 0)
        assert sweep == (22, [3, 8, 21, 57, 135, 136], 5, 0)  # 22 rows alone: 22 times `one`'s

    def test_a_guaranteed_losers_spent_does_not_keep_states_apart(self, caplog):
        # after four battles (3, 2, 0) comes from (3, 1, 0), where player 2 is
        # already a guaranteed loser and spends nothing on battle 4, and from
        # (2, 2, 0), where it still spends: one node, where states with spent
        # kept them apart (12 merged, states per battle [1, 3, 6, 15, 24, 33])
        spec = ContestSpec([1, 1, 2, 1, 1], [30, 20, 10], objective=WP)
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            payoffs = expected_payoffs(proportional_profile(3), spec)
        assert walk_records(caplog) == [(1, [1, 3, 6, 15, 18, 21], 18, 0)]
        assert payoffs == pytest.approx(brute_force_payoffs(proportional_profile(3), spec),
                                        abs=1e-12)

    @pytest.mark.parametrize("part", [None, 7], ids=["whole", "parts-of-7"])
    def test_rows_that_go_all_in_or_spend_nothing_walk_as_alone(self, monkeypatch, caplog, part):
        # rows of two states; at each, the deviator spends nothing, everything
        # or something between, so the rows fall into groups of several sizes,
        # and with parts of 7 the wider groups are walked a few rows at a time
        if part is not None:
            monkeypatch.setattr(evaluation, "PART", part)
        rng = random.Random("all-in-rows")
        spec = ContestSpec([1.0, 1.5, 1.2, 1.7, 1.1], [40, 50, 60], objective=WP)
        roots = [history_from_winners(spec, winners) for winners in ((1,), (2,))]
        states, batch = [], []
        for root in roots:
            budgets = [remaining_budget(spec, root, i) for i in range(3)]
            for spend in (0.0, budgets[1], *(rng.uniform(0.0, budgets[1]) for _ in range(7))):
                states.append(evaluation._state(spec, root)[:2])
                batch.append([budgets[0] / 4.3, spend, budgets[2] / 4.3])
        batch = np.array(batch)
        standings, spent = (np.concatenate(arrays) for arrays in zip(*states))
        below = (PROPORTIONAL,) * 3
        with caplog.at_level(logging.DEBUG, logger="dynblotto"):
            together = _level_walk(spec, 1, standings, spent, batch, below)
        assert (walk_records(caplog)[0][3] > 0) == (part is not None)
        for row, (one, spend), payoffs in zip(batch, states, together):
            alone = _level_walk(spec, 1, one, spend, row[None, :], below)
            assert np.array_equal(payoffs, alone[0]), row


class TestWinnerTreeThroughTheOracle:
    """Properties of the tree of winner sequences, read through the evaluators."""

    def test_payoffs_add_up_on_random_specs(self):
        # every branch's probabilities add up to one and every leaf pays out:
        # win-probability payoffs add up to the one prize, expected values to
        # the total value of the battles
        rng = random.Random(33)
        for _ in range(20):
            n = rng.choice([2, 3])
            m = rng.choice([2, 3, 4])
            objective = rng.choice([Objective.EXPECTED_VALUE, WP])
            values = [rng.uniform(0.5, 3.0) for _ in range(m)]
            spec = ContestSpec(values, [rng.uniform(1, 50) for _ in range(n)], objective=objective)
            total = 1.0 if objective is WP else sum(values)
            oracle = brute_force_payoffs(proportional_profile(n), spec)
            assert sum(oracle) == pytest.approx(total, abs=1e-10)
            assert expected_payoffs(proportional_profile(n), spec) == pytest.approx(oracle, abs=1e-12)

    def test_clinched_branches_end_early(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        profile = proportional_profile(2)
        double_win = history_from_winners(spec, (0, 0))  # 3 up with 2 left to play
        assert terminal_status(spec, double_win).terminal
        assert brute_force_payoffs(profile, spec, double_win) == [1.0, 0.0]
        level = history_from_winners(spec, (0, 1, 1))  # 2-2 after three battles
        assert not terminal_status(spec, level).terminal
        assert brute_force_payoffs(profile, spec, level) == pytest.approx([0.5, 0.5], abs=1e-12)


class TestDeviationGain:
    def test_zero_offset_means_zero_gain(self):
        spec = ContestSpec([1, 2, 1], [60, 40])
        report = deviation_gain(spec, History(), 0, 0.0)
        assert report.gain == 0.0

    def test_proportional_spend_rounds_alike_everywhere(self):
        # the grid, the gain and the strategies compute the proportional spend
        # alike, to the last bit: a zero offset changes nothing, and the
        # grid's lowest offset spends exactly nothing (at alpha < 1 a spend
        # of 1e-15 instead of 0 moves the gain by about 1e-8)
        rng = random.Random(2026)
        for _ in range(300):
            spec = random_ev_spec(rng, alphas=(0.5, 1.0), ns=(2, 3))
            base = proportional_profile(spec.n)
            h = open_history(rng, spec, base, rng.randrange(spec.m))
            player = rng.randrange(spec.n)
            assert deviation_gain(spec, h, player, 0.0).gain == 0.0
            lowest = deviation_grid(spec, h, player)[0]
            nothing = one_shot_deviation(base, player, h, 0.0)
            baseline = expected_payoffs(base, spec, h)[player]
            want = expected_payoffs(nothing, spec, h)[player] - baseline
            gain = deviation_gain(spec, h, player, lowest).gain
            assert abs(gain - want) <= last_bits(spec, baseline)

    def test_two_battle_hand_computed_value(self):
        # budgets 60 vs 40, equal battles: proportional yields 1.2; spending
        # 10 over proportional yields 40/60 + 20/40 = 7/6; the gain is -1/30
        spec = ContestSpec([1, 1], [60, 40])
        report = deviation_gain(spec, History(), 0, 10.0)
        assert report.gain == pytest.approx(-1.0 / 30.0, abs=1e-12)
        assert report.closed_form == pytest.approx(1.0 / 30.0, abs=1e-15)

    def test_saving_for_the_decisive_battle_profits(self):
        # three small battles then one worth more than their sum to date:
        # after a split of battles 1-2, skipping battle 3 to stack battle 4 wins
        spec = ContestSpec([1, 1, 1, 3], [100, 100], objective=WP)
        h = history_from_winners(spec, (0, 1))
        budget = remaining_budget(spec, h, 0)
        skip = deviation_gain(spec, h, 0, -budget / 4.0)
        assert skip.gain == pytest.approx(4.0 / 7.0 - 0.5, abs=1e-12)
        # piling everything on battle 3 instead concedes battle 4 and loses
        all_in = deviation_gain(spec, h, 0, budget - budget / 4.0)
        assert all_in.gain < 0.0

    def test_infeasible_offsets_rejected(self):
        spec = ContestSpec([1, 1], [10, 10])
        with pytest.raises(InputError):
            deviation_gain(spec, History(), 0, 5.1)
        with pytest.raises(InputError):
            deviation_gain(spec, History(), 0, -5.1)

    def test_future_shocks_are_invisible_to_the_deviation(self):
        # the gain comparison happens in the contest as known at the history:
        # a windfall announced before battle 2 must not tempt battle-1 deviations
        spec = ContestSpec([1, 1], [1, 10], shocks={(0, 2): 20.0})
        grid = deviation_grid(spec, History(), 0)
        gains = [r.gain for r in deviation_gains(spec, History(), 0, grid)]
        assert max(gains) <= 1e-12

    def test_deviation_grid_spans_the_feasible_range(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100])
        grid = deviation_grid(spec, History(), 0)
        assert len(grid) == 21
        assert grid[0] == pytest.approx(-40.0)  # spend 0
        assert grid[-1] == pytest.approx(60.0)  # spend everything
        assert grid[2] == pytest.approx(-30.0)  # evenly spaced

    def test_every_grid_point_is_feasible_at_large_budgets(self):
        # from budgets of about 1e7 an ulp exceeds BUDGET_TOLERANCE; the grid's
        # top point rounds a few ulps above the budget and must still pass,
        # in the sweep and in the Tullock closed form alike
        unit = ContestSpec([1, 2, 1, 1.5], [1.0, 3.3, 0.7])
        for c in (1e7, 1e15):
            spec = ContestSpec(unit.values, [b * c for b in unit.budgets])
            for player in range(spec.n):
                want, got = (deviation_gains(s, History(), player,
                                             deviation_grid(s, History(), player))
                             for s in (unit, spec))
                for a, b in zip(got, want):
                    assert a.gain == pytest.approx(b.gain, abs=1e-12)
                    assert a.closed_form == pytest.approx(b.closed_form, abs=1e-12)

    def test_a_spend_far_over_a_tiny_budget_is_refused(self):
        # budgets of 1e-12 take 1e-9 times their scale as slack: a spend of
        # 5e-10 was accepted and clamped, and the closed form read it unclamped
        spec = ContestSpec([1, 2, 1], [1e-12, 3e-12])
        with pytest.raises(InputError, match="outside"):
            deviation_gains(spec, History(), 0, [5e-10])
        with pytest.raises(InputError, match="outside"):
            closed_form_gain(1e-12, 3e-12, 4.0, 5e-10, 1.0)
        top = deviation_grid(spec, History(), 0)[-1]  # spends the whole budget
        (report,) = deviation_gains(spec, History(), 0, [top])
        assert report.closed_form == closed_form_gain(1e-12, 3e-12, 4.0, top, 1.0)

    def test_broke_player_has_no_deviations(self):
        spec = ContestSpec([1, 1], [0.0, 10.0])
        assert deviation_grid(spec, History(), 0) == (0.0,)

    @pytest.mark.parametrize("points", [2.5, True, -5, "3", None])
    def test_grid_points_must_be_a_count(self, points):
        # 2.5 gave (-3.33, 3.33, 10.0), whose last offset spends 13.33 of a
        # budget of 10; True and -5 gave (0.0,)
        spec = ContestSpec([1, 1, 1], [10, 20])
        with pytest.raises(InputError, match=r"^points must be a nonnegative integer, got "):
            deviation_grid(spec, History(), 0, points)
        for few in (0, 1):
            assert deviation_grid(spec, History(), 0, few) == (0.0,)
        assert len(deviation_grid(spec, History(), 0, np.int64(3))) == 3

    @pytest.mark.parametrize("delta", ["1", True, math.nan, math.inf, None])
    def test_a_delta_that_is_no_finite_real_number_is_named(self, delta):
        # "1" was read as 1.0
        spec = ContestSpec([1, 1, 1], [10, 20])
        with pytest.raises(InputError, match=r"^delta 1 must be a finite real number, got "):
            deviation_gains(spec, History(), 0, [0.5, delta])


class TestClosedFormGain:
    def test_reference_point(self):
        assert closed_form_gain(60, 40, 2, 10, 1) == pytest.approx(1.0 / 30.0)

    def test_zero_offset(self):
        assert closed_form_gain(60, 40, 2, 0.0, 1) == 0.0

    def test_no_opponents_no_loss(self):
        assert closed_form_gain(60, 0.0, 2, 10, 1) == 0.0

    def test_nonnegative_on_the_feasible_range(self):
        rng = random.Random(34)
        for _ in range(300):
            a = rng.uniform(0.1, 100)
            b = rng.uniform(0.1, 300)
            k = rng.uniform(1.0, 6.0)
            delta = rng.uniform(-a / k, a - a / k)
            assert closed_form_gain(a, b, k, delta, rng.uniform(0.5, 3.0)) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(InputError):
            closed_form_gain(10, 10, 0.5, 0.0, 1)  # k below one
        with pytest.raises(InputError):
            closed_form_gain(10, 10, 2, 6.0, 1)  # spend above budget
        with pytest.raises(InputError):
            closed_form_gain(-1, 10, 2, 0.0, 1)


class TestDeviationProperties:
    def test_proportional_is_deviation_proof_for_expected_value(self):
        # every feasible one-shot deviation at every sampled history loses
        rng = random.Random(35)
        worst = -math.inf
        for _ in range(10):
            spec = random_ev_spec(rng)
            profile = proportional_profile(spec.n)
            level = [History()]
            for _ in range(spec.m):
                for h in level:
                    for i in range(spec.n):
                        for report in deviation_gains(spec, h, i, deviation_grid(spec, h, i)):
                            worst = max(worst, report.gain)
                nxt = []
                for h in level:
                    allocations = None
                    for winner in range(spec.n):
                        if len(h) + 1 < spec.m:
                            if allocations is None:
                                from dynblotto import allocations_at

                                allocations = allocations_at(profile, spec, h)
                            if csf_probability(allocations, spec.csf, winner) > 0:
                                nxt.append(h.extend(allocations, winner))
                level = nxt[:6]
                if not level:
                    break
        assert worst <= 1e-9

    def test_gain_matches_closed_form_for_tullock(self):
        rng = random.Random(36)
        for _ in range(25):
            spec = random_ev_spec(rng)
            h = History()
            if rng.random() < 0.5 and spec.m > 1:
                h = history_from_winners(spec, (rng.randrange(spec.n),))
            i = rng.randrange(spec.n)
            for report in deviation_gains(spec, h, i, deviation_grid(spec, h, i)):
                assert report.closed_form is not None
                assert abs(report.gain + report.closed_form) <= 1e-9 * max(
                    1.0, abs(report.closed_form)
                )

    def test_deviation_proof_with_shocks_and_concave_exponents(self):
        rng = random.Random(37)
        worst = -math.inf
        for _ in range(12):
            spec = random_ev_spec(rng, alphas=(0.5, 1.0), betas=(1.0, 5.0), with_shocks=True)
            for winners in ([], [0], [spec.n - 1]):
                h = history_from_winners(spec, winners)
                for i in range(spec.n):
                    for report in deviation_gains(spec, h, i, deviation_grid(spec, h, i)):
                        worst = max(worst, report.gain)
        assert worst <= 1e-9

    def test_convex_exponent_breaks_deviation_proofness(self):
        # concentration beats splitting when the success function is convex
        # near zero: alpha = 2 with a big budget disadvantage
        spec = ContestSpec([1, 1, 1], [10, 90], csf=CsfParams(2.0, 1.0))
        budget = 10.0
        all_in = deviation_gain(spec, History(), 0, budget - budget / 3.0)
        assert all_in.gain > 0.01


class TestMarginalGain:
    def test_two_player_unit_battle(self):
        spec = ContestSpec([1, 1], [10, 10])
        assert marginal_gain(spec, (1.0, 1.0), 0, 1.0) == pytest.approx(0.25)

    def test_scaling_spends_with_the_battle_value_cancels(self):
        rng = random.Random(38)
        for _ in range(100):
            n = rng.choice([2, 3, 4])
            alpha = rng.uniform(0.4, 2.5)
            k = rng.uniform(1.0, 5.0)
            base = [rng.uniform(0.2, 5.0) for _ in range(n)]
            spec = ContestSpec([1, 1], [10.0] * n, csf=CsfParams(alpha))
            unit = marginal_gain(spec, base, 0, 1.0)
            scaled = marginal_gain(spec, [k * w for w in base], 0, k)
            assert scaled == pytest.approx(unit, rel=1e-10)

    def test_matches_finite_difference_of_the_stage_value(self):
        rng = random.Random(39)
        for _ in range(100):
            n = rng.choice([2, 3])
            alpha = rng.uniform(0.4, 2.5)
            k = rng.uniform(1.0, 5.0)
            spends = [rng.uniform(0.5, 5.0) for _ in range(n)]
            spec = ContestSpec([1, 1], [10.0] * n, csf=CsfParams(alpha))
            analytic = marginal_gain(spec, spends, 0, k)

            def stage_value(w):
                probe = list(spends)
                probe[0] = w
                return k * csf_probability(probe, spec.csf, 0)

            h = 1e-6
            numeric = (stage_value(spends[0] + h) - stage_value(spends[0] - h)) / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_singular_inputs_rejected(self):
        spec = ContestSpec([1, 1], [10, 10])
        with pytest.raises(InputError):
            marginal_gain(spec, (0.0, 0.0), 0, 1.0)
        half = ContestSpec([1, 1], [10, 10], csf=CsfParams(0.5))
        with pytest.raises(InputError):
            marginal_gain(half, (0.0, 1.0), 0, 1.0)

    @pytest.mark.parametrize("spends", [(-1.0, 2.0), (1.0, -0.5), (1.0, math.inf),
                                        (math.nan, 1.0), ("1", True), (1.0, None)])
    def test_spends_must_be_finite_and_nonnegative(self, spends):
        spec = ContestSpec([1, 1], [10, 10])
        with pytest.raises(InputError, match="allocations must be nonnegative reals"):
            marginal_gain(spec, spends, 0, 1.0)
