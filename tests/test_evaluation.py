"""Exact evaluation, deviation gains, closed form, marginal gains."""

import itertools
import math
import random
import time

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
    Tabular,
    allocations_at,
    build_outcome_tree,
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
from conftest import brute_force_payoffs, random_ev_spec

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
        rng = random.Random(41)
        for _ in range(60):
            objective = rng.choice([EV, WP])
            n, m = rng.choice([2, 3]), rng.randint(2, 5)
            spec = oracle_spec(rng, objective, n, m, rng.choice([0.5, 1.0, 2.0]),
                               rng.random() < 0.5, rng.random() < 0.5)
            base = proportional_profile(n)
            root = open_history(rng, spec, base, rng.randrange(m))
            player = rng.randrange(n)
            at_root = one_shot_deviation(base, player, root, rng.uniform(0.0, 50.0))
            profiles = [at_root]
            if len(root) + 1 < m:
                # a deviation one battle below the root, alone and on top of the root one
                child = root.extend(allocations_at(base, spec, root), rng.randrange(n))
                if not terminal_status(spec, child).terminal:
                    deeper = rng.randrange(n)
                    profiles.append(one_shot_deviation(base, deeper, child, rng.uniform(0.0, 50.0)))
                    profiles.append(one_shot_deviation(at_root, deeper, child, 0.0))
            table = Tabular(player=player)
            for played in range(len(root), m):
                for tail in itertools.product(range(n), repeat=played - len(root)):
                    budgets = tuple(rng.uniform(0.0, 100.0) for _ in range(n))
                    table.record(played + 1, root.winner_schedule() + tail, budgets,
                                 rng.uniform(0.0, 60.0))
            strategies = [PROPORTIONAL] * n
            strategies[player] = table
            profiles.append(StrategyProfile(tuple(strategies)))
            for profile in profiles:
                assert expected_payoffs(profile, spec, root) == pytest.approx(
                    brute_force_payoffs(profile, spec, root), abs=1e-12
                ), (spec, root, profile)

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


class TestOutcomeTree:
    def test_tree_invariants_on_random_specs(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.choice([2, 3])
            m = rng.choice([2, 3, 4])
            objective = rng.choice([Objective.EXPECTED_VALUE, WP])
            values = [rng.uniform(0.5, 3.0) for _ in range(m)]
            spec = ContestSpec(values, [rng.uniform(1, 50) for _ in range(n)], objective=objective)
            tree = build_outcome_tree(proportional_profile(n), spec)
            reach = 0.0
            stack = [tree.root]
            while stack:
                node = stack.pop()
                assert len(node.history) <= m
                if node.status.terminal:
                    reach += node.probability
                    assert node.payoff is not None
                    continue
                branch_total = sum(p for _, p, _ in node.children)
                assert branch_total == pytest.approx(1.0, abs=1e-10)
                assert len(node.children) <= n
                stack.extend(child for _, _, child in node.children)
            assert reach == pytest.approx(1.0, abs=1e-10)

    def test_clinched_branches_are_pruned(self):
        spec = ContestSpec([2, 1, 1, 1], [100, 100], objective=WP)
        tree = build_outcome_tree(proportional_profile(2), spec)
        depths = {len(leaf.history) for leaf in tree.leaves()}
        assert 2 in depths  # double win ends the contest early
        assert 4 in depths


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
            want = expected_payoffs(nothing, spec, h)[player] - expected_payoffs(base, spec, h)[player]
            assert deviation_gain(spec, h, player, lowest).gain == want

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

    def test_broke_player_has_no_deviations(self):
        spec = ContestSpec([1, 1], [0.0, 10.0])
        assert deviation_grid(spec, History(), 0) == (0.0,)


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
