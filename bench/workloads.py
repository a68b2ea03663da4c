"""Seeded workload generators for the dynblotto benchmark.

Each workload is a deterministic stream of CLI operations ("ops") made from
the workload seed alone: the same seed gives byte-identical config files.
The program under test only ever sees those config files and the CLI flags.

Every op carries a `record` of the input properties the program's behaviour
depends on (objective, player count n, battle count m, alpha, beta, shocks,
simulate path class and trial count, solve mirror pairing), so a result can
be read without regenerating its inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

EV = "expected_value"
WP = "win_probability"

WORKLOADS = ("exact", "simulate", "solve")

# Trial counts of the two simulate op classes.  Many-path ops run 20k
# trials rather than 100k: at 100k one twelve-battle op alone takes about
# 10 s on a 2-CPU machine, too long for a run to hold a steady median.
MANY_PATH_TRIALS = 20_000
FEW_PATH_TRIALS = 1_000_000


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a command, its config (None for demos) and flags."""

    name: str
    command: str
    config: Optional[dict] = None
    flags: tuple = ()
    record: dict = field(default_factory=dict)

    def argv(self, config_path: Optional[str]) -> list:
        if self.command == "demo":
            head = ["demo", self.record["demo"]]
        else:
            head = [self.command, "--config", config_path]
        return head + list(self.flags) + ["--output", "json"]


# ---------------------------------------------------------------------------
# contest generators


def battle_values(rng: random.Random, m: int, lo: float = 0.5, hi: float = 3.0) -> list:
    """Battle values in [lo, hi], rounded, with no battle worth the rest combined.

    The same family as the repository's property tests (tests/conftest.py).
    """
    while True:
        values = [round(rng.uniform(lo, hi), 4) for _ in range(m)]
        total = sum(values)
        if all(v < total - v for v in values):
            return values


def integer_values(rng: random.Random, m: int) -> list:
    """Battle values drawn from {1, 2, 3}, with no battle worth the rest combined."""
    while True:
        values = [float(rng.randint(1, 3)) for _ in range(m)]
        total = sum(values)
        if all(v < total - v for v in values):
            return values


def contest(values, budgets, objective, alpha=1.0, beta=1.0, shocks=()) -> dict:
    config = {
        "players": [{"budget": b} for b in budgets],
        "battles": [{"value": v} for v in values],
        "objective": objective,
        "csf": {"alpha": alpha, "beta": beta},
    }
    if shocks:
        config["shocks"] = [
            {"player": p, "battle": t, "amount": a} for (p, t), a in sorted(shocks.items())
        ]
    return config


# Range of the seeded scale of a contest's budgets.  It is kept narrow
# because the solver refines spends to an absolute tolerance, so its cost
# grows with the logarithm of the budgets.
SCALES = (0.8, 1.25)


def scaled(config: dict, factor: float) -> dict:
    """The contest with every budget and shock multiplied by `factor`.

    The contest success function is of ratio form and deviations are
    measured in shares of the budget, so the scaled contest has the same
    payoffs and costs the same to evaluate, check or simulate.
    """
    config = dict(config)
    config["players"] = [{"budget": round(p["budget"] * factor, 2)} for p in config["players"]]
    if "shocks" in config:
        config["shocks"] = [dict(s, amount=round(s["amount"] * factor, 2))
                            for s in config["shocks"]]
    return config


def random_shocks(rng: random.Random, n: int, m: int) -> dict:
    shocks = {}
    for _ in range(rng.randint(1, n)):
        shocks[(rng.randrange(n), rng.randint(1, m))] = round(rng.uniform(-20.0, 20.0), 2)
    return shocks


def budgets_for(rng: random.Random, n: int, lo: float = 10.0, hi: float = 100.0) -> list:
    return [round(rng.uniform(lo, hi), 2) for _ in range(n)]


def _record(config: dict, **extra) -> dict:
    record = {
        "objective": config["objective"],
        "n": len(config["players"]),
        "m": len(config["battles"]),
        "alpha": config["csf"]["alpha"],
        "beta": config["csf"]["beta"],
        "shocks": len(config.get("shocks", ())),
    }
    record.update(extra)
    return record


def _op(name, command, config, flags=(), **extra) -> Op:
    return Op(name, command, config, tuple(flags), _record(config, **extra))


# ---------------------------------------------------------------------------
# exact: evaluate and check


# (objective, n, m, alpha, shocked) for the evaluate ops of one cycle.  EV
# ops without shocks are checked against the closed form, the rest against
# brute-force enumeration.
EVALUATE_SLOTS = (
    (EV, 2, 14, 1.0, False),
    (WP, 2, 14, 1.0, False),
    (EV, 3, 8, 0.5, True),
    (WP, 3, 8, 2.0, False),
    (EV, 4, 7, 2.0, False),
    (WP, 4, 7, 0.5, False),
    (WP, 2, 14, 0.5, False),
    (EV, 3, 8, 1.0, False),
    (WP, 3, 8, 1.0, True),
)

# (n, m, alpha, beta, shocked) for the expected-value check ops: the
# deviation-suite family of acceptance criteria 06 and 08.  Four-player
# five-battle sweeps that hold (about 6 s each) are left out to keep the
# cycle short; alpha = 2 refutes near the root, so that size stays in.
EV_CHECK_SLOTS = (
    (2, 3, 0.5, 1.0, False),
    (2, 5, 1.0, 5.0, True),
    (3, 4, 0.5, 1.0, True),
    (3, 5, 1.0, 1.0, False),
    (4, 3, 1.0, 5.0, True),
    (4, 4, 2.0, 1.0, False),
    (3, 3, 2.0, 5.0, True),
    (4, 5, 2.0, 1.0, True),
    (2, 4, 1.0, 1.0, False),
    (3, 5, 2.0, 1.0, False),
)

# (n, m, decisive last battle) for the win-probability check ops.  The last
# one puts the cycle's median op in the middle of a run of ops that cost
# about the same: without it, the median fell between ops of about 100 ms
# and 160 ms and jumped between the two from run to run.
WP_CHECK_SLOTS = (
    (2, 4, True),
    (3, 5, False),
    (2, 5, True),
    (3, 4, False),
    (3, 5, True),
    (2, 4, False),
    (3, 5, True),
)


def decisive_last_values(rng: random.Random, m: int) -> list:
    """Small battles followed by one worth nearly all of them together."""
    small = [round(rng.uniform(0.8, 1.2), 4) for _ in range(m - 1)]
    last = round(sum(small) * rng.uniform(0.6, 0.9), 4)
    return small + [last]


# Win-probability contests draw values from [1, 2] rather than [0.5, 3]:
# with no battle dwarfing the others, how early a contest is decided - and
# so what an op costs - varies less from seed to seed.
WP_VALUE_RANGE = (1.0, 2.0)


def exact_cycle(seed: int) -> list:
    """Evaluate and check ops: fixed contests, each scaled by a seeded factor.

    What an op costs follows the contest it is given: drawn from the seed,
    a cycle's time varied by a quarter between seeds on a shared 2-CPU
    virtual machine, as much as its run-to-run noise.  So the contests are
    drawn from a fixed seed, and the workload seed draws a scale (`SCALES`)
    for each contest's budgets and shocks, which changes the inputs but not
    the work.
    """
    rng = random.Random("exact-contests")
    evaluate_ops = []
    for k, (objective, n, m, alpha, shocked) in enumerate(EVALUATE_SLOTS):
        shocks = random_shocks(rng, n, m) if shocked else {}
        values = battle_values(rng, m, *WP_VALUE_RANGE) if objective == WP else battle_values(rng, m)
        config = contest(values, budgets_for(rng, n), objective, alpha,
                         rng.choice((1.0, 5.0)), shocks)
        evaluate_ops.append(_op(f"evaluate-{k}", "evaluate", config))
    check_ops = []
    for k, (n, m, alpha, beta, shocked) in enumerate(EV_CHECK_SLOTS):
        shocks = random_shocks(rng, n, m) if shocked else {}
        config = contest(battle_values(rng, m), budgets_for(rng, n), EV, alpha, beta, shocks)
        check_ops.append(_op(f"check-ev-{k}", "check", config))
    for k, (n, m, decisive) in enumerate(WP_CHECK_SLOTS):
        values = decisive_last_values(rng, m) if decisive else battle_values(rng, m, *WP_VALUE_RANGE)
        config = contest(values, budgets_for(rng, n, 50.0, 100.0), WP)
        check_ops.append(_op(f"check-wp-{k}", "check", config, decisive_last=decisive))
    # interleave so that every stretch of the cycle mixes both commands
    ops = []
    for k in range(max(len(evaluate_ops), len(check_ops))):
        ops.extend(evaluate_ops[k:k + 1])
        ops.extend(check_ops[2 * k:2 * k + 2])
    scales = random.Random(f"exact:{seed}")
    return [replace(op, config=scaled(op.config, scales.uniform(*SCALES))) for op in ops]


def exact_warmup(seed: int) -> list:
    rng = random.Random(f"exact-warmup:{seed}")
    config = contest(battle_values(rng, 3), budgets_for(rng, 2), EV)
    return [_op("warmup-evaluate", "evaluate", config), _op("warmup-check", "check", config)]


# ---------------------------------------------------------------------------
# simulate: many-path and few-path Monte Carlo

# (path class, objective, n, m, alpha).  Many-path ops reach tens of
# thousands of distinct winner sequences (from m = 10 the visited tree has
# more nodes than the 20k trials), so their time goes into per-node Python
# calls.  Few-path ops have at most 2% as many paths as their million
# trials (n = 4 stops at m = 6 for that reason), so their time goes into
# numpy array work over the trial rows.
SIMULATE_SLOTS = (
    ("few", EV, 2, 5, 1.0),
    ("many", WP, 3, 9, 1.0),
    ("few", WP, 4, 6, 1.0),
    ("many", EV, 3, 10, 1.0),
    ("few", WP, 2, 8, 0.5),
    ("many", WP, 3, 11, 1.0),
    ("few", EV, 4, 5, 2.0),
    ("many", EV, 3, 12, 1.0),
    ("few", WP, 2, 6, 1.0),
    ("many", EV, 3, 9, 0.5),
    ("few", EV, 4, 6, 1.0),
    ("many", WP, 3, 10, 1.0),
)


def simulate_contests():
    """(values, budgets) of the simulate slots, the same for every seed.

    Battle values are integers so the exact reference payoff can be computed
    by merging equal contest states.  Many-path win-probability ops use equal
    values and many-path ops budgets in [60, 100].  A simulate op's cost
    follows its values and budget ratios: drawn from the seed, one slot's
    latency varied by up to 40% between seeds.  So the contests are drawn
    once, from a fixed seed.
    """
    family = random.Random("simulate-contests")
    for kind, objective, n, m, _ in SIMULATE_SLOTS:
        if kind == "many":
            values = [1.0] * m if objective == WP else integer_values(family, m)
            yield values, budgets_for(family, n, 60.0, 100.0)
        else:
            yield integer_values(family, m), budgets_for(family, n, 40.0, 100.0)


def simulate_cycle(seed: int) -> list:
    """Simulate ops: the fixed contests, scaled, with seeded trial streams.

    The seed draws each op's simulation seed and a scale of its budgets;
    neither changes how the trials spread over paths, so the op costs the
    same for every seed.
    """
    rng = random.Random(f"simulate:{seed}")
    ops = []
    for k, ((kind, objective, n, m, alpha), (values, budgets)) in enumerate(
            zip(SIMULATE_SLOTS, simulate_contests())):
        trials = MANY_PATH_TRIALS if kind == "many" else FEW_PATH_TRIALS
        config = scaled(contest(values, budgets, objective, alpha), rng.uniform(*SCALES))
        op_seed = rng.randrange(2**31)
        ops.append(_op(f"simulate-{kind}-{k}", "simulate", config,
                       ("--trials", str(trials), "--seed", str(op_seed)),
                       path_class=f"{kind}-path", trials=trials, paths_bound=n**m,
                       sim_seed=op_seed))
    return ops


def simulate_warmup(seed: int) -> list:
    rng = random.Random(f"simulate-warmup:{seed}")
    config = contest(integer_values(rng, 3), budgets_for(rng, 2, 40.0, 100.0), WP)
    return [_op("warmup-simulate", "simulate", config, ("--trials", "1000", "--seed", "1"),
                path_class="few-path", trials=1000, paths_bound=8, sim_seed=1)]


# ---------------------------------------------------------------------------
# solve: two-player win-probability backward induction, plus the demos

DEMOS = ("example1", "prop1", "example2", "example3")

def solve_vectors() -> list:
    """(values, mirrored) of the solve contests, the same for every seed.

    A solve spends nearly all its time building value tables, which depend
    on the battle values alone (budgets enter only through the on-path
    stage solves), and that time varies by a factor of two between value
    vectors of one size.  Fixing the vectors makes every seed time the same
    work.  They are three equal battles (1, 1, 1), the first three- and
    four-battle vectors of the property-test family drawn from a fixed seed,
    and the five-battle ramp (1, 2, 3, 4, 5).  `mirrored` marks a vector
    solved twice, at a budget pair and at its mirror: half of the vectors.

    The four-battle vector is the mirrored one that sets `op_p50_ms`.  Of
    the ten ops, four take under half a second, its two solves 2-3.5 s and
    the other four longer, so the median is the mean of those two, not the
    midpoint of a 0.4 s op and a 2.5 s one.
    """
    family = random.Random("solve-values")
    return [
        ([1.0, 1.0, 1.0], False),
        (battle_values(family, 3), True),
        (battle_values(family, 4), True),
        ([1.0, 2.0, 3.0, 4.0, 5.0], False),
    ]


def solve_stream(seed: int) -> list:
    """The demos, then the solve contests: ten ops, every spec distinct.

    The budget pairs are fixed too, since the on-path stage solves follow
    the budget ratio: drawn from the seed, the five-battle solve's time
    varied by 10% and a three-battle one's by 20%.  The seed draws a scale
    of each vector's budgets.  On a 2-CPU machine the ten ops take 28-51 s,
    of which the five-battle solve takes 10-21 s.
    """
    family = random.Random("solve-budgets")
    rng = random.Random(f"solve:{seed}")
    ops = [Op(f"demo-{name}", "demo", None, (), {"demo": name}) for name in DEMOS]
    for vector, (values, mirrored) in enumerate(solve_vectors()):
        budgets = budgets_for(family, 2, 30.0, 100.0)
        while budgets[0] == budgets[1]:
            budgets = budgets_for(family, 2, 30.0, 100.0)
        scale = rng.uniform(*SCALES)
        pairs = (budgets, budgets[::-1]) if mirrored else (budgets,)
        for side, pair in enumerate(pairs):
            ops.append(_op(f"solve-v{vector}-{side}", "solve",
                           scaled(contest(values, pair, WP), scale),
                           vector=vector, mirror_side=side if mirrored else None,
                           value_repeats=mirrored))
    return ops


def solve_warmup(seed: int) -> list:
    """Three equal battles of value 2: cheap to solve, and unlike any timed spec."""
    rng = random.Random(f"solve-warmup:{seed}")
    budgets = budgets_for(rng, 2, 30.0, 100.0)
    return [_op("warmup-solve", "solve", contest([2.0, 2.0, 2.0], budgets, WP),
                vector=None, mirror_side=None, value_repeats=False)]


# ---------------------------------------------------------------------------


# Nominal seconds of one pass over a cycling workload's ops on a 2-CPU
# machine.  A run makes round(--seconds / this) passes, at least one, so the
# ops a run times are set by --seconds alone and not by the machine's speed
# at the time: a shared 2-CPU virtual machine runs the same code up to 1.45x
# faster or slower from one stretch of seconds or minutes to the next.  Ops of one workload differ in
# cost by up to a hundred times, and a run cut off by the clock would move
# the median and the tail percentile with the number of ops it reached.
PASS_SECONDS = {"exact": 6.0, "simulate": 16.0}


def generate(workload: str, seed: int) -> tuple:
    """(ops of one pass, warm-up ops)."""
    if workload == "exact":
        return exact_cycle(seed), exact_warmup(seed)
    if workload == "simulate":
        return simulate_cycle(seed), simulate_warmup(seed)
    if workload == "solve":
        return solve_stream(seed), solve_warmup(seed)
    raise ValueError(f"unknown workload {workload!r}")


def passes(workload: str, seconds: float) -> int:
    """Passes over the ops that a run of `seconds` makes.

    A solve run makes one: its ten ops take about 30 s, and a second pass
    would repeat specs and hit the solver's table cache.
    """
    if workload == "solve":
        return 1
    return max(1, round(seconds / PASS_SECONDS[workload]))


def write_configs(ops, directory: Path) -> dict:
    """Write one JSON config per op that has one; returns op name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        if op.config is None:
            continue
        path = directory / f"{op.name}.json"
        path.write_text(json.dumps(op.config, sort_keys=True, indent=1) + "\n")
        paths[op.name] = str(path)
    return paths


def input_record(ops) -> dict:
    """Summary of the input properties of a list of ops."""
    by_command = {}
    for op in ops:
        by_command[op.command] = by_command.get(op.command, 0) + 1
    summary = {"ops": len(ops), "by_command": by_command}
    contests = [op for op in ops if op.command == "solve"]
    if contests:
        repeats = sum(1 for op in contests if op.record.get("value_repeats"))
        summary["solve_value_repeat_share"] = repeats / len(contests)
    sims = [op for op in ops if op.command == "simulate"]
    if sims:
        summary["simulate_many_path_ops"] = sum(
            1 for op in sims if op.record["path_class"] == "many-path")
        summary["simulate_few_path_ops"] = len(sims) - summary["simulate_many_path_ops"]
    return summary
