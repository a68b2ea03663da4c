"""Outside-in tracing of dynblotto's layers.

The tracer wraps the public functions through which one module calls
another, in every `dynblotto` module namespace that binds them (for example
`dynblotto.strategies.terminal_status` as well as
`dynblotto.core.terminal_status`), so internal calls are seen too.  Each
wrapped call is timed; nesting gives every layer's self time (its time minus
that of the wrapped calls it makes).

Spans (id, parent id, op id, name, start, end) are kept for the op itself
and for layer entries above the hot path.  The hot functions - the `core`
rules, `allocations_at` and `expected_payoffs` - run 10**4 to 10**6 times per
op, so they are only aggregated: per-op call counts and total time.
Everything is kept in memory and written out by `write`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

from dynblotto.core import ContestSpec, Objective

# (module, function, layer, hot).  A layer of None means "by objective":
# evaluation.ev or evaluation.wp, from the contest the call evaluates.
TRACED = (
    ("core", "terminal_status", "core", True),
    ("core", "remaining_budget", "core", True),
    ("core", "is_guaranteed_loser", "core", True),
    ("strategies", "allocations_at", "strategies", True),
    ("evaluation", "expected_payoffs", None, True),
    ("evaluation", "deviation_gains", None, False),
    ("equilibrium", "check_proportionality", "equilibrium.check", False),
    ("equilibrium", "solve_backward", "equilibrium.solve", False),
    ("equilibrium", "stage_equilibrium", "equilibrium.solve", False),
    ("montecarlo", "simulate", "montecarlo", False),
    ("cli", "load_config", "cli", False),
    ("cli", "format_report", "cli", False),
)

HOT = tuple(f"{module}.{function}" for module, function, _, hot in TRACED if hot)

# Calls of `allocations_at` are attributed to the nearest enclosing call of
# one of these; expected_payoffs is split by objective (".ev" or ".wp").
CONTEXTS = ("evaluation.expected_payoffs", "montecarlo.simulate")


def _spec_in(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, ContestSpec):
            return value
    return None


def _objective_layer(args, kwargs) -> str:
    spec = _spec_in(args, kwargs)
    if spec is not None and spec.objective is Objective.WIN_PROBABILITY:
        return "evaluation.wp"
    return "evaluation.ev"


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self):
        self.stack = []  # frames: [child seconds, context, nearest span id]
        self.spans = []
        self.ops = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.allocations_in = defaultdict(int)  # context -> allocations_at calls
        self.context_calls = defaultdict(int)
        self.trials = 0
        self.stage_solves = 0
        self.br_iterations = 0
        self.worst_residual = 0.0
        self._op_id = None
        self._next_span = 0
        self._patched = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dynblotto" or name.startswith("dynblotto."))]
        for module_name, function, layer, hot in TRACED:
            module = importlib.import_module(f"dynblotto.{module_name}")
            original = getattr(module, function, None)
            if original is None:
                continue  # a later version may drop the function; its counts stay 0
            wrapper = self._wrap(f"{module_name}.{function}", original, layer, hot)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, name, function, layer, hot):
        tracer = self
        perf = time.perf_counter
        layer_of = _objective_layer if layer is None else (lambda args, kwargs: layer)
        sets_context = name in CONTEXTS
        counts_allocations = name == "strategies.allocations_at"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return function(*args, **kwargs)
            parent = stack[-1]
            this_layer = layer_of(args, kwargs)
            frame = [0.0, parent[1], parent[2]]
            if sets_context:
                frame[1] = name if layer is not None else f"{name}.{this_layer[-2:]}"
                tracer.context_calls[frame[1]] += 1
            if not hot:
                frame[2] = tracer._new_span_id()
            stack.append(frame)
            start = perf()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                tracer.self_seconds[this_layer] += elapsed - frame[0]
                tracer.calls[name] += 1
                tracer.seconds[name] += elapsed
                if counts_allocations:
                    tracer.allocations_in[parent[1]] += 1
                if not hot:
                    tracer.spans.append((frame[2], parent[2], tracer._op_id, name, start, end))
            tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _new_span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "montecarlo.simulate":
            self.trials += result.trials
        elif name == "equilibrium.solve_backward":
            solutions = list(result.solutions.values())
            self.stage_solves += len(solutions)
            self.br_iterations += sum(s.iterations for s in solutions)
            self.worst_residual = max([self.worst_residual] + [s.residual for s in solutions])

    # -- ops ---------------------------------------------------------------

    def run_op(self, op_id, op_name, call):
        """Run `call()` as one op span; returns its result."""
        hot_before = {name: (self.calls[name], self.seconds[name]) for name in HOT}
        self._op_id = op_id
        frame = [0.0, None, self._new_span_id()]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.self_seconds["cli"] += (end - start) - frame[0]
            self.spans.append((frame[2], None, op_id, "cli.main", start, end))
            self.ops.append({
                "op_id": op_id,
                "op": op_name,
                "span": frame[2],
                "seconds": end - start,
                "hot_calls": {
                    name: {"calls": self.calls[name] - calls,
                           "seconds": self.seconds[name] - seconds}
                    for name, (calls, seconds) in hot_before.items()
                },
            })
            self._op_id = None

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, as name -> (value, unit)."""
        def ratio(a, b):
            return a / b if b else 0.0

        calls = self.calls
        simulate_seconds = self.seconds["montecarlo.simulate"]
        ev_evals = self.context_calls["evaluation.expected_payoffs.ev"]
        wp_evals = self.context_calls["evaluation.expected_payoffs.wp"]
        return {
            "core.terminal_status.calls": (calls["core.terminal_status"], "count"),
            "core.remaining_budget.calls": (calls["core.remaining_budget"], "count"),
            "core.is_guaranteed_loser.calls": (calls["core.is_guaranteed_loser"], "count"),
            "core.self_s": (self.self_seconds["core"], "s"),
            "strategies.allocations_at.calls": (calls["strategies.allocations_at"], "count"),
            "strategies.self_s": (self.self_seconds["strategies"], "s"),
            "evaluation.expected_payoffs.calls": (calls["evaluation.expected_payoffs"], "count"),
            "evaluation.deviation_gains.calls": (calls["evaluation.deviation_gains"], "count"),
            "evaluation.ev.allocations_per_eval": (
                ratio(self.allocations_in["evaluation.expected_payoffs.ev"], ev_evals), "calls/eval"),
            "evaluation.wp.allocations_per_eval": (
                ratio(self.allocations_in["evaluation.expected_payoffs.wp"], wp_evals), "calls/eval"),
            "evaluation.ev.self_s": (self.self_seconds["evaluation.ev"], "s"),
            "evaluation.wp.self_s": (self.self_seconds["evaluation.wp"], "s"),
            "equilibrium.check.self_s": (self.self_seconds["equilibrium.check"], "s"),
            "equilibrium.solve.self_s": (self.self_seconds["equilibrium.solve"], "s"),
            "equilibrium.stage_solves": (self.stage_solves, "count"),
            "equilibrium.br_iterations": (self.br_iterations, "count"),
            "equilibrium.worst_residual": (self.worst_residual, "payoff"),
            "equilibrium.stage_equilibrium.calls": (calls["equilibrium.stage_equilibrium"], "count"),
            "montecarlo.nodes_per_trial": (
                ratio(self.allocations_in["montecarlo.simulate"], self.trials), "nodes/trial"),
            "montecarlo.trials_per_s": (ratio(self.trials, simulate_seconds), "trials/s"),
            "montecarlo.self_s": (self.self_seconds["montecarlo"], "s"),
            "cli.load_config.s": (self.seconds["cli.load_config"], "s"),
            "cli.format_report.s": (self.seconds["cli.format_report"], "s"),
            "cli.self_s": (self.self_seconds["cli"], "s"),
        }

    def write(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in self.metrics().items()}
        payload["layer_self_s"] = dict(self.self_seconds)
        payload["calls"] = dict(self.calls)
        payload["ops"] = self.ops
        payload["span_fields"] = ["id", "parent", "op_id", "name", "start", "end"]
        payload["spans"] = self.spans
        with open(path, "w") as handle:
            json.dump(payload, handle)
