"""Spans around the library's public calls, installed by rebinding attributes.

Only the traced run of the benchmark installs these wrappers, and only around
the call it traces; the library's source is never changed. A span records
its call count, the inclusive duration of every call, and its self time,
which is its duration minus the time of the spans opened inside it.
"""

import statistics
import time
from typing import Callable, Dict, List

from repart import adversaries, components, core, engine, greedy, offline

# (span name, owner, attribute). Rebinding the module attribute that the
# caller looks up reaches every call: engine.run looks up apply_moves and
# serve_cost in repart.engine, the component algorithm looks up its searches
# in repart.components, and the partition space looks up min_migration_cost
# and enumerate_partitions in repart.offline.
TARGETS = (
    ("adversaries.next", adversaries.PlantedPartition, "next"),
    ("adversaries.next", adversaries.RandomPairs, "next"),
    ("adversaries.next", adversaries.PairChase, "next"),
    ("engine.run", engine, "run"),
    ("core.apply_moves", engine, "apply_moves"),
    ("core.serve_cost", engine, "serve_cost"),
    ("core.nodes_in", core.Configuration, "nodes_in"),
    ("core.min_migration_cost", offline, "min_migration_cost"),
    ("greedy.step", greedy.GreedyMatcher, "step"),
    ("naive.step", engine.NaiveCollocator, "step"),
    ("components.step", components.ComponentRepartitioner, "step"),
    ("components.find_merge_set", components, "find_merge_set"),
    ("components.find_epoch_set", components, "find_epoch_set"),
    ("components.check_invariants", components.ComponentRepartitioner,
     "check_invariants"),
    ("components.residual_merge_set", components.ComponentRepartitioner,
     "residual_merge_set"),
    ("offline.space", offline.PartitionSpace, "__init__"),
    ("offline.enumerate", offline, "enumerate_partitions"),
    ("offline.transitions", offline.PartitionSpace, "transitions"),
    ("offline.sweep", offline, "optimal_cost"),
    ("offline.static", offline, "static_optimal"),
)
SPANS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
# The component step's self time is everything but its two searches.
SELF_NAMES = {"components.step": "components.bookkeeping"}
COUNTERS = ("core.apply_moves.moves", "greedy.swaps", "greedy.swap_nodes_in",
            "naive.swaps", "components.find_merge_set.hits",
            "components.find_epoch_set.hits", "components.moves",
            "components.largest_component", "offline.states")


class Tracer:
    """Collects spans and counters for the calls made while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.durations: Dict[str, List[float]] = {name: [] for name in SPANS}
        self.self_s: Dict[str, float] = dict.fromkeys(SPANS, 0.0)
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        # [name, seconds in child spans, nodes_in calls before it]
        self._stack: List[List] = []
        self._saved = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, durations, self_s = self._stack, self.durations, self.self_s
        clock = self.clock
        nodes_in = durations["core.nodes_in"]
        observe = getattr(self, "_after_" + name.replace(".", "_"), None)
        residual = name == "components.find_merge_set"

        def span(*args, **kwargs):
            if residual and stack and stack[-1][0] == "components.residual_merge_set":
                # its re-search is the residual check's own work
                return fn(*args, **kwargs)
            frame = [name, 0.0, len(nodes_in)]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                durations[name].append(dt)
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(args, out, frame)
            return out

        return span

    def _after_core_apply_moves(self, args, out, frame):
        self.counters["core.apply_moves.moves"] += len(args[1])

    def _after_greedy_step(self, args, out, frame):
        if out[0] or out[1]:
            self.counters["greedy.swaps"] += 1
            self.counters["greedy.swap_nodes_in"] += (
                len(self.durations["core.nodes_in"]) - frame[2])

    def _after_naive_step(self, args, out, frame):
        if out[0] or out[1]:
            self.counters["naive.swaps"] += 1

    def _after_components_step(self, args, out, frame):
        alg = args[0]
        self.counters["components.moves"] += len(out[0]) + len(out[1])
        largest = max(len(nodes) for nodes in alg.comp_nodes.values())
        if largest > self.counters["components.largest_component"]:
            self.counters["components.largest_component"] = largest

    def _after_components_find_merge_set(self, args, out, frame):
        if len(out) > 1:
            self.counters["components.find_merge_set.hits"] += 1

    def _after_components_find_epoch_set(self, args, out, frame):
        if out:
            self.counters["components.find_epoch_set.hits"] += 1

    def _after_offline_space(self, args, out, frame):
        self.counters["offline.states"] += len(args[0])

    def install(self):
        for name, owner, attr in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def metrics(self, scale: float = 1.0) -> Dict[str, float]:
        """Per-span calls, self time and per-call p50/p99, plus counters.

        Times are multiplied by `scale`.
        """
        out: Dict[str, float] = {}
        for name in SPANS:
            d = self.durations[name]
            out[name + ".calls"] = len(d)
            out[SELF_NAMES.get(name, name) + ".self_s"] = self.self_s[name] * scale
            us = scale * 1e6
            out[name + ".p50_us"] = statistics.median(d) * us if d else 0.0
            out[name + ".p99_us"] = (statistics.quantiles(d, n=100)[98] * us
                                     if len(d) > 1 else sum(d) * us)
        out.update(self.counters)
        swaps = self.counters["greedy.swaps"]
        out["greedy.nodes_in_per_swap"] = (
            self.counters["greedy.swap_nodes_in"] / swaps if swaps else 0.0)
        return out
