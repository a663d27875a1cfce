"""The benchmark's workloads: seeded inputs, two timed operations each, checks.

Every workload times two operations, a baseline and a subject, on inputs
made from the run's seed. An operation is done in rounds; round r draws its
inputs from sub_seed(seed, r), so a run averages over several independent
inputs and the same seed always yields the same sequence of rounds. A round
is a list of cases, and a case is one timed call into the library: an
`engine.run` or a cold offline oracle. Inputs are built before the timer
starts; only the call itself is timed.

The library is driven through its public entry points only: `cli.RunSpec`
with `cli.initial_for`, `cli.make_algorithm` and `cli.make_source`, then
`engine.run`, `offline.optimal_cost` and `offline.static_optimal`. Module
attributes are looked up at call time so that the traced run can rebind them.
"""

import dataclasses
import hashlib
import random
from typing import Callable, Dict, List, Optional

from repart import cli, engine, offline
from repart.core import Request, new_configuration

# Instance shapes and run lengths. A round is a few seconds of work at the
# speed of the code this benchmark was written against, and still at least a
# millisecond once the roadmap's speed targets are met.
WIDE = dict(n=4096, k=2, l=2048, alpha=2, p_in=0.9, p_out=0.1)
WIDE_NULL_STEPS = 300
# Greedy on `wide` spends its time in the rare steps that swap, and how soon
# swaps come depends on the seed. Ending each stream at its second swap keeps
# the share of swap steps, and so the cost per step, close to seed-free.
WIDE_GREEDY_SWAPS = 2
WIDE_GREEDY_MAX_STEPS = 5000
CHASE = dict(n=4096, k=2, l=2048, alpha=2)
CHASE_STEPS = 300
CHASE_PHASES = 10 ** 9        # the run length, not the phase count, ends it
CHASE_GREEDY_LAM = 3
GRID = dict(n=16, k=4, l=4, alpha=3, delta=4)
GRID_STEPS = 100
# (label, n, k, ell, requests): matrix-bound and sweep-bound oracle inputs
ORACLE_INSTANCES = (("m105", 8, 2, 4, 20), ("m280", 9, 3, 3, 400))
ORACLE_ALPHA = 2


def sub_seed(seed: int, r: int) -> int:
    return seed * 100_000 + r


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class CheckFailed(Exception):
    """A per-step check of the verify observer failed."""


class MoveCap:
    """Algorithm and source in one: ends the stream after `limit` move steps."""

    def __init__(self, alg, src, limit: int):
        self.alg, self.src, self.limit = alg, src, limit
        self.moved = 0

    def step(self, config, request):
        pre, post = self.alg.step(config, request)
        if pre or post:
            self.moved += 1
        return pre, post

    def next(self, config):
        return None if self.moved >= self.limit else self.src.next(config)


def _verify_observer(alg) -> Callable:
    """The per-step check `repart verify` runs on the component algorithm."""

    def observer(t, config, req, comm, mig):
        errs = alg.check_invariants(config)
        if not errs and len(alg.residual_merge_set()) > 1:
            errs = ["qualifying merge set survived the step"]
        if errs:
            raise CheckFailed("step %d: %s" % (t, "; ".join(errs)))

    return observer


@dataclasses.dataclass
class RunCase:
    """One `engine.run` call on a freshly built algorithm and source."""

    label: str
    params: object
    alg: object
    src: object
    initial: object
    steps: int
    verify: bool = False
    move_cap: Optional[int] = None

    def call(self):
        alg, src = self.alg, self.src
        if self.move_cap is not None:
            alg = src = MoveCap(self.alg, self.src, self.move_cap)
        observer = _verify_observer(self.alg) if self.verify else None
        return engine.run(alg, src, self.params, self.initial, self.steps,
                          observer=observer)

    @staticmethod
    def requests(transcript) -> int:
        return len(transcript.steps)

    @staticmethod
    def lines(transcript) -> str:
        return "\n".join(transcript.step_lines())

    def summary(self, transcript) -> Dict[str, object]:
        """The simulated results, compared against references and twins."""
        ledger = transcript.ledger
        return {"steps": len(transcript.steps), "comm": ledger.comm_total,
                "mig": ledger.mig_total,
                "final": short_digest(transcript.snapshots[-1][1].canonical()),
                "lines": short_digest(self.lines(transcript))}

    def check(self, transcript) -> List[str]:
        """Checks that hold for every seed."""
        errs = []
        ledger, replayed = transcript.ledger, transcript.replay()
        if (replayed.comm_total, replayed.mig_total, replayed.per_step) != (
                ledger.comm_total, ledger.mig_total, ledger.per_step):
            errs.append("replay disagrees with the live ledger")
        served = len(transcript.steps)
        if self.move_cap is None and served != self.steps:
            errs.append("served %d of %d steps" % (served, self.steps))
        if self.move_cap is not None and served == 0:
            errs.append("served no steps")
        if hasattr(self.alg, "check_invariants"):
            errs += self.alg.check_invariants()
        return errs


@dataclasses.dataclass
class OracleCase:
    """One cold offline solve: no partition space is passed in."""

    label: str
    oracle: str                  # "optimal_cost" or "static_optimal"
    stream: List[Request]
    params: object
    initial: object

    def call(self):
        return getattr(offline, self.oracle)(self.stream, self.params,
                                             self.initial)

    def requests(self, result) -> int:
        return len(self.stream)

    @staticmethod
    def lines(result) -> str:
        return repr(result)

    @staticmethod
    def summary(result) -> Dict[str, object]:
        return {"opt": result[0]}

    @staticmethod
    def check(result) -> List[str]:
        return [] if result[0] >= 0 else ["negative optimum %r" % (result[0],)]


def _stream(label: str, spec: cli.RunSpec, alg_spec=None, initial=None,
            **case_args) -> RunCase:
    spec.validate()
    if initial is None:
        initial = cli.initial_for(spec)
    alg = cli.make_algorithm(alg_spec or spec, initial)
    start = alg.start if spec.alg == "components" else initial
    return RunCase(label, spec.params(), alg, cli.make_source(spec), start,
                   spec.steps, **case_args)


def _shuffled_placement(seed: int, n: int, k: int, ell: int):
    """A balanced placement with node labels permuted by the seed."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assignment = [0] * n
    for i, v in enumerate(perm):
        assignment[v] = i // k
    return new_configuration(assignment, ell, k)


def _wide(op: str, s: int) -> List:
    if op == "null":
        spec = cli.RunSpec(alg="null", source="planted", seed=s,
                           steps=WIDE_NULL_STEPS, oracle="none", **WIDE)
        return [_stream("planted", spec)]
    spec = cli.RunSpec(alg="greedy", source="planted", seed=s,
                       steps=WIDE_GREEDY_MAX_STEPS, oracle="none", **WIDE)
    return [_stream("planted", spec, move_cap=WIDE_GREEDY_SWAPS)]


def _chase(op: str, s: int) -> List:
    spec = cli.RunSpec(alg=op, source="pair_chase", lam=CHASE_PHASES,
                       steps=CHASE_STEPS, oracle="none", **CHASE)
    initial = _shuffled_placement(s, CHASE["n"], CHASE["k"], CHASE["l"])
    alg_spec = dataclasses.replace(spec, lam=CHASE_GREEDY_LAM)
    return [_stream("pair_chase", spec, alg_spec, initial=initial)]


def _grid(op: str, s: int) -> List:
    cases = []
    for source in ("planted", "random"):
        spec = cli.RunSpec(alg="components", source=source, seed=s,
                           steps=GRID_STEPS, oracle="none", **GRID)
        cases.append(_stream(source, spec, verify=(op == "verify")))
    return cases


def _oracle(op: str, s: int) -> List:
    cases = []
    for i, (label, n, k, ell, count) in enumerate(ORACLE_INSTANCES):
        spec = cli.RunSpec(alg="null", source="random", n=n, k=k, l=ell,
                           alpha=ORACLE_ALPHA, seed=s * 2 + i, steps=count,
                           oracle="none")
        spec.validate()
        initial = cli.initial_for(spec)
        src = cli.make_source(spec)
        stream = []
        while (req := src.next(initial)) is not None:
            stream.append(Request(req.u, req.v, len(stream) + 1))
        fn = "static_optimal" if op == "static" else "optimal_cost"
        cases.append(OracleCase(label, fn, stream, spec.params(), initial))
    return cases


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    baseline: str
    subject: str
    build: Callable[[str, int], List]

    @property
    def ops(self):
        return (self.baseline, self.subject)

    def cases(self, op: str, seed: int, r: int) -> List:
        return self.build(op, sub_seed(seed, r))


WORKLOADS = {w.name: w for w in (
    Workload("wide", "null", "greedy", _wide),
    Workload("chase", "naive", "greedy", _chase),
    Workload("grid", "components", "verify", _grid),
    Workload("oracle", "static", "dp", _oracle),
)}


def cross_check(workload: str, summaries: Dict[str, Dict[int, Dict]]) -> List[str]:
    """Checks between the two operations of one workload, round by round."""
    w = WORKLOADS[workload]
    base, subj = summaries.get(w.baseline, {}), summaries.get(w.subject, {})
    errs = []
    for r in sorted(set(base) & set(subj)):
        if workload == "grid" and base[r] != subj[r]:
            errs.append("round %d: verify observer changed the run" % r)
        if workload == "oracle":
            for label, static in base[r].items():
                if subj[r][label]["opt"] > static["opt"]:
                    errs.append("round %d %s: dp %d above static %d"
                                % (r, label, subj[r][label]["opt"],
                                   static["opt"]))
    return errs
