"""Run harness: drives an online algorithm against a request source.

Each step: the source emits a request (seeing the current online
configuration), the algorithm returns moves, and costs land in a ledger.
A source ends the stream by returning None instead of a request.
Moves come in two batches: pre-serve moves take effect before the request
is charged, post-serve moves after. Component-based repartitioning uses
the pre slot; the greedy rematcher swaps only after the triggering request
has been paid, so it uses the post slot.

A step costs O(moves * k) in the harness at any n: `apply_moves` moves
the nodes of the one configuration a run is given, in place, and `run`
calls it only on a non-empty batch. The transcript keeps the first
assignment as a tuple, from which `Transcript.initial` builds a fresh
placement for `replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Protocol, Tuple, Union

from .core import (
    Configuration,
    CostLedger,
    PairCounts,
    Params,
    RepartError,
    Request,
    apply_moves,
    serve_cost,
)

# Sentinels for degenerate online/offline cost ratios.
INFINITE = float("inf")
UNDEFINED = None

Move = Tuple[int, int]


class AdversaryStuck(RepartError):
    """The source cannot produce a legal next request."""


class OnlineAlgorithm(Protocol):
    def step(self, config: Configuration,
             request: Request) -> Tuple[List[Move], List[Move]]:
        """Return (pre_serve_moves, post_serve_moves) for this request."""
        ...


class RequestSource(Protocol):
    def next(self, config: Configuration) -> Optional[Request]:
        """Emit the next request given the online configuration, or None."""
        ...


@dataclass(slots=True)
class StepRecord:
    """One served request, its moves and costs."""

    t: int
    u: int
    v: int
    pre_moves: Tuple[Move, ...]
    post_moves: Tuple[Move, ...]
    comm: int
    mig: int


@dataclass
class Transcript:
    """Everything needed to audit or replay a run: the assignment before
    the first step, on its cluster count and capacity, and the steps.
    `snapshots` holds one (steps served, final configuration) entry."""

    params: Params
    first: Tuple[int, ...]
    cluster_count: int
    cluster_capacity: int
    steps: List[StepRecord] = field(default_factory=list)
    snapshots: List[Tuple[int, Configuration]] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def initial(self) -> Configuration:
        """A fresh placement as it stood before the first step."""
        return Configuration(self.first, self.cluster_count,
                             self.cluster_capacity)

    def requests(self) -> List[Request]:
        return [Request(s.u, s.v, s.t) for s in self.steps]

    def replay(self) -> CostLedger:
        """Re-apply the recorded moves from the initial configuration."""
        config = self.initial
        ledger = CostLedger()
        for s in self.steps:
            config, mig_pre = apply_moves(config, s.pre_moves, self.params.alpha)
            comm = serve_cost(config, Request(s.u, s.v, s.t))
            config, mig_post = apply_moves(config, s.post_moves, self.params.alpha)
            ledger.record(comm, mig_pre + mig_post)
        return ledger

    def step_lines(self) -> List[str]:
        """One line per step: t,u,v,moves,comm,mig with pre/post split by '/'."""
        out = []
        for s in self.steps:
            pre = ";".join("%d>%d" % m for m in s.pre_moves)
            post = ";".join("%d>%d" % m for m in s.post_moves)
            moves = pre + ("/" + post if post else "")
            out.append("%d,%d,%d,%s,%d,%d" % (s.t, s.u, s.v, moves, s.comm, s.mig))
        return out


Observer = Callable[[int, Configuration, Request, int, int], None]


def run(alg: OnlineAlgorithm, src: RequestSource, params: Params,
        initial: Configuration, max_steps: int,
        observer: Optional[Observer] = None) -> Transcript:
    """Drive alg against src for at most max_steps requests, moving
    `initial` in place; it ends as the transcript's final configuration.

    The observer, when given, is called after every completed step with
    (t, config, request, comm_t, mig_t); verification hooks live there.
    AdversaryStuck and algorithm errors propagate to the caller.
    """
    config = initial
    transcript = Transcript(params, initial.assignment, initial.cluster_count,
                            initial.cluster_capacity)
    # bound once per run; apply_moves and serve_cost stay module lookups
    source_next, alg_step, alpha = src.next, alg.step, params.alpha
    record, append = transcript.ledger.record, transcript.steps.append
    for t in range(1, max_steps + 1):
        req = source_next(config)
        if req is None:
            break
        req = Request(req.u, req.v, t)
        pre_moves, post_moves = alg_step(config, req)
        mig = 0
        if pre_moves:           # an empty batch changes nothing and costs 0
            config, mig = apply_moves(config, pre_moves, alpha)
        comm = serve_cost(config, req)
        if post_moves:
            config, mig_post = apply_moves(config, post_moves, alpha)
            mig += mig_post
        record(comm, mig)
        append(StepRecord(t, req.u, req.v, tuple(pre_moves), tuple(post_moves),
                          comm, mig))
        if observer is not None:
            observer(t, config, req, comm, mig)
    transcript.snapshots.append((len(transcript.steps), config))
    return transcript


def ratio(online_total: int, offline_total: int) -> Union[Fraction, float, None]:
    """Exact online/offline ratio; INFINITE or UNDEFINED on a zero divisor."""
    if offline_total == 0:
        return UNDEFINED if online_total == 0 else INFINITE
    return Fraction(online_total, offline_total)


def format_ratio(r) -> str:
    if r is UNDEFINED:
        return "undefined"
    if r == INFINITE:
        return "inf"
    return "%d/%d" % (r.numerator, r.denominator)


class NullAlgorithm:
    """Never moves anything; pays for every split request."""

    def step(self, config, request):
        return [], []


class NaiveCollocator:
    """Unaugmented baseline: collocate a pair once it was requested
    2 * alpha times while split.

    The higher-id endpoint migrates into the other endpoint's cluster and
    swaps with the least recently requested node there (never-requested
    first, lowest id breaking ties). The swap happens after the triggering
    request is served. Pair counters touching the two swapped nodes reset.
    """

    def __init__(self, params: Params):
        self.params = params
        self.pairs = PairCounts()
        self.last_requested = {}  # node -> last step it appeared in a request

    def step(self, config: Configuration, request: Request):
        u, v = request.u, request.v
        self.last_requested[u] = request.t
        self.last_requested[v] = request.t
        if config.cluster_of(u) == config.cluster_of(v):
            return [], []
        # at k = 1 no cluster holds a pair, so there is nothing to collocate
        if self.pairs.add(u, v) < 2 * self.params.alpha or self.params.k == 1:
            return [], []
        mover, stay = (u, v) if u > v else (v, u)
        target = config.cluster_of(stay)
        candidates = [w for w in config.nodes_in(target) if w != stay]
        evictee = min(candidates,
                      key=lambda w: (self.last_requested.get(w, -1), w))
        self.pairs.drop(mover)
        self.pairs.drop(evictee)
        return [], [(mover, target), (evictee, config.cluster_of(mover))]
