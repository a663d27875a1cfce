"""Request sources: adaptive adversaries, random streams, and trace files.

Every source exposes ``next(config) -> Request | None``. Adaptive sources
inspect the online configuration they are handed and answer with the next
request of their construction; returning None tells the harness the stream
is over, and a finished source keeps returning None. Sources never mutate
the configuration.
"""

import random
from typing import List, Optional, Sequence, Tuple

from .core import (Configuration, GeometryError, Params, RepartError, Request,
                   new_configuration)
from .engine import AdversaryStuck


class ParseError(RepartError):
    """A trace line that does not parse; carries the 1-based line number."""


class NodeOutOfRange(RepartError):
    """A trace or paging item referencing a node outside [0, n)."""


class MalformedPagingSequence(RepartError):
    pass


class BadProbability(RepartError):
    pass


# ---------------------------------------------------------------------------
# Ring


class RingAdversary:
    """Always requests the smallest-index ring edge the online config cuts.

    The ring has edges e_i = {i-1, i mod n} for i = 1..n. While the online
    algorithm keeps at least one ring edge split, the stream depends only on
    the configurations it is shown, so replays are deterministic.
    """

    def __init__(self, params: Params):
        self.n = params.n

    def next(self, config: Configuration) -> Optional[Request]:
        for i in range(1, self.n + 1):
            u, v = i - 1, i % self.n
            if config.cluster_of(u) != config.cluster_of(v):
                return Request(u, v)
        raise AdversaryStuck(
            "ring cut is empty: all %d ring edges are internal" % self.n)


# ---------------------------------------------------------------------------
# Grouped phases (two clusters, growing collocated core)


def group_phases_initial(params: Params) -> Configuration:
    """Start layout: the tracked squad is split 1 / k-1 across both clusters.

    Tracked nodes are ids 0..k-1. Node 0 starts alone among ids k+1..2k-1
    in cluster 1; nodes 1..k-1 share cluster 0 with node k.
    """
    if params.ell != 2:
        raise GeometryError("grouped phases need exactly two clusters")
    assignment = {0: 1, params.k: 0}
    for i in range(1, params.k):
        assignment[i] = 0
    for i in range(params.k + 1, 2 * params.k):
        assignment[i] = 1
    return new_configuration(assignment, params.ell, params.k)


class GroupPhases:
    """Phase p drags node p into the collocated core {0..p-1}.

    During phase p the source round-robins requests {partner, p} over
    partners p-1, p-2, ..., 0 until the online algorithm collocates all of
    0..p. A phase ends the moment the core is collocated (checked before
    emitting). If phase 1 ends cheaply (w_1 < 2*alpha) node 0 is dropped
    from both the request rotation and the end-of-phase checks from then
    on. Once phase k-1 is played (phase 1 at k = 1) the source returns
    None.
    """

    def __init__(self, params: Params):
        if params.ell != 2:
            raise GeometryError("grouped phases need exactly two clusters")
        self.alpha = params.alpha
        self.last_phase = max(params.k - 1, 1)
        self.phase = 1
        self.cursor = 0
        self.w = 0
        self.dropped = False          # node 0 removed after a cheap phase 1
        self.profile: List[int] = []

    def _core(self) -> List[int]:
        lo = 1 if self.dropped else 0
        return list(range(lo, self.phase + 1))

    def _partners(self) -> List[int]:
        lo = 1 if self.dropped else 0
        return list(range(self.phase - 1, lo - 1, -1))

    def next(self, config: Configuration) -> Optional[Request]:
        while self.phase <= self.last_phase:
            core = self._core()
            home = config.cluster_of(core[0])
            if any(config.cluster_of(x) != home for x in core):
                partners = self._partners()
                partner = partners[self.cursor % len(partners)]
                self.cursor += 1
                self.w += 1
                return Request(partner, self.phase)
            self.profile.append(self.w)
            if self.phase == 1 and self.w < 2 * self.alpha:
                self.dropped = True
            self.phase += 1
            self.cursor = 0
            self.w = 0
        return None


# ---------------------------------------------------------------------------
# Pair chase (clusters of two)


class PairChase:
    """Hammers one split pair per phase; the next phase chases the swap.

    Phase 1 targets the lexicographically least split pair. When the online
    algorithm collocates the current pair (a, b), the next phase targets
    (b, z) where z was b's cluster mate just before the collocating move,
    which is split again by construction. Runs `phases` phases and exports
    the per-phase request counts in `profile`.
    """

    def __init__(self, params: Params, phases: int):
        if params.k != 2:
            raise GeometryError("pair chase is a cluster-size-2 construction")
        if phases < 1:
            raise GeometryError("need at least one phase")
        self.n = params.n
        self.phases = phases
        self.pair: Optional[Tuple[int, int]] = None
        self.mate = -1                # b's mate at the previous emission
        self.w = 0
        self.profile: List[int] = []
        self.exhausted = False

    def _least_split_pair(self, config: Configuration) -> Tuple[int, int]:
        for u in range(self.n):
            cu = config.cluster_of(u)
            for v in range(u + 1, self.n):
                if config.cluster_of(v) != cu:
                    return (u, v)
        raise AdversaryStuck("no split pair: a single cluster holds every node")

    def next(self, config: Configuration) -> Optional[Request]:
        if self.exhausted:
            return None
        if self.pair is None:
            self.pair = self._least_split_pair(config)
        elif config.cluster_of(self.pair[0]) == config.cluster_of(self.pair[1]):
            self.profile.append(self.w)
            if len(self.profile) == self.phases:
                self.exhausted = True
                return None
            self.pair = (self.pair[1], self.mate)
            self.w = 0
        a, b = self.pair
        others = [x for x in config.nodes_in(config.cluster_of(b)) if x != b]
        if not others:
            raise AdversaryStuck(
                "pair chase: node %d has no cluster mate to chase" % b)
        self.mate = others[0]
        self.w += 1
        return Request(min(a, b), max(a, b))


# ---------------------------------------------------------------------------
# Paging reduction


def paging_initial(params: Params) -> Configuration:
    """Items 0..k-2 share the dummy's cluster; item k-1 sits with the rest."""
    if params.ell != 2:
        raise GeometryError("paging reduction needs exactly two clusters")
    k = params.k
    assignment = {i: 0 for i in range(k - 1)}
    assignment[k] = 0                 # dummy node
    assignment[k - 1] = 1
    for i in range(k + 1, 2 * k):
        assignment[i] = 1
    return new_configuration(assignment, params.ell, params.k)


class PagingStream:
    """Replays a paging request sequence as collocation pressure on a dummy.

    Items are nodes 0..k-1, the dummy is node k, nodes k+1..2k-1 are
    padding. Each paging request to item j becomes 2*alpha + 1 requests
    {j, dummy}; between consecutive paging requests come alpha separator
    requests {x, dummy} where x is the lowest-id item currently sharing the
    dummy's cluster, re-evaluated per emission.
    """

    def __init__(self, params: Params, sequence: Sequence[int]):
        if params.ell != 2:
            raise GeometryError("paging reduction needs exactly two clusters")
        self.k = params.k
        self.dummy = params.k
        for item in sequence:
            if not isinstance(item, int) or isinstance(item, bool):
                raise MalformedPagingSequence("item %r is not an int" % (item,))
            if not 0 <= item < params.k:
                raise MalformedPagingSequence(
                    "item %d outside [0, %d)" % (item, params.k))
        self.seq = list(sequence)
        self.j = 0
        self.mains_left = 2 * params.alpha + 1 if self.seq else 0
        self.fillers_left = params.alpha
        self.alpha = params.alpha

    def next(self, config: Configuration) -> Optional[Request]:
        while True:
            if self.j >= len(self.seq):
                return None
            if self.mains_left > 0:
                self.mains_left -= 1
                return Request(self.seq[self.j], self.dummy)
            if self.j == len(self.seq) - 1:
                self.j += 1
                return None           # no separators after the last item
            if self.fillers_left > 0:
                self.fillers_left -= 1
                cluster = config.nodes_in(config.cluster_of(self.dummy))
                items = [x for x in cluster if x < self.k]
                if not items:
                    raise AdversaryStuck(
                        "no item shares the dummy's cluster to separate on")
                return Request(items[0], self.dummy)
            self.j += 1
            self.mains_left = 2 * self.alpha + 1
            self.fillers_left = self.alpha


# ---------------------------------------------------------------------------
# Random streams


class RandomPairs:
    """Uniform random distinct pairs, fixed length, seeded."""

    def __init__(self, seed: int, n: int, steps: int):
        if n < 2:
            raise GeometryError("need at least two nodes")
        self.rng = random.Random(seed)
        self.n = n
        self.left = steps

    def next(self, config: Configuration) -> Optional[Request]:
        if self.left <= 0:
            return None
        self.left -= 1
        u, v = self.rng.sample(range(self.n), 2)
        return Request(min(u, v), max(u, v))


class PlantedPartition:
    """Pairs drawn from a hidden balanced partition of the node ids.

    Groups are the contiguous id ranges [g*k, (g+1)*k). An emitted pair is
    intra-group with probability p_in*N_in / (p_in*N_in + p_out*N_out)
    where N_in and N_out count the intra and inter pairs, i.e. each
    individual intra pair is p_in/p_out times as likely as each inter pair.
    """

    def __init__(self, seed: int, params: Params, p_in: float, p_out: float,
                 steps: Optional[int] = None):
        if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
            raise BadProbability("p_in and p_out must lie in [0, 1]")
        n, k, ell = params.n, params.k, params.ell
        n_in = ell * k * (k - 1) // 2
        n_out = n * (n - 1) // 2 - n_in
        w_in = p_in * n_in
        w_out = p_out * n_out
        if w_in + w_out == 0:
            raise BadProbability("no pair has positive probability")
        self.p_intra = w_in / (w_in + w_out)
        self.rng = random.Random(seed)
        self.n, self.k = n, k
        self.left = steps

    def next(self, config: Configuration) -> Optional[Request]:
        if self.left is not None:
            if self.left <= 0:
                return None
            self.left -= 1
        if self.rng.random() < self.p_intra:
            g = self.rng.randrange(self.n // self.k)
            u, v = self.rng.sample(range(g * self.k, (g + 1) * self.k), 2)
        else:
            u = self.rng.randrange(self.n)
            start = (u // self.k) * self.k
            idx = self.rng.randrange(self.n - self.k)
            v = idx if idx < start else idx + self.k
        return Request(min(u, v), max(u, v))


# ---------------------------------------------------------------------------
# Trace files


class TraceSource:
    def __init__(self, requests: Sequence[Request]):
        self.requests = list(requests)
        self.cursor = 0

    def next(self, config: Configuration) -> Optional[Request]:
        if self.cursor >= len(self.requests):
            return None
        req = self.requests[self.cursor]
        self.cursor += 1
        return req


def parse_trace(path: str, n: int) -> TraceSource:
    """Read a request trace: one `u,v` or `t,u,v` line per request.

    Blank lines are skipped. Bad field counts, non-integers, and u == v
    raise ParseError naming the 1-based line; ids outside [0, n) raise
    NodeOutOfRange.
    """
    requests = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) not in (2, 3):
                raise ParseError("line %d: expected u,v or t,u,v" % lineno)
            try:
                values = [int(f.strip()) for f in fields]
            except ValueError:
                raise ParseError("line %d: non-integer field" % lineno) from None
            u, v = values[-2], values[-1]
            if u == v:
                raise ParseError("line %d: self-pair %d,%d" % (lineno, u, v))
            for x in (u, v):
                if not 0 <= x < n:
                    raise NodeOutOfRange(
                        "line %d: node %d outside [0, %d)" % (lineno, x, n))
            requests.append(Request(min(u, v), max(u, v)))
    return TraceSource(requests)
