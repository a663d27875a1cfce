"""Exact offline optima on small instances.

Partitions are label-free: a state is a set partition of the nodes into
ell blocks of size k, canonicalized as blocks sorted by least member.
Transition costs between states come from core.min_migration_cost, so two
partitions that differ only by cluster labels are the same state at
distance zero.

The cost between two partitions depends only on their overlap matrix
(|A_r & B_c|) over blocks A_r and B_c, and as every block holds k nodes
the first ell-1 rows fix it. `PartitionSpace` keeps blocks as bitmasks and
memoises costs by those rows, so the assignment solver runs once per
distinct overlap matrix rather than once per pair of states.

`optimal_cost` maintains the work function of a metrical task system
(Borodin, Linial & Saks 1992). Its value vector x is closed under moves:
x[s] <= x[s'] + T[s'][s] for all states s, s'. A request adds e[s] = 1 to
each state s that splits its endpoints, and since T is a metric (zero
diagonal, triangle inequality) the next closed vector is x + e, except that
a state with e[s] = 1 keeps x[s] when some state s' with e[s'] = 0 reaches
it tightly, x[s'] + T[s'][s] = x[s]. Distinct states are at least 2*alpha
apart (a node cannot move alone between full blocks), so only states with
x[s'] <= x[s] - 2*alpha can be that witness. The schedule is rebuilt
afterwards along its own path, with the same lowest-index ties.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Configuration,
    Params,
    Request,
    TooLarge,
    min_migration_cost,
)

# The transition matrix has m^2 entries. On a 2-core Xeon, m=1716 (n=14,
# k=7) builds in 1.4 s and 24 MB; the next space, m=5775 (n=12, k=4), takes
# 14 s and 264 MB.
PARTITION_CAP = 2000

Partition = Tuple[Tuple[int, ...], ...]


class MalformedProfile(Exception):
    pass


def partition_count(n: int, k: int, ell: int) -> int:
    return math.factorial(n) // (math.factorial(k) ** ell * math.factorial(ell))


def enumerate_partitions(n: int, k: int, ell: int) -> List[Partition]:
    """All partitions of range(n) into ell unordered blocks of size k."""
    if n != k * ell:
        raise TooLarge("n must equal k * ell")
    if partition_count(n, k, ell) > PARTITION_CAP:
        raise TooLarge("partition space above %d states" % PARTITION_CAP)

    out: List[Partition] = []

    def build(remaining: Tuple[int, ...], acc: Tuple[Tuple[int, ...], ...]):
        if not remaining:
            out.append(acc)
            return
        head = remaining[0]
        rest = remaining[1:]
        # head always anchors the next block, so each partition appears once
        for mates in itertools.combinations(rest, k - 1):
            block = (head,) + mates
            left = tuple(x for x in rest if x not in mates)
            build(left, acc + (block,))

    build(tuple(range(n)), ())
    return out


def partition_of_configuration(config: Configuration) -> Partition:
    blocks = [tuple(config.nodes_in(c)) for c in range(config.cluster_count)]
    blocks = [b for b in blocks if b]
    return tuple(sorted(blocks, key=lambda b: b[0]))


def _configuration_of_partition(p: Partition, k: int, ell: int) -> Configuration:
    assignment = {}
    for c, block in enumerate(p):
        for v in block:
            assignment[v] = c
    n = k * ell
    return Configuration([assignment[v] for v in range(n)], ell, k)


class PartitionSpace:
    """Enumerated partition states with cached pairwise transition costs."""

    def __init__(self, params: Params):
        self.params = params
        self.partitions = enumerate_partitions(params.n, params.k, params.ell)
        self.index: Dict[Partition, int] = {p: i for i, p in enumerate(self.partitions)}
        self._configs = [_configuration_of_partition(p, params.k, params.ell)
                         for p in self.partitions]
        # node -> block index, for O(1) serve checks
        self._block_of = [c.assignment for c in self._configs]
        # each distinct block once as a bitmask; _columns[r][s] is the id of
        # state s's block r
        block_ids: Dict[Tuple[int, ...], int] = {}
        self._masks: List[int] = []
        for p in self.partitions:
            for block in p:
                if block not in block_ids:
                    block_ids[block] = len(self._masks)
                    self._masks.append(sum(1 << v for v in block))
        self._columns = list(zip(*[[block_ids[b] for b in p]
                                   for p in self.partitions]))
        self._cost_by_overlap: Dict[Tuple[int, ...], int] = {}
        self._sides: Dict[Tuple[int, int], Tuple[List[int], List[int], List[int]]] = {}
        self._trans: Optional[List[List[int]]] = None

    def __len__(self):
        return len(self.partitions)

    def state_of(self, config: Configuration) -> int:
        p = partition_of_configuration(config)
        if p not in self.index:
            raise TooLarge("configuration is not a balanced ell x k placement")
        return self.index[p]

    def serves(self, request: Request, state: int) -> int:
        b = self._block_of[state]
        return 1 if b[request.u] != b[request.v] else 0

    def sides(self, u: int, v: int) -> Tuple[List[int], List[int], List[int]]:
        """The serve cost of {u, v} in every state, the states that split
        u and v, and the states that collocate them."""
        pair = (u, v) if u < v else (v, u)
        out = self._sides.get(pair)
        if out is None:
            serve = [1 if b[u] != b[v] else 0 for b in self._block_of]
            out = self._sides[pair] = (
                serve, [s for s, e in enumerate(serve) if e],
                [s for s, e in enumerate(serve) if not e])
        return out

    def row(self, i: int) -> List[int]:
        """Transition costs from state i to every state."""
        if self._trans is not None:
            return self._trans[i]
        # code(B) packs the overlaps |A_r & B| with i's blocks A_r, r < ell-1,
        # into fields `width` bits wide; a state's key is its blocks' codes
        width = self.params.k.bit_length()
        masks = self._masks
        codes = [0] * len(masks)
        for r, col in enumerate(self._columns[:-1]):
            a, shift = masks[col[i]], width * r
            codes = [c | (a & b).bit_count() << shift for c, b in zip(codes, masks)]
        code = codes.__getitem__
        keys = list(zip(*[map(code, col) for col in self._columns]))
        memo = self._cost_by_overlap
        out = list(map(memo.get, keys))
        if None in out:
            for j, key in enumerate(keys):
                if out[j] is None:
                    if key not in memo:
                        memo[key] = min_migration_cost(
                            self._configs[i], self._configs[j], self.params.alpha)
                    out[j] = memo[key]
        return out

    def transitions(self) -> List[List[int]]:
        if self._trans is None:
            self._trans = [self.row(i) for i in range(len(self))]
        return self._trans


def optimal_cost(requests: Sequence[Request], params: Params,
                 initial: Configuration,
                 space: Optional[PartitionSpace] = None
                 ) -> Tuple[int, List[Partition]]:
    """Dynamic program over partition states.

    Per step the offline player first moves (paying the transition), then
    serves. Returns the optimal total and one optimal state schedule
    (initial state first), ties resolved toward the lowest state index.
    """
    from array import array
    from bisect import bisect_right
    from operator import add

    if space is None:
        space = PartitionSpace(params)
    trans = space.transitions()
    start = space.state_of(initial)
    gap = 2 * space.params.alpha
    x = list(trans[start])   # closed values before the first request
    # values right after each request, as machine words: kept for the
    # backtrack, and costs above 256 would each be an int object
    served: List[array] = []
    for req in requests:
        serve, split, together = space.sides(req.u, req.v)
        nxt = list(map(add, x, serve))
        served.append(array("q", nxt))
        # witnesses in order of value, so each state checks a prefix
        together = sorted(together, key=x.__getitem__)
        low = [x[w] for w in together]
        for s in split:
            xs = x[s]
            reach = bisect_right(low, xs - gap)
            if reach:
                row = trans[s]
                for w in together[:reach]:
                    if x[w] + row[w] == xs:
                        nxt[s] = xs
                        break
        x = nxt
    if not served:
        return 0, [space.partitions[start]]
    total = min(served[-1])
    path = [served[-1].index(total)]
    for prev in reversed(served[:-1]):
        # T is symmetric, so row s holds the cost of reaching s from each state
        arrive = list(map(add, prev, trans[path[-1]]))
        path.append(arrive.index(min(arrive)))
    path.append(start)
    path.reverse()
    return total, [space.partitions[s] for s in path]


def static_optimal(requests: Sequence[Request], params: Params,
                   initial: Configuration,
                   space: Optional[PartitionSpace] = None
                   ) -> Tuple[int, Partition]:
    """Best single partition: pay once to reach it, then never move."""
    if space is None:
        space = PartitionSpace(params)
    start = space.state_of(initial)
    counts: Dict[Tuple[int, int], int] = {}
    for r in requests:
        pair = (r.u, r.v) if r.u < r.v else (r.v, r.u)
        counts[pair] = counts.get(pair, 0) + 1
    cost = list(space.row(start))
    for (u, v), count in counts.items():
        for s in space.sides(u, v)[1]:
            cost[s] += count
    best = min(cost)
    return best, space.partitions[cost.index(best)]


def reference_strategies_k2(profile: Sequence[int], alpha: int) -> Tuple[int, int, int]:
    """Offline reference costs against a k=2 phase-chase profile.

    profile[p] is the number of requests the adversary issued in phase p+1.
    Three fixed strategies bracket the offline optimum: never move (pays the
    odd phases), move once before phase 1 (pays the even phases plus one
    swap), or re-collocate every phase (one swap each).
    """
    if not profile:
        raise MalformedProfile("empty phase profile")
    if any(w < 1 for w in profile):
        raise MalformedProfile("every phase must contain at least one request")
    cost_never = sum(w for i, w in enumerate(profile) if i % 2 == 0)
    cost_first = sum(w for i, w in enumerate(profile) if i % 2 == 1) + 2 * alpha
    cost_each = 2 * alpha * len(profile)
    return cost_never, cost_first, cost_each
