"""Exact offline optima on small instances.

Partitions are label-free: a state is a set partition of the nodes into
ell blocks of size k, canonicalized as blocks sorted by least member.
Transition costs between states come from core.min_migration_cost, so two
partitions that differ only by cluster labels are the same state at
distance zero.

The cost T[s][t] between two partitions depends only on their overlap
matrix (|A_r & B_c|) over blocks A_r and B_c, and as every block holds k
nodes the first ell-1 rows fix it. `PartitionSpace.row` keeps blocks as
bitmasks and memoises costs by those rows with the columns sorted, so the
assignment solver runs once per overlap matrix up to the order of its
columns rather than once per pair of states.

No m x m matrix is built: only row 0 goes through that memo, and the
neighbour masks of every state come from it. A permutation g of the nodes
maps each state to a state and keeps every overlap matrix, so
T[g(w)][g(t)] = T[w][t]. The adjacent transpositions (a a+1) generate the
symmetric group S_n, which acts transitively on the balanced partitions,
so a breadth-first walk from state 0 along them reaches every state; and
as each transposition g is its own inverse, the costs out of g(w) are
those out of w read in the order of g: T[g(w)][t] = T[w][g(t)]. The walk
keeps each reached state's costs over alpha as one byte string, gathers
the string of g(w) from that of w, and reads the masks of each cost out of
it before dropping it.

`WorkFunction` maintains the work function of a metrical task system
(Borodin, Linial & Saks 1992; Chrobak & Larmore 1992). Its value vector x
is closed under moves: x[s] <= x[s'] + T[s'][s] for all states s, s'. A
request adds e[s] = 1 to each state s that splits its endpoints, and since
T is a metric (zero diagonal, triangle inequality) the next closed vector
is x + e, except that a state with e[s] = 1 keeps x[s] when some state s'
with e[s'] = 0 reaches it tightly, x[s'] + T[s'][s] = x[s]. No vector is
stored: `level[v]` is the bitmask of the states with x[s] = v, in
ascending order of v, and `PartitionSpace.near()[d][w]` the states at cost
d from w. For each level v, its collocating states are the witnesses, and
for each cost d up to the top level the split states of `level[v + d]`
that some witness w has in `near[d][w]` keep their value; the rest of the
split states move up one level. The witnesses' bits are read out only
when some level v + d holds a split state not yet kept.

`optimal_cost` keeps each request's levels before the push and its split
mask; the served vector x + e holds level v's collocating states at v and
its split states at v + 1. It rebuilds the schedule backwards: the state
before `cur` is the lowest state s minimising (x + e)[s] + T[s][cur]. So
for each served value y and cost d it intersects the states served at y
with near[d][cur], d = 0 standing for `cur` itself, and takes the lowest
bit of the union of the hits with the least y + d. The levels ascend, so
the scan stops at the first level above the least y + d found so far.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import floordiv, itemgetter, or_
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Configuration,
    Params,
    RepartError,
    Request,
    TooLarge,
    min_migration_cost,
)

# No m x m matrix is kept: the neighbour masks take one m-bit mask per state
# and distinct cost. On a 2-core Xeon, m=1716 (n=14, k=7) builds its masks
# cold in 0.12-0.13 s with a 3.4 MB traced peak, 1.4 MB kept; the next space,
# m=5775 (n=12, k=4), would take 1.7 s and 33 MB. The cap stays where the
# full matrix once put it, so the same commands fail with TooLarge.
PARTITION_CAP = 2000

Partition = Tuple[Tuple[int, ...], ...]


class MalformedProfile(RepartError):
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


def _block_index(p: Partition, n: int) -> List[int]:
    """node -> the index of its block in p."""
    out = [0] * n
    for c, block in enumerate(p):
        for v in block:
            out[v] = c
    return out


def _configuration_of_partition(p: Partition, k: int, ell: int) -> Configuration:
    return Configuration(_block_index(p, k * ell), ell, k)


class PartitionSpace:
    """Enumerated partition states with cached pairwise transition costs."""

    def __init__(self, params: Params):
        self.params = params
        self.partitions = enumerate_partitions(params.n, params.k, params.ell)
        self.index: Dict[Partition, int] = {p: i for i, p in enumerate(self.partitions)}
        # node -> block index, for O(1) serve checks
        self._block_of = [_block_index(p, params.n) for p in self.partitions]
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
        self._sides: Dict[Tuple[int, int], Tuple[List[int], int]] = {}
        self._near: Optional[Dict[int, List[int]]] = None

    def __len__(self):
        return len(self.partitions)

    def state_of(self, config: Configuration) -> int:
        p = partition_of_configuration(config)
        if p not in self.index:
            raise TooLarge("configuration is not a balanced ell x k placement")
        return self.index[p]

    def sides(self, u: int, v: int) -> Tuple[List[int], int]:
        """The states that collocate u and v, and the states that split
        them as a bitmask, state s as bit s."""
        pair = (u, v) if u < v else (v, u)
        out = self._sides.get(pair)
        if out is None:
            together = [s for s, b in enumerate(self._block_of) if b[u] == b[v]]
            every = (1 << len(self)) - 1
            out = self._sides[pair] = (
                together, every - sum(map((1).__lshift__, together)))
        return out

    def row(self, i: int) -> List[int]:
        """Transition costs from state i to every state."""
        # code(B) packs the overlaps |A_r & B| with i's blocks A_r, r < ell-1,
        # into fields `width` bits wide; a state's key is its blocks' codes,
        # sorted, as relabeling the target's blocks keeps the cost
        width = self.params.k.bit_length()
        masks = self._masks
        codes = [0] * len(masks)
        for r, col in enumerate(self._columns[:-1]):
            a, shift = masks[col[i]], width * r
            codes = [c | (a & b).bit_count() << shift for c, b in zip(codes, masks)]
        code = codes.__getitem__
        keys = list(map(tuple, map(sorted, zip(*[map(code, col)
                                                 for col in self._columns]))))
        memo = self._cost_by_overlap
        out = list(map(memo.get, keys))
        if None in out:
            k, ell = self.params.k, self.params.ell
            here = _configuration_of_partition(self.partitions[i], k, ell)
            for j, key in enumerate(keys):
                if out[j] is None:
                    if key not in memo:
                        there = _configuration_of_partition(
                            self.partitions[j], k, ell)
                        memo[key] = min_migration_cost(here, there,
                                                       self.params.alpha)
                    out[j] = memo[key]
        return out

    def transitions(self) -> Dict[int, List[int]]:
        """The neighbour masks of `near()`, built afresh: row 0 from the
        overlap memo, every other state's costs a permuted copy of a state's
        already built; see the module docstring. `near()` keeps the result;
        perfbench's traced run times this build as `offline.transitions`."""
        m, alpha = len(self), self.params.alpha
        columns = list(zip(*self._columns))     # state -> its block ids
        state = {frozenset(ids): s for s, ids in enumerate(columns)}
        mask_id = {b: i for i, b in enumerate(self._masks)}
        swaps = []  # (g, gather): g[t] is state t with nodes a, a+1 swapped
        for a in range(self.params.n - 1):
            pair = 3 << a   # block i with nodes a, a+1 swapped is moved[i]
            moved = [i if (b & pair) in (0, pair) else mask_id[b ^ pair]
                     for i, b in enumerate(self._masks)]
            g = [state[frozenset(map(moved.__getitem__, ids))]
                 for ids in columns]
            # byte p of a code is state m-1-p; at m = 1 the getter returns a
            # scalar, but then copies no code
            swaps.append((g, itemgetter(*[m - 1 - g[m - 1 - p]
                                          for p in range(m)])))
        row = self.row(0)
        # every state's costs are a permutation of row 0's, so row 0 holds
        # every distinct cost; each is alpha times a migration count below
        # n, so a byte holds the count
        costs = sorted(set(row) - {0})
        near = {d: [0] * m for d in costs}
        digits = []     # (masks of d, byte -> b"1" if it counts d else b"0")
        for d in costs:
            j = d // alpha
            digits.append((near[d], b"0" * j + b"1" + b"0" * (255 - j)))
        # codes[w] holds w's costs over alpha, reversed so that state s is
        # bit s; it is dropped to b"" once w's masks and images are taken
        codes: List[Optional[bytes]] = [None] * m
        codes[0] = bytes(map(floordiv, reversed(row), itertools.repeat(alpha)))
        reached = [0]
        for w in reached:
            code = codes[w]
            codes[w] = b""
            for masks, table in digits:
                masks[w] = int(code.translate(table), 2)
            for g, gather in swaps:
                c = g[w]
                if codes[c] is None:
                    # T[g(w)][t] = T[w][g(t)], as g is its own inverse
                    codes[c] = bytes(gather(code))
                    reached.append(c)
        return near

    def near(self) -> Dict[int, List[int]]:
        """near()[d][w] is the bitmask of the states at cost d from state w,
        for each distinct nonzero cost d, in increasing order of d."""
        if self._near is None:
            self._near = self.transitions()
        return self._near


def _space_for(params: Params, space: Optional[PartitionSpace]) -> PartitionSpace:
    """The given space, or a new one; a space built for another shape or
    alpha would price every move wrong (delta never enters the offline cost)."""
    if space is None:
        return PartitionSpace(params)
    built, wanted = ((p.n, p.k, p.ell, p.alpha) for p in (space.params, params))
    if built != wanted:
        raise ValueError("partition space built for (n, k, ell, alpha) = %r, "
                         "not %r" % (built, wanted))
    return space


class WorkFunction:
    """The offline optimum of a growing request stream, one request at a
    time: `push` serves a request and `value` is the optimum so far.

    `level` maps each value of the closed vector, in ascending order, to
    the bitmask of the states that hold it; see the module docstring.
    """

    def __init__(self, params: Params, initial: Configuration,
                 space: Optional[PartitionSpace] = None):
        self.space = space = _space_for(params, space)
        self.start = space.state_of(initial)
        self._near = near = space.near()
        # the row of the start state: cost d at near[d][start]; every row is
        # a permutation of row 0, so no level is empty
        self.level = {0: 1 << self.start}
        self.level.update((d, masks[self.start]) for d, masks in near.items())

    @property
    def value(self) -> int:
        return next(iter(self.level))

    def push(self, req: Request) -> None:
        """Serve req. The levels are replaced, never changed in place."""
        split = self.space.sides(req.u, req.v)[1]
        level = self.level
        top = next(reversed(level))
        # a witness above top - d, d the least cost, reaches no level
        last = top - next(iter(self._near), 0)
        up = split      # the split states no witness has kept yet
        for v, mask in level.items():
            if v > last or not up:
                break
            witnesses = mask & ~split
            if not witnesses:
                continue
            ws = None
            for d, masks in self._near.items():
                if v + d > top:
                    break
                target = level.get(v + d, 0) & up
                if target:
                    if ws is None:
                        ws = []
                        while witnesses:
                            low = witnesses & -witnesses
                            ws.append(low.bit_length() - 1)
                            witnesses ^= low
                    up &= ~(target & reduce(or_, map(masks.__getitem__, ws)))
        self.level = _raised(level, up)


def _raised(level: Dict[int, int], up: int) -> Dict[int, int]:
    """The levels with the states of `up` moved one level up, in ascending
    order again, as v + 1 is at most the next level."""
    out: Dict[int, int] = {}
    above, carry = None, 0      # the states raised from the level below
    for v, mask in level.items():
        raised = mask & up
        stay = mask ^ raised
        if v == above:
            stay |= carry
        elif carry:
            out[above] = carry
        if stay:
            out[v] = stay
        above, carry = v + 1, raised
    if carry:
        out[above] = carry
    return out


def optimal_cost(requests: Sequence[Request], params: Params,
                 initial: Configuration,
                 space: Optional[PartitionSpace] = None
                 ) -> Tuple[int, List[Partition]]:
    """Dynamic program over partition states.

    Per step the offline player first moves (paying the transition), then
    serves. Returns the optimal total and one optimal state schedule
    (initial state first), ties resolved toward the lowest state index.
    """
    work = WorkFunction(params, initial, space)
    space, start = work.space, work.start
    # each request's levels before its push, and its split states
    steps = []
    for req in requests:
        steps.append((work.level, space.sides(req.u, req.v)[1]))
        work.push(req)
    if not steps:
        return 0, [space.partitions[start]]
    near = space.near()
    # off the diagonal T > 0, so the closure keeps the least served value
    # and the states that hold it
    total = work.value
    ends = work.level[total]
    path = [(ends & -ends).bit_length() - 1]
    for level, split in reversed(steps[:-1]):
        cur = path[-1]
        # T is symmetric, so near[d][cur] holds the states at cost d to cur
        reach = [(0, 1 << cur)]
        reach += [(d, masks[cur]) for d, masks in near.items()]
        best, tie = math.inf, 0
        for v, mask in level.items():
            if v > best:
                break
            for value, part in ((v, mask & ~split), (v + 1, mask & split)):
                for d, states in reach:
                    if value + d > best:
                        break
                    hit = part & states
                    if hit:
                        if value + d < best:
                            best, tie = value + d, hit
                        else:
                            tie |= hit
        path.append((tie & -tie).bit_length() - 1)
    path.append(start)
    path.reverse()
    return total, [space.partitions[s] for s in path]


def static_optimal(requests: Sequence[Request], params: Params,
                   initial: Configuration,
                   space: Optional[PartitionSpace] = None
                   ) -> Tuple[int, Partition]:
    """Best single partition: pay once to reach it, then never move."""
    space = _space_for(params, space)
    start = space.state_of(initial)
    counts: Dict[Tuple[int, int], int] = {}
    for r in requests:
        pair = (r.u, r.v) if r.u < r.v else (r.v, r.u)
        counts[pair] = counts.get(pair, 0) + 1
    # every request is paid for, except in the states that collocate it
    cost = [c + len(requests) for c in space.row(start)]
    for (u, v), count in counts.items():
        for s in space.sides(u, v)[0]:
            cost[s] -= count
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
