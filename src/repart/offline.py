"""Exact offline optima on small instances.

Partitions are label-free: a state is a set partition of the nodes into
ell blocks of size k, canonicalized as blocks sorted by least member, so
relabeling clusters keeps the state (core.min_migration_cost is zero).

`PartitionSpace` keeps each distinct block once, with its nodes as a
bitmask, and from the first `sides` call its state mask: the bitmask of
the states that hold it. No state holds two blocks with both u and v, so
`sides(u, v)`, the states that split them, is all states less the sum of
those blocks' state masks. A state serves locally just the requests
inside its blocks, so `static_optimal` prices it as its cost from the
start plus every request, less the requests inside each of its blocks.

The cost T[s][t] between two partitions depends only on their overlap
matrix (|A_r & B_c|) over blocks A_r and B_c, and as every block holds k
nodes the first ell-1 rows fix it. `PartitionSpace.row` memoises costs by
those rows with the columns sorted, so the assignment solver runs once per
overlap matrix up to the order of its columns, not once per pair of states.

No m x m matrix is built: only row 0 goes through that memo, and the
neighbour masks of every state come from it. A permutation g of the nodes
maps each state to a state and keeps every overlap matrix, so
T[g(w)][t] = T[w][g^-1(t)]. The transposition (0 1) and the n-cycle
v -> v+1 mod n generate S_n, which acts transitively on the balanced
partitions, so a breadth-first walk from state 0 along the two reaches
every state. The walk keeps each reached state's costs over alpha as one
byte string, gathers the string of g(w) from that of w through the inverse
of g's map on the states (the cycle is not its own inverse), and reads the
masks of each cost but the highest out of it before dropping it. Each
state t != w sits at exactly one nonzero cost from w, so the highest
cost's mask is all states less w and the other masks.

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
from collections import Counter
from functools import reduce
from operator import floordiv, getitem, itemgetter, or_, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Configuration,
    Params,
    RepartError,
    Request,
    TooLarge,
    UnknownNode,
    min_migration_cost,
)

# No m x m matrix is kept: the neighbour masks take one m-bit mask per state
# and distinct cost. On a 2-core Xeon, m=1716 (n=14, k=7) builds its masks
# cold in 0.08-0.10 s with a 2.5 MB traced peak, 1.3 MB kept; the next space,
# m=5775 (n=12, k=4), would take 1.1-1.6 s and 31 MB. The cap stays where the
# full matrix once put it, so the same commands fail with TooLarge.
PARTITION_CAP = 2000

Partition = Tuple[Tuple[int, ...], ...]


class MalformedProfile(RepartError):
    pass


def _above_cap(n: int, k: int, ell: int) -> bool:
    """Whether the n! / (k!**ell * ell!) partitions of range(n) into ell
    blocks of size k are more than PARTITION_CAP, without the factorials.

    Block i's least node picks its k - 1 mates from the n - i*k - 1 nodes
    after it, so the count is the product of those binomials. Each is
    built one factor (top - j + 1) / j at a time, with 2j < top: every
    factor is above 1 and C(top, j) >= 2**j, so the running product passes
    the cap within log2(PARTITION_CAP) + 1 factors.
    """
    if k == 1:      # one partition, but pricing its n blocks costs O(n^2)
        return n > PARTITION_CAP
    count = 1
    for i in range(ell - 1):    # the last block takes the nodes left over
        top = n - i * k - 1
        for j in range(1, k):   # C(top, j) = C(top, j - 1) * (top - j + 1) / j
            count = count * (top - j + 1) // j
            if count > PARTITION_CAP:
                return True
    return False


def enumerate_partitions(n: int, k: int, ell: int) -> List[Partition]:
    """All partitions of range(n) into ell unordered blocks of size k."""
    if n != k * ell:
        raise TooLarge("n must equal k * ell")
    if _above_cap(n, k, ell):
        raise TooLarge("partition space above %d states" % PARTITION_CAP
                       if k > 1 else "n above %d at k = 1: one state, but "
                       "O(n^2) work to price it" % PARTITION_CAP)
    if k == 1:                  # build would recurse once per block
        return [tuple((v,) for v in range(n))]
    out: List[Partition] = []

    def build(left: List[int], acc: Partition):
        if len(left) <= k:      # the last block, or none at n = 0
            out.append(acc + (tuple(left),) if left else acc)
            return
        head, rest = left[0], left[1:]
        # head always anchors the next block, so each partition appears once
        for mates in itertools.combinations(rest, k - 1):
            taken = set(mates)
            build([x for x in rest if x not in taken], acc + ((head,) + mates,))

    build(list(range(n)), ())
    return out


def partition_of_configuration(config: Configuration) -> Partition:
    blocks = [tuple(config.nodes_in(c)) for c in range(config.cluster_count)]
    return tuple(sorted([b for b in blocks if b], key=lambda b: b[0]))


def _configuration_of_partition(p: Partition, k: int, ell: int) -> Configuration:
    where = sorted((v, c) for c, block in enumerate(p) for v in block)
    return Configuration([c for _, c in where], ell, k)


class PartitionSpace:
    """Enumerated partition states, their blocks and the masks over them."""

    def __init__(self, params: Params):
        self.params = params
        self.partitions = enumerate_partitions(params.n, params.k, params.ell)
        self.index: Dict[Partition, int] = {}
        # block id -> its nodes and their bitmask (_blocks, _masks);
        # _columns[r][s] is the id of state s's block r
        ids: Dict[Tuple[int, ...], int] = {}
        rows = []
        for s, p in enumerate(self.partitions):
            self.index[p] = s
            rows.append([ids.setdefault(block, len(ids)) for block in p])
        self._blocks = list(ids)
        self._masks = [sum(map((1).__lshift__, b)) for b in self._blocks]
        self._columns = list(zip(*rows))
        # block id -> its state mask, the states that hold it; only `sides`
        # reads them, so the first call builds them
        self._held: Optional[List[int]] = None
        self._cost_by_overlap: Dict[Tuple[int, ...], int] = {}
        self._sides: Dict[int, int] = {}
        self._near: Optional[Dict[int, List[int]]] = None

    def __len__(self):
        return len(self.partitions)

    def state_of(self, config: Configuration) -> int:
        p = partition_of_configuration(config)
        if p not in self.index:
            raise TooLarge("configuration is not a balanced ell x k placement")
        return self.index[p]

    def sides(self, u: int, v: int) -> int:
        """The states that split u and v, as a bitmask, state s as bit s."""
        if max(u, v) >= self.params.n:
            raise UnknownNode("request node outside [0, %d)" % self.params.n)
        pair = 1 << u | 1 << v
        out = self._sides.get(pair)
        if out is None:
            if self._held is None:
                self._held = held = [0] * len(self._blocks)
                for col in self._columns:
                    for s, b in enumerate(col):
                        held[b] |= 1 << s
            together = sum(itertools.compress(
                self._held, [b & pair == pair for b in self._masks]))
            out = self._sides[pair] = (1 << len(self)) - 1 - together
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
            p, part = self.params, self.partitions
            here = _configuration_of_partition(part[i], p.k, p.ell)
            for j, key in enumerate(keys):
                if key not in memo:
                    there = _configuration_of_partition(part[j], p.k, p.ell)
                    memo[key] = min_migration_cost(here, there, p.alpha)
                out[j] = memo[key]
        return out

    def transitions(self) -> Dict[int, List[int]]:
        """The neighbour masks of `near()`, built afresh: row 0 from the
        overlap memo, every other state's costs a permuted copy of a state's
        already built; see the module docstring. `near()` keeps the result;
        perfbench's traced run times this build as `offline.transitions`."""
        m, alpha, n = len(self), self.params.alpha, self.params.n
        row = self.row(0)
        # every state's costs are a permutation of row 0's, so row 0 holds
        # every distinct cost; each is alpha times a migration count below
        # n, so a byte holds the count
        costs = sorted(set(row) - {0})
        near = {d: [0] * m for d in costs}
        if not costs:               # one state
            return near
        columns = list(zip(*self._columns))     # state -> its block ids
        state = {frozenset(ids): s for s, ids in enumerate(columns)}
        mask_id = {b: i for i, b in enumerate(self._masks)}
        full = (1 << n) - 1
        relabelings = []    # (g, gather): g[t] is state t relabeled by g
        for move in (lambda b: b ^ 3 if (b & 3) in (1, 2) else b,   # (0 1)
                     lambda b: (b << 1 | b >> (n - 1)) & full):     # v -> v+1
            moved = [mask_id[move(b)] for b in self._masks]
            g = [state[frozenset(map(moved.__getitem__, ids))]
                 for ids in columns]
            inverse = sorted(range(m), key=g.__getitem__)
            # byte p of a code is state m-1-p: byte m-1-g^-1(m-1-p) of w's
            relabelings.append((g, itemgetter(*[m - 1 - t
                                                for t in reversed(inverse)])))
        digits = []     # (masks of d, byte -> b"1" if it counts d else b"0")
        for d in costs[:-1]:    # the top cost's masks are the rest
            j = d // alpha
            digits.append((near[d], b"0" * j + b"1" + b"0" * (255 - j)))
        top, everyone = near[costs[-1]], (1 << m) - 1
        # codes[w] holds w's costs over alpha, reversed so that state s is
        # bit s; it is dropped to b"" once w's masks and images are taken
        codes: List[Optional[bytes]] = [None] * m
        codes[0] = bytes(map(floordiv, reversed(row), itertools.repeat(alpha)))
        reached = [0]
        for w in reached:
            code = codes[w]
            codes[w] = b""
            rest = everyone ^ 1 << w
            for masks, table in digits:
                masks[w] = mask = int(code.translate(table), 2)
                rest ^= mask
            top[w] = rest
            for g, gather in relabelings:
                c = g[w]
                if codes[c] is None:
                    # T[g(w)][t] = T[w][g^-1(t)]
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
        split = self.space.sides(req.u, req.v)
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
        steps.append((work.level, space.sides(req.u, req.v)))
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
    counts = Counter([(r.u, r.v) if r.u < r.v else (r.v, r.u)
                      for r in requests])
    if max(map(itemgetter(1), counts), default=0) >= params.n:
        raise UnknownNode("request node outside [0, %d)" % params.n)
    inside = [0] * len(space._blocks)       # requests inside each block
    if params.k > 1:    # else no block holds a pair, and n may be large
        # table[u][v], u < v: the requests between u and v. A block's nodes
        # ascend, so one pass per position pair i < j reads table[b_i][b_j]
        table = [[0] * params.n for _ in range(params.n)]
        for (u, v), c in counts.items():
            table[u][v] = c
        nodes = list(zip(*space._blocks))   # node i of every block
        pairs = []
        for i, low in enumerate(nodes[:-1]):
            rows = list(map(table.__getitem__, low))
            pairs += [map(getitem, rows, high) for high in nodes[i + 1:]]
        inside = list(map(sum, zip(*pairs)))
    cost = [c + len(requests) for c in space.row(start)]
    for col in space._columns:
        cost = list(map(sub, cost, map(inside.__getitem__, col)))
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
