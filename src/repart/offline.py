"""Exact offline optima on small instances.

Partitions are label-free: a state is a set partition of the nodes into
ell blocks of size k, canonicalized as blocks sorted by least member.
Transition costs between states come from core.min_migration_cost, so two
partitions that differ only by cluster labels are the same state at
distance zero.

The cost between two partitions depends only on their overlap matrix
(|A_r & B_c|) over blocks A_r and B_c, and as every block holds k nodes
the first ell-1 rows fix it. `PartitionSpace` keeps blocks as bitmasks and
memoises costs by those rows with the columns sorted, so the assignment
solver runs once per overlap matrix up to the order of its columns rather
than once per pair of states.

Only row 0 of the matrix goes through that memo. A permutation g of the
nodes maps each state to a state and keeps every overlap matrix, so
T[g(w)][g(t)] = T[w][t]. The adjacent transpositions (a a+1) generate the
symmetric group S_n, which acts transitively on the balanced partitions,
so a breadth-first walk from state 0 along them reaches every state; and
as each transposition g is its own inverse, the row of g(w) is the row of
w read in the order of g: T[g(w)][t] = T[w][g(t)].

`WorkFunction` maintains the work function of a metrical task system
(Borodin, Linial & Saks 1992; Chrobak & Larmore 1992). Its value vector x
is closed under moves: x[s] <= x[s'] + T[s'][s] for all states s, s'. A
request adds e[s] = 1 to each state s that splits its endpoints, and since
T is a metric (zero diagonal, triangle inequality) the next closed vector
is x + e, except that a state with e[s] = 1 keeps x[s] when some state s'
with e[s'] = 0 reaches it tightly, x[s'] + T[s'][s] = x[s]. The witnesses
are found by set algebra on bitmasks of states: `level[v]` holds the states
with x[s] = v, and `PartitionSpace.near()[d][w]` the states at cost d from
w. For each value v of a collocating state and each cost d, the split
states of `level[v + d]` that some collocating w of value v has in
`near[d][w]` keep their value; the rest of the split states rise by one.
`optimal_cost` records each x + e before its closure and rebuilds the
schedule afterwards along its own path, with the lowest-index ties.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import add, floordiv, itemgetter, or_
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    Configuration,
    Params,
    RepartError,
    Request,
    TooLarge,
    min_migration_cost,
)

# The transition matrix has m^2 entries. On a 2-core Xeon, m=1716 (n=14,
# k=7) builds in 0.14-0.18 s and 24 MB, and its neighbour masks (three costs,
# m masks of m bits each) take 1.3 MB more; the next space, m=5775 (n=12,
# k=4), builds in 1.4 s but takes about 264 MB, so memory sets the cap.
PARTITION_CAP = 2000

Partition = Tuple[Tuple[int, ...], ...]

_DIGITS = bytes.maketrans(b"\0\1", b"01")


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
        self._sides: Dict[Tuple[int, int], Tuple[List[int], List[int], int]] = {}
        self._trans: Optional[List[List[int]]] = None
        self._near: Optional[Dict[int, List[int]]] = None

    def __len__(self):
        return len(self.partitions)

    def state_of(self, config: Configuration) -> int:
        p = partition_of_configuration(config)
        if p not in self.index:
            raise TooLarge("configuration is not a balanced ell x k placement")
        return self.index[p]

    def sides(self, u: int, v: int) -> Tuple[List[int], List[int], int]:
        """The serve cost of {u, v} in every state, the states that
        collocate u and v, and the states that split them as a bitmask,
        state s as bit s."""
        pair = (u, v) if u < v else (v, u)
        out = self._sides.get(pair)
        if out is None:
            serve = [1 if b[u] != b[v] else 0 for b in self._block_of]
            # the serve costs, last state first, read as binary digits
            digits = bytes(reversed(serve)).translate(_DIGITS)
            out = self._sides[pair] = (
                serve, [s for s, e in enumerate(serve) if not e],
                int(digits, 2))
        return out

    def row(self, i: int) -> List[int]:
        """Transition costs from state i to every state."""
        if self._trans is not None:
            return self._trans[i]
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

    def transitions(self) -> List[List[int]]:
        """The full matrix: row 0 from the overlap memo, every other row a
        permuted copy of a row already built; see the module docstring."""
        if self._trans is None:
            columns = list(zip(*self._columns))     # state -> its block ids
            state = {frozenset(ids): s for s, ids in enumerate(columns)}
            mask_id = {b: i for i, b in enumerate(self._masks)}
            swaps = []  # (g, getter): g[t] is state t with nodes a, a+1 swapped
            for a in range(self.params.n - 1):
                pair = 3 << a   # block i with nodes a, a+1 swapped is moved[i]
                moved = [i if (b & pair) in (0, pair) else mask_id[b ^ pair]
                         for i, b in enumerate(self._masks)]
                g = [state[frozenset(map(moved.__getitem__, ids))]
                     for ids in columns]
                # at m = 1 the getter returns a scalar, but then copies no row
                swaps.append((g, itemgetter(*g)))
            trans: List[Optional[List[int]]] = [None] * len(self)
            trans[0] = self.row(0)
            reached = [0]
            for w in reached:
                for g, permuted in swaps:
                    c = g[w]
                    if trans[c] is None:
                        # T[g(w)][t] = T[w][g(t)], as g is its own inverse
                        trans[c] = list(permuted(trans[w]))
                        reached.append(c)
            self._trans = trans
        return self._trans

    def near(self) -> Dict[int, List[int]]:
        """near()[d][w] is the bitmask of the states at cost d from state w,
        for each distinct nonzero cost d, in increasing order of d."""
        if self._near is None:
            trans, m, alpha = self.transitions(), len(self), self.params.alpha
            # every row is a permutation of row 0, so row 0 holds every
            # distinct cost; each is alpha times a migration count below n,
            # so a byte holds the count
            costs = sorted(set(trans[0]) - {0})
            near = {d: [0] * m for d in costs}
            digits = []     # (masks of d, byte -> b"1" if it counts d else b"0")
            for d in costs:
                j = d // alpha
                digits.append((near[d], b"0" * j + b"1" + b"0" * (255 - j)))
            for w, row in enumerate(trans):
                # reversed, so that state s is bit s
                code = bytes(map(floordiv, reversed(row), itertools.repeat(alpha)))
                for masks, table in digits:
                    masks[w] = int(code.translate(table), 2)
            self._near = near
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

    `x` is the closed value vector and `level` maps each value in it to the
    bitmask of the states that hold it; see the module docstring.
    """

    def __init__(self, params: Params, initial: Configuration,
                 space: Optional[PartitionSpace] = None):
        self.space = space = _space_for(params, space)
        self.start = space.state_of(initial)
        self.x = list(space.transitions()[self.start])
        self.level: Dict[int, int] = {}
        for s, v in enumerate(self.x):
            self.level[v] = self.level.get(v, 0) | 1 << s
        self._near = space.near()

    @property
    def value(self) -> int:
        return min(self.level)

    def push(self, req: Request) -> List[int]:
        """Serve req and return the unclosed vector x + e."""
        serve, together, split = self.space.sides(req.u, req.v)
        x, level = self.x, self.level
        # the collocating states by value, the witnesses
        groups: Dict[int, List[int]] = {}
        for w in together:
            groups.setdefault(x[w], []).append(w)
        kept = 0
        for v, ws in groups.items():
            for d, masks in self._near.items():
                target = level.get(v + d, 0) & split & ~kept
                if target:
                    kept |= target & reduce(or_, map(masks.__getitem__, ws))
        served = list(map(add, x, serve))
        self.x = x = served.copy()
        up = split & ~kept
        while kept:
            s = kept.bit_length() - 1
            x[s] -= 1
            kept ^= 1 << s
        self.level = new = {}
        for v, mask in level.items():
            for value, part in ((v, mask & ~up), (v + 1, mask & up)):
                if part:
                    new[value] = new.get(value, 0) | part
        return served


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

    work = WorkFunction(params, initial, space)
    space, start = work.space, work.start
    # values right after each request, as machine words: kept for the
    # backtrack, and costs above 256 would each be an int object
    served = [array("q", work.push(req)) for req in requests]
    if not served:
        return 0, [space.partitions[start]]
    trans = space.transitions()
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
    space = _space_for(params, space)
    start = space.state_of(initial)
    counts: Dict[Tuple[int, int], int] = {}
    for r in requests:
        pair = (r.u, r.v) if r.u < r.v else (r.v, r.u)
        counts[pair] = counts.get(pair, 0) + 1
    # every request is paid for, except in the states that collocate it
    cost = [c + len(requests) for c in space.row(start)]
    for (u, v), count in counts.items():
        for s in space.sides(u, v)[1]:
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
