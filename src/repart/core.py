"""Cost model primitives shared by every algorithm and oracle.

Nodes live in fixed-capacity clusters. A request between two nodes costs 1
when they sit in different clusters and 0 otherwise; moving a node between
clusters costs alpha. Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Tuple


class RepartError(Exception):
    pass


class GeometryError(RepartError):
    pass


class CapacityExceeded(RepartError):
    pass


class UnknownCluster(RepartError):
    pass


class UnknownNode(RepartError):
    pass


class ShapeMismatch(RepartError):
    pass


class TooLarge(RepartError):
    pass


@dataclass(frozen=True)
class Params:
    """Instance shape: n nodes, ell clusters of k slots, integer costs."""

    n: int
    k: int
    ell: int
    alpha: int = 1
    delta: int = 1  # capacity factor granted to the online side

    def __post_init__(self):
        if self.n != self.k * self.ell:
            raise GeometryError("n must equal k * ell, got n=%d k=%d ell=%d"
                                % (self.n, self.k, self.ell))
        if self.k < 1 or self.ell < 1:
            raise GeometryError("k and ell must be positive")
        if not isinstance(self.alpha, int) or self.alpha < 1:
            raise GeometryError("alpha must be an integer >= 1")
        if not isinstance(self.delta, int) or self.delta < 1:
            raise GeometryError("delta must be an integer >= 1")


class _RequestFields(NamedTuple):
    u: int
    v: int
    t: int = 0  # 1-based step index, 0 when not yet scheduled


class Request(_RequestFields):
    """A request between nodes u and v: an immutable, validated tuple.

    Every step builds one, so it is a tuple rather than a dataclass; it
    equals and hashes as the tuple (u, v, t).
    """

    __slots__ = ()

    def __new__(cls, u: int, v: int, t: int = 0):
        if u == v:
            raise GeometryError("request endpoints must differ, got %d" % u)
        if u < 0 or v < 0:
            raise UnknownNode("negative node id in request")
        return tuple.__new__(cls, (u, v, t))


class Configuration:
    """A node -> cluster assignment with fixed capacities, moved in place.

    It holds the assignment list and the sorted member list of each
    cluster, both filled by the validating construction and kept current
    by `apply_moves`, so `cluster_of` reads in O(1) and `nodes_in` in
    O(k), and a batch of moves costs O(moves * k) at any n. It is mutable
    and so does not hash.
    """

    __slots__ = ("n", "cluster_count", "cluster_capacity", "_assign",
                 "_members")

    def __init__(self, assignment: Sequence[int], cluster_count: int,
                 cluster_capacity: int):
        self._assign: List[int] = list(assignment)
        self.n = len(self._assign)
        self.cluster_count = cluster_count
        self.cluster_capacity = cluster_capacity
        # nodes come in increasing id order, so every member list is sorted
        members: List[List[int]] = [[] for _ in range(cluster_count)]
        for v, c in enumerate(self._assign):
            if not 0 <= c < cluster_count:
                raise UnknownCluster("node %d assigned to cluster %d" % (v, c))
            members[c].append(v)
            if len(members[c]) > cluster_capacity:
                raise CapacityExceeded("cluster %d over capacity %d"
                                       % (c, cluster_capacity))
        self._members = members

    @property
    def assignment(self) -> Tuple[int, ...]:
        """A snapshot of the whole placement; O(n), so not for step paths."""
        return tuple(self._assign)

    def cluster_of(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise UnknownNode("node %d outside [0, %d)" % (v, self.n))
        return self._assign[v]

    def nodes_in(self, c: int) -> List[int]:
        """Members of cluster c in increasing id order."""
        if not 0 <= c < self.cluster_count:
            raise UnknownCluster("cluster %d outside [0, %d)" % (c, self.cluster_count))
        return self._members[c][:]

    def canonical(self) -> str:
        # one C-level format pass, with no string object per node
        body = ("%d," * self.n % self.assignment)[:-1]
        return "%d/%d:%s" % (self.cluster_count, self.cluster_capacity, body)

    def __eq__(self, other):
        return (isinstance(other, Configuration)
                and self.cluster_count == other.cluster_count
                and self.cluster_capacity == other.cluster_capacity
                and self.assignment == other.assignment)

    def __repr__(self):
        return "Configuration(%s)" % self.canonical()


def new_configuration(assignment: Sequence[int], cluster_count: int,
                      cluster_capacity: int) -> Configuration:
    """A validated configuration with node v in cluster assignment[v]."""
    return Configuration(assignment, cluster_count, cluster_capacity)


def contiguous_configuration(params: Params) -> Configuration:
    """Canonical initial placement: node i sits in cluster i // k."""
    return Configuration([v // params.k for v in range(params.n)],
                         params.ell, params.k)


def serve_cost(config: Configuration, request: Request) -> int:
    """1 if the endpoints are split across clusters, else 0. Symmetric."""
    return 1 if config.cluster_of(request.u) != config.cluster_of(request.v) else 0


def apply_moves(config: Configuration, moves: Sequence[Tuple[int, int]],
                alpha: int) -> int:
    """Apply a batch of (node, target cluster) moves atomically, in place.

    Cost is alpha per node whose cluster actually changed; moves onto the
    current cluster are free, and when a node appears more than once its
    last move wins. Capacity is validated on the final placement only, so
    batches may pass through transient overfull states. Only the moved
    nodes and the clusters they enter are checked, since `config` is valid.
    The whole batch is checked before any node moves, so a rejected batch
    leaves `config` as it was. Returns the migration cost.
    """
    if not moves:
        return 0
    n, ell = config.n, config.cluster_count
    final: Dict[int, int] = {}
    for v, c in moves:
        if not 0 <= v < n:
            raise UnknownNode("move for unknown node %d" % v)
        if not 0 <= c < ell:
            raise UnknownCluster("move to unknown cluster %d" % c)
        final[v] = c
    assign, members = config._assign, config._members
    changed = [(v, c) for v, c in final.items() if assign[v] != c]
    if not changed:
        return 0
    gain: Dict[int, int] = {}
    for v, c in changed:
        gain[c] = gain.get(c, 0) + 1
        gain[assign[v]] = gain.get(assign[v], 0) - 1
    for c in sorted(gain):
        if len(members[c]) + gain[c] > config.cluster_capacity:
            raise CapacityExceeded("cluster %d over capacity %d"
                                   % (c, config.cluster_capacity))
    for v, c in changed:
        members[assign[v]].remove(v)
        bisect.insort(members[c], v)
        assign[v] = c
    return alpha * len(changed)


def _overlap_matrix(a: Configuration, b: Configuration) -> List[List[int]]:
    m = [[0] * b.cluster_count for _ in range(a.cluster_count)]
    for x, y in zip(a._assign, b._assign):
        m[x][y] += 1
    return m


def _max_overlap(m: List[List[int]]) -> int:
    """The largest sum of m[i][p(i)] over permutations p of the columns.

    The Hungarian method (Kuhn 1955, Munkres 1957) on the costs -m, in
    O(ell^3) integer steps: rows join the matching one at a time, each
    through a shortest augmenting path over the reduced costs
    -m[i][j] - u[i] - v[j] >= 0, grown from a root column ell, while the
    dual potentials u and v keep every matched pair at reduced cost 0.
    """
    ell = len(m)
    u, v = [0] * ell, [0] * (ell + 1)
    row_of = [-1] * (ell + 1)          # the row matched to each column
    for i in range(ell):
        row_of[ell] = i
        slack = [-x - y for x, y in zip(m[i], v)]   # u[i] is still 0
        via = [ell] * ell              # the tree column each slack comes from
        tree, free = [ell], list(range(ell))
        while True:
            j = min(free, key=slack.__getitem__)
            delta = slack[j]
            for t in tree:
                u[row_of[t]] += delta
                v[t] -= delta
            for f in free:
                slack[f] -= delta
            free.remove(j)
            tree.append(j)
            r = row_of[j]
            if r < 0:
                break
            row, ur = m[r], u[r]
            for f in free:
                reduced = -row[f] - ur - v[f]
                if reduced < slack[f]:
                    slack[f], via[f] = reduced, j
        while j != ell:                # shift the matching along the path
            row_of[j] = row_of[via[j]]
            j = via[j]
    return sum(m[row_of[j]][j] for j in range(ell))


def min_migration_cost(a: Configuration, b: Configuration, alpha: int) -> int:
    """Cheapest node-move cost turning a into b up to cluster relabeling.

    Equals alpha * (n - best overlap) where the best overlap maximizes the
    number of nodes whose cluster label can be matched under some bijection
    of cluster ids, found by `_max_overlap`.
    """
    if (a.n != b.n or a.cluster_count != b.cluster_count
            or a.cluster_capacity != b.cluster_capacity):
        raise ShapeMismatch("configurations disagree on n, cluster count, or capacity")
    return alpha * (a.n - _max_overlap(_overlap_matrix(a, b)))


class PairCounts:
    """Counters on unordered node pairs, indexed by node.

    `nbrs[x][y]` holds the count of the pair {x, y} under both endpoints,
    so a node's pairs are found, and forgotten, without scanning the rest.
    """

    def __init__(self):
        self.nbrs: Dict[int, Dict[int, int]] = {}

    def add(self, u: int, v: int) -> int:
        """Count one more {u, v} and return the new count."""
        mates = self.nbrs.setdefault(u, {})
        count = mates[v] = mates.get(v, 0) + 1
        self.nbrs.setdefault(v, {})[u] = count
        return count

    def get(self, u: int, v: int) -> int:
        return self.nbrs.get(u, {}).get(v, 0)

    def drop(self, v: int):
        """Forget every pair touching v."""
        for w in self.nbrs.pop(v, ()):
            mates = self.nbrs[w]
            del mates[v]
            if not mates:
                del self.nbrs[w]


@dataclass
class CostLedger:
    """Running totals plus the per-step trail behind them."""

    comm_total: int = 0
    mig_total: int = 0
    per_step: List[Tuple[int, int]] = field(default_factory=list)  # (comm_t, mig_t)

    def record(self, comm_t: int, mig_t: int):
        self.comm_total += comm_t
        self.mig_total += mig_t
        self.per_step.append((comm_t, mig_t))

    @property
    def total(self) -> int:
        return self.comm_total + self.mig_total
