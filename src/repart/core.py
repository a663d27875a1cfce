"""Cost model primitives shared by every algorithm and oracle.

Nodes live in fixed-capacity clusters. A request between two nodes costs 1
when they sit in different clusters and 0 otherwise; moving a node between
clusters costs alpha. Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union


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


@dataclass(frozen=True)
class Request:
    u: int
    v: int
    t: int = 0  # 1-based step index, 0 when not yet scheduled

    def __post_init__(self):
        if self.u == self.v:
            raise GeometryError("request endpoints must differ, got %d" % self.u)
        if self.u < 0 or self.v < 0:
            raise UnknownNode("negative node id in request")


class Configuration:
    """Immutable node -> cluster assignment with fixed capacities.

    The per-cluster member tuples behind `nodes_in` are built lazily and
    carried into the configurations that `apply_moves` derives, which share
    them with their parent for the clusters a move leaves alone, so a step
    costs O(moves) rather than O(n).
    """

    __slots__ = ("assignment", "cluster_count", "cluster_capacity", "_counts",
                 "_members")

    def __init__(self, assignment: Sequence[int], cluster_count: int,
                 cluster_capacity: int):
        self.assignment: Tuple[int, ...] = tuple(assignment)
        self.cluster_count = cluster_count
        self.cluster_capacity = cluster_capacity
        counts = [0] * cluster_count
        for v, c in enumerate(self.assignment):
            if not 0 <= c < cluster_count:
                raise UnknownCluster("node %d assigned to cluster %d" % (v, c))
            counts[c] += 1
            if counts[c] > cluster_capacity:
                raise CapacityExceeded("cluster %d over capacity %d"
                                       % (c, cluster_capacity))
        self._counts = tuple(counts)
        self._members: Optional[List[Tuple[int, ...]]] = None

    def _derived(self, assignment: Tuple[int, ...], counts: Tuple[int, ...],
                 members: Optional[List[Tuple[int, ...]]]) -> "Configuration":
        """A child with this shape whose validity and member index the
        caller vouches for; skips the O(n) validation of __init__."""
        out = Configuration.__new__(Configuration)
        out.cluster_count = self.cluster_count
        out.cluster_capacity = self.cluster_capacity
        out.assignment, out._counts = assignment, counts
        out._members = members
        return out

    @property
    def n(self) -> int:
        return len(self.assignment)

    def cluster_of(self, v: int) -> int:
        if not 0 <= v < len(self.assignment):
            raise UnknownNode("node %d outside [0, %d)" % (v, len(self.assignment)))
        return self.assignment[v]

    def _build_members(self) -> List[Tuple[int, ...]]:
        members: List[List[int]] = [[] for _ in range(self.cluster_count)]
        for v, c in enumerate(self.assignment):
            members[c].append(v)
        return [tuple(m) for m in members]

    def nodes_in(self, c: int) -> List[int]:
        """Members of cluster c in increasing id order."""
        if not 0 <= c < self.cluster_count:
            raise UnknownCluster("cluster %d outside [0, %d)" % (c, self.cluster_count))
        if self._members is None:
            self._members = self._build_members()
        return list(self._members[c])

    def occupancy(self, c: int) -> int:
        if not 0 <= c < self.cluster_count:
            raise UnknownCluster("cluster %d outside [0, %d)" % (c, self.cluster_count))
        return self._counts[c]

    def canonical(self) -> str:
        # one C-level format pass, with no string object per node
        body = ("%d," * len(self.assignment) % self.assignment)[:-1]
        return "%d/%d:%s" % (self.cluster_count, self.cluster_capacity, body)

    def __eq__(self, other):
        return (isinstance(other, Configuration)
                and self.assignment == other.assignment
                and self.cluster_count == other.cluster_count
                and self.cluster_capacity == other.cluster_capacity)

    def __hash__(self):
        return hash((self.assignment, self.cluster_count, self.cluster_capacity))

    def __repr__(self):
        return "Configuration(%s)" % self.canonical()


AssignmentLike = Union[Mapping[int, int], Sequence[int]]


def new_configuration(assignment: AssignmentLike, cluster_count: int,
                      cluster_capacity: int) -> Configuration:
    """Build a validated configuration from a node->cluster mapping."""
    if isinstance(assignment, Mapping):
        n = len(assignment)
        flat = [-1] * n
        for v, c in assignment.items():
            if not 0 <= v < n:
                raise UnknownNode("node id %d outside [0, %d)" % (v, n))
            flat[v] = c
        assignment = flat
    return Configuration(assignment, cluster_count, cluster_capacity)


def contiguous_configuration(params: Params) -> Configuration:
    """Canonical initial placement: node i sits in cluster i // k."""
    return Configuration([v // params.k for v in range(params.n)],
                         params.ell, params.k)


def serve_cost(config: Configuration, request: Request) -> int:
    """1 if the endpoints are split across clusters, else 0. Symmetric."""
    return 1 if config.cluster_of(request.u) != config.cluster_of(request.v) else 0


def apply_moves(config: Configuration, moves: Sequence[Tuple[int, int]],
                alpha: int) -> Tuple[Configuration, int]:
    """Apply a batch of (node, target cluster) moves atomically.

    Cost is alpha per node whose cluster actually changed; moves onto the
    current cluster are free, and when a node appears more than once its
    last move wins. Capacity is validated on the final placement only, so
    batches may pass through transient overfull states. Only the moved
    nodes and the clusters they enter are checked, since `config` is valid.
    """
    if not moves:
        return config, 0
    n, ell = len(config.assignment), config.cluster_count
    final: Dict[int, int] = {}
    for v, c in moves:
        if not 0 <= v < n:
            raise UnknownNode("move for unknown node %d" % v)
        if not 0 <= c < ell:
            raise UnknownCluster("move to unknown cluster %d" % c)
        final[v] = c
    old = config.assignment
    changed = [(v, old[v], c) for v, c in final.items() if old[v] != c]
    if not changed:
        return config, 0
    assignment = list(old)
    counts = list(config._counts)
    for v, a, b in changed:
        assignment[v] = b
        counts[a] -= 1
        counts[b] += 1
    entered = {b for _, _, b in changed}
    for c in sorted(entered):
        if counts[c] > config.cluster_capacity:
            raise CapacityExceeded("cluster %d over capacity %d"
                                   % (c, config.cluster_capacity))
    members = config._members
    if members is not None:
        members = list(members)   # untouched clusters stay shared with config
        for c in entered.union(a for _, a, _ in changed):
            members[c] = tuple(sorted(
                [v for v in members[c] if assignment[v] == c]
                + [v for v, _, b in changed if b == c]))
    out = config._derived(tuple(assignment), tuple(counts), members)
    return out, alpha * len(changed)


def _overlap_matrix(a: Configuration, b: Configuration) -> List[List[int]]:
    m = [[0] * b.cluster_count for _ in range(a.cluster_count)]
    for v in range(a.n):
        m[a.assignment[v]][b.assignment[v]] += 1
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

    def as_dict(self) -> Dict[Tuple[int, int], int]:
        """{(x, y): count} with x < y."""
        return {(x, y): count for x, mates in self.nbrs.items()
                for y, count in mates.items() if x < y}


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
