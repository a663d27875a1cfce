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

    A configuration and every configuration `apply_moves` derives from it
    are versions of one persistent array (Baker 1978; Conchon & Filliatre
    2007). They share a single mutable store: the assignment list, the
    per-cluster counts and the lazily built per-cluster member tuples
    behind `nodes_in`. The version that holds the store reads in O(1);
    every other version holds only the undo moves that lead from a
    neighbour version (`_next`) to itself. Reading an old version first
    walks the store back to it, applying and reversing the undo moves on
    the way (`_reroot`), so deriving a child costs O(moves + k) and copies
    nothing of size n or ell, and a run that reads only its newest version
    never walks at all. The moves of a whole chain stay reachable from its
    oldest version.

    Every version stays observably immutable, but reading any version
    mutates the shared store: versions of one chain must not be read from
    more than one thread at a time.
    """

    __slots__ = ("n", "cluster_count", "cluster_capacity", "_assign",
                 "_counts", "_members", "_undo", "_next")

    def __init__(self, assignment: Sequence[int], cluster_count: int,
                 cluster_capacity: int):
        self._assign: List[int] = list(assignment)
        self.n = len(self._assign)
        self.cluster_count = cluster_count
        self.cluster_capacity = cluster_capacity
        counts = [0] * cluster_count
        for v, c in enumerate(self._assign):
            if not 0 <= c < cluster_count:
                raise UnknownCluster("node %d assigned to cluster %d" % (v, c))
            counts[c] += 1
            if counts[c] > cluster_capacity:
                raise CapacityExceeded("cluster %d over capacity %d"
                                       % (c, cluster_capacity))
        self._counts = counts
        self._members: List[Tuple[int, ...]] = []   # empty until first built
        self._undo: Tuple[Tuple[int, int], ...] = ()
        self._next: Optional[Configuration] = None  # None: holds the store

    def _child(self) -> "Configuration":
        """A new version on this one's store, holding it; the caller moves
        the store to the child's placement and leaves undo moves here."""
        out = Configuration.__new__(Configuration)
        out.n, out.cluster_count = self.n, self.cluster_count
        out.cluster_capacity = self.cluster_capacity
        out._assign, out._counts = self._assign, self._counts
        out._members, out._undo, out._next = self._members, (), None
        return out

    def _shift(self, moves: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
        """Move each (node, cluster) in the store, every node distinct and
        every move a real change; return the moves that undo them."""
        assign, counts, members = self._assign, self._counts, self._members
        undo = tuple((v, assign[v]) for v, _ in moves)
        for (v, c), (_, a) in zip(moves, undo):
            assign[v] = c
            counts[a] -= 1
            counts[c] += 1
        if members:
            for c in {c for _, c in moves}.union(a for _, a in undo):
                members[c] = tuple(sorted(
                    [w for w in members[c] if assign[w] == c]
                    + [v for v, b in moves if b == c]))
        return undo

    def _reroot(self):
        """Walk the store back to this version, iteratively: a replay
        reroots through a whole run."""
        path = []
        ver = self
        while ver._next is not None:
            path.append(ver)
            ver = ver._next
        for ver in reversed(path):
            holder = ver._next
            holder._undo, holder._next = self._shift(ver._undo), ver
            ver._undo, ver._next = (), None

    @property
    def assignment(self) -> Tuple[int, ...]:
        """A snapshot of the whole placement; O(n), so not for step paths."""
        if self._next is not None:
            self._reroot()
        return tuple(self._assign)

    def cluster_of(self, v: int) -> int:
        if self._next is not None:
            self._reroot()
        if not 0 <= v < self.n:
            raise UnknownNode("node %d outside [0, %d)" % (v, self.n))
        return self._assign[v]

    def _build_members(self) -> List[Tuple[int, ...]]:
        members: List[List[int]] = [[] for _ in range(self.cluster_count)]
        for v, c in enumerate(self._assign):
            members[c].append(v)
        return [tuple(m) for m in members]

    def nodes_in(self, c: int) -> List[int]:
        """Members of cluster c in increasing id order."""
        if self._next is not None:
            self._reroot()
        if not 0 <= c < self.cluster_count:
            raise UnknownCluster("cluster %d outside [0, %d)" % (c, self.cluster_count))
        if not self._members:
            self._members.extend(self._build_members())
        return list(self._members[c])

    def occupancy(self, c: int) -> int:
        if self._next is not None:
            self._reroot()
        if not 0 <= c < self.cluster_count:
            raise UnknownCluster("cluster %d outside [0, %d)" % (c, self.cluster_count))
        return self._counts[c]

    def canonical(self) -> str:
        # one C-level format pass, with no string object per node
        body = ("%d," * self.n % self.assignment)[:-1]
        return "%d/%d:%s" % (self.cluster_count, self.cluster_capacity, body)

    def __eq__(self, other):
        return (isinstance(other, Configuration)
                and self.cluster_count == other.cluster_count
                and self.cluster_capacity == other.cluster_capacity
                and self.assignment == other.assignment)

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
    The child takes over `config`'s store in O(moves + k); a rejected batch
    leaves the store as it found it.
    """
    if not moves:
        return config, 0
    n, ell = config.n, config.cluster_count
    final: Dict[int, int] = {}
    for v, c in moves:
        if not 0 <= v < n:
            raise UnknownNode("move for unknown node %d" % v)
        if not 0 <= c < ell:
            raise UnknownCluster("move to unknown cluster %d" % c)
        final[v] = c
    if config._next is not None:
        config._reroot()
    old = config._assign
    changed = [(v, c) for v, c in final.items() if old[v] != c]
    if not changed:
        return config, 0
    gain: Dict[int, int] = {}
    for v, c in changed:
        gain[c] = gain.get(c, 0) + 1
        gain[old[v]] = gain.get(old[v], 0) - 1
    counts = config._counts
    for c in sorted(gain):
        if counts[c] + gain[c] > config.cluster_capacity:
            raise CapacityExceeded("cluster %d over capacity %d"
                                   % (c, config.cluster_capacity))
    out = config._child()
    config._undo, config._next = config._shift(changed), out
    return out, alpha * len(changed)


def _overlap_matrix(a: Configuration, b: Configuration) -> List[List[int]]:
    m = [[0] * b.cluster_count for _ in range(a.cluster_count)]
    # one snapshot each: a and b may be versions of one store
    for x, y in zip(a.assignment, b.assignment):
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
