"""Naive reference implementations the fast paths are checked against.

The search references enumerate exhaustively with no pruning or early
exit, so they are slow but obviously faithful to the selection rules;
they are usable up to roughly ten components. The component reference
runs the algorithm's searches over every component instead of the narrowed
candidates, checks its invariants with one loop per table, and on each
merge and epoch end rewrites both pair tables whole (`_remap`) and rebuilds
the derived index from the weights (`rebuilt_index`, by `_adjacency`),
where the algorithm touches only the members' rows. The
placement and pair-counter references rebuild or scan everything on every
call, and the offline references scan every pair of states on every
request, as does the work function's closed-vector reference, and read the
costs from a matrix built one row at a time by `transition_matrix`; the
migration-distance reference tries every relabeling of the clusters.
`rescan_peel` is the component peel that re-tests every candidate each
round, and `recursive_enumerate_partitions` the state enumeration whose
order the library keeps; `partition_count` is the closed-form size of a
partition space, and `reference_run` the run loop that applies every move
batch, empty ones too. `component_sizes` and `pair_counts` read an
algorithm's state in the shape the tests compare. The ring rotations at
the end are a construction only the adversary tests use.
"""

import itertools
import math
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repart.components import (
    ComponentRepartitioner,
    PairKey,
    _pair,
    find_epoch_set,
    find_merge_set,
)
from repart.core import (
    Configuration,
    GeometryError,
    PairCounts,
    Params,
    Request,
    TooLarge,
    UnknownCluster,
    UnknownNode,
    apply_moves,
    min_migration_cost,
    serve_cost,
)
from repart.engine import StepRecord, Transcript
from repart.offline import (
    PARTITION_CAP,
    Partition,
    PartitionSpace,
    _configuration_of_partition,
)


def component_sizes(alg: ComponentRepartitioner):
    """{component id: member count} of a component algorithm's state."""
    return {cid: len(nodes) for cid, nodes in alg.comp_nodes.items()}


def pair_counts(pairs: PairCounts):
    """The node-indexed counters as {(x, y): count} with x < y."""
    return {(x, y): count for x, mates in pairs.nbrs.items()
            for y, count in mates.items() if x < y}


def internal_weight(subset, weights):
    total = 0
    for a, b in itertools.combinations(sorted(subset), 2):
        total += weights.get((a, b), 0)
    return total


def naive_merge_set(sizes, weights, k, alpha, seed=()):
    """Max |X| with vol <= k and com >= (|X|-1)*alpha; ties max com, then lex.
    Only supersets of `seed` count."""
    best_key = None
    best = ()
    comps = sorted(sizes)
    for r in range(2, len(comps) + 1):
        for sub in itertools.combinations(comps, r):
            if not set(seed) <= set(sub):
                continue
            if sum(sizes[c] for c in sub) > k:
                continue
            com = internal_weight(sub, weights)
            if com < (r - 1) * alpha:
                continue
            key = (-r, -com, sub)
            if best_key is None or key < best_key:
                best_key, best = key, sub
    return best


def naive_epoch_set(sizes, weights, k, alpha, seed=()):
    """Inclusion-minimal sets with vol > k, com >= vol*alpha; pick the
    smallest by (|Y|, vol, lex). The minimality filter is literal: a
    qualifying set survives only if no qualifying proper subset exists.
    Only supersets of `seed` count, for qualifying and for minimality."""
    comps = sorted(sizes)
    qualifying = []
    for r in range(1, len(comps) + 1):
        for sub in itertools.combinations(comps, r):
            if not set(seed) <= set(sub):
                continue
            vol = sum(sizes[c] for c in sub)
            if vol <= k:
                continue
            if internal_weight(sub, weights) < vol * alpha:
                continue
            qualifying.append((frozenset(sub), sub, vol))
    minimal = [q for q in qualifying
               if not any(other[0] < q[0] for other in qualifying)]
    if not minimal:
        return ()
    return min(minimal, key=lambda q: (len(q[1]), q[2], q[1]))[1]


def naive_connected_merge_set(sizes, weights, k, alpha, seed):
    """The step's walk by enumeration: naive_merge_set's answer among the
    supersets of the pair `seed` whose every member reaches the seed along
    members and whose other members have total weight >= alpha; and how many
    such sets have vol <= k."""
    nbrs, deg = {}, {}
    for (a, b), w in weights.items():
        if w > 0:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
            deg[a] = deg.get(a, 0) + w
            deg[b] = deg.get(b, 0) + w
    cands = sorted(c for c in sizes
                   if c not in seed and deg.get(c, 0) >= alpha)
    best_key, best, count = None, (), 0
    for r in range(len(cands) + 1):
        for extra in itertools.combinations(cands, r):
            sub = tuple(sorted(tuple(seed) + extra))
            if sum(sizes[c] for c in sub) > k:
                continue
            reached, frontier = set(seed), list(seed)
            while frontier:
                for d in nbrs.get(frontier.pop(), ()):
                    if d in sub and d not in reached:
                        reached.add(d)
                        frontier.append(d)
            if len(reached) < len(sub):
                continue
            count += 1
            com = internal_weight(sub, weights)
            if com < (len(sub) - 1) * alpha:
                continue
            key = (-len(sub), -com, sub)
            if best_key is None or key < best_key:
                best_key, best = key, sub
    return best, count


def naive_core_merge_set(sizes, weights, core, k, alpha):
    """The residual check's core walk by enumeration: whether some subset of
    `core` that is connected along its members' positive weights is a merge
    set, and how many connected subsets of `core` with vol <= k there are,
    singletons included."""
    holds, count = False, 0
    for r in range(1, len(core) + 1):
        for sub in itertools.combinations(sorted(core), r):
            if sum(sizes[c] for c in sub) > k:
                continue
            reached, frontier = {sub[0]}, [sub[0]]
            while frontier:
                c = frontier.pop()
                for d in sub:
                    if d not in reached and weights.get(
                            (min(c, d), max(c, d)), 0) > 0:
                        reached.add(d)
                        frontier.append(d)
            if len(reached) < r:
                continue
            count += 1
            holds = holds or (r > 1 and internal_weight(sub, weights)
                              >= (r - 1) * alpha)
    return holds, count


def rescan_peel(cands, nbrs, seed, need, fan=None):
    """components._peel by full rescans: each round drops by weight until
    nothing more goes, then, given `fan`, runs the fan test again on every
    candidate left, where _peel re-tests only the neighbours of the
    candidates dropped since."""
    needs = {c: need(c) for c in cands if c in nbrs and c not in seed}
    alive = set(needs).union(seed)
    into = {c: sum([w for d, w in nbrs[c].items() if d in alive])
            for c in needs}

    def thin(c):
        if len(nbrs[c]) <= fan(c):
            return False
        heavy = sorted([w for d, w in nbrs[c].items() if d in alive],
                       reverse=True)
        return sum(heavy[:fan(c)]) < needs[c]

    doomed = [c for c, b in needs.items() if into[c] < b]
    while True:
        while doomed:
            c = doomed.pop()
            if c not in alive:
                continue
            alive.remove(c)
            for d, w in nbrs[c].items():
                if d in alive and d in needs:
                    into[d] -= w
                    if into[d] < needs[d]:
                        doomed.append(d)
        if fan is not None:
            doomed = [c for c in alive if c in needs and thin(c)]
        if not doomed:
            return alive


def random_component_graph(rng, k):
    """Sparse weighted graph on 2..8 components with gappy, unordered ids."""
    count = rng.randint(2, 8)
    ids = rng.sample(range(30), count)
    sizes = {c: rng.randint(1, max(2, k)) for c in ids}
    weights = {}
    for a, b in itertools.combinations(sorted(ids), 2):
        if rng.random() < 0.45:
            weights[(a, b)] = rng.randint(1, 3 * k)
    return sizes, weights


def dense_component_graph(rng, k, alpha):
    """Up to ten mostly unit-size components with dense weights near
    alpha: the shape the algorithm's states have, where the searches' caps
    on how many members fit matter."""
    count = rng.randint(2, 10)
    ids = rng.sample(range(30), count)
    sizes = {c: 1 if rng.random() < 0.8 else rng.randint(1, k) for c in ids}
    weights = {}
    for a, b in itertools.combinations(sorted(ids), 2):
        if rng.random() < 0.6:
            weights[(a, b)] = rng.randint(1, alpha + 1)
    return sizes, weights


def _adjacency(weights: Dict[PairKey, int],
               keep) -> Dict[int, Dict[int, int]]:
    """Positive weights per component, between components in `keep`; a
    component without any has no entry."""
    nbrs: Dict[int, Dict[int, int]] = {}
    for (a, b), w in weights.items():
        if w > 0 and a < b and a in keep and b in keep:
            nbrs.setdefault(a, {})[b] = w
            nbrs.setdefault(b, {})[a] = w
    return nbrs


def _remap(table: Dict[PairKey, int], inside: Set[int],
           cid: int) -> Tuple[Dict[PairKey, int], int]:
    """`table` with the components in `inside` merged into `cid`: a key with
    one end inside moves onto cid, summing with the keys it lands on; keys
    with both ends inside are dropped and their total is returned."""
    out: Dict[PairKey, int] = {}
    internal = 0
    for (a, b), w in table.items():
        a_in, b_in = a in inside, b in inside
        if a_in and b_in:
            internal += w
            continue
        key = _pair(cid, b if a_in else a) if a_in or b_in else (a, b)
        out[key] = out.get(key, 0) + w
    return out, internal


def rebuilt_index(weights, comp_nodes, alpha):
    """A component algorithm's nbrs, deg, warm and hot, rebuilt from its
    weights."""
    nbrs = _adjacency(weights, comp_nodes)
    deg = {c: sum(row.values()) for c, row in nbrs.items()}
    return (nbrs, deg, {c for c, d in deg.items() if d >= alpha},
            {c for c, d in deg.items() if d > alpha * len(comp_nodes[c])})


class ReferenceComponents(ComponentRepartitioner):
    """ComponentRepartitioner whose step and residual check search every
    component, as they did before the searches were narrowed to the
    candidates the merge-exhaustion lemmas leave, whose invariant check
    builds the size, occupancy and reservation tables one loop each, and
    whose merges and epoch ends rewrite the whole pair tables and rebuild
    the index on them."""

    def _detach(self, members, cid=None):
        inside = set(members)
        if cid is None:
            inner = sum(w for (a, b), w in self.pair_remote.items()
                        if a in inside and b in inside)
            self.weights, self.pair_remote = (
                {key: w for key, w in table.items()
                 if key[0] not in inside and key[1] not in inside}
                for table in (self.weights, self.pair_remote))
        else:
            weights, _ = _remap(self.weights, inside, cid)
            self.weights = {key: w for key, w in weights.items() if w > 0}
            self.pair_remote, inner = _remap(self.pair_remote, inside, cid)
        self.nbrs, self.deg, self.warm, self.hot = rebuilt_index(
            self.weights, self.comp_nodes, self.alpha)
        return inner

    def step(self, config, req):
        u, v = req.u, req.v
        cu, cv = self.comp_of[u], self.comp_of[v]
        moves = []
        epoch_fired = False
        if cu != cv:
            key = (min(cu, cv), max(cu, cv))
            self.weights[key] = self.weights.get(key, 0) + 1
            merge_set = find_merge_set(
                component_sizes(self), self.weights, self.k, self.alpha,
                seed=(cu, cv))
            if len(merge_set) > 1:
                moves += self._merge(merge_set)
            seeds = {self.comp_of[u], self.comp_of[v]}
            epoch_set = find_epoch_set(
                component_sizes(self), self.weights, self.k, self.alpha,
                seed=tuple(seeds))
            if epoch_set:
                moves += self._end_epoch(epoch_set)
                epoch_fired = True
        fu, fv = self.comp_of[u], self.comp_of[v]
        if not epoch_fired and self.comp_cluster[fu] != self.comp_cluster[fv]:
            pk = (min(fu, fv), max(fu, fv))
            self.pair_remote[pk] = self.pair_remote.get(pk, 0) + 1
        return moves, []

    def residual_merge_set(self):
        sizes = component_sizes(self)
        live = {c: s for c, s in sizes.items()
                if any(w > 0 and c in key for key, w in self.weights.items())}
        return find_merge_set(live, self.weights, self.k, self.alpha)

    def check_invariants(self, config: Optional[Configuration] = None) -> List[str]:
        errs = list(self.violations)
        sizes = component_sizes(self)
        seen: Set[int] = set()
        for cid, nodes in self.comp_nodes.items():
            for node in nodes:
                if self.comp_of[node] != cid:
                    errs.append("node %d not mapped to component %d" % (node, cid))
                seen.add(node)
        if seen != set(range(self.n)):
            errs.append("components do not partition the node set")
        occ, res = self.occupancy(), self.reserved_space()
        if sum(occ) != self.n:
            errs.append("occupancy sums to %d, not %d" % (sum(occ), self.n))
        for s in range(self.clusters):
            if occ[s] + res[s] > self.capacity:
                errs.append("cluster %d over capacity: o=%d r=%d"
                            % (s, occ[s], res[s]))
        if max(self.capacity - occ[s] - res[s]
               for s in range(self.clusters)) < self.k:
            errs.append("no cluster keeps k spare slots")
        for cid, r in self.comp_reserved.items():
            if not 0 <= r <= max(self.k - 1, 0) or r > sizes[cid]:
                errs.append("component %d reserved %d out of range" % (cid, r))
        for (a, b), w in self.weights.items():
            if a not in sizes or b not in sizes:
                errs.append("weight %r keyed to a dead component" % ((a, b),))
                continue
            if w <= 0:
                errs.append("weight %r not positive" % ((a, b),))
            bound = self.alpha if sizes[a] + sizes[b] <= self.k else (
                sizes[a] + sizes[b]) * self.alpha
            if w >= bound:
                errs.append("edge %r weight %d breaches %d" % ((a, b), w, bound))
        for cid, paid in self.comm_paid.items():
            if paid > (sizes[cid] - 1) * self.alpha:
                errs.append("component %d paid %d remote serves, cap %d"
                            % (cid, paid, (sizes[cid] - 1) * self.alpha))
        for cid, nodes in self.comp_nodes.items():
            per_node_cap = math.ceil(math.log2(max(2, len(nodes))))
            total = 0
            for node in nodes:
                total += self.move_count[node]
                if self.move_count[node] > per_node_cap:
                    errs.append("node %d moved %d times in component of %d"
                                % (node, self.move_count[node], len(nodes)))
            size = len(nodes)
            comp_cap = size * math.ceil(math.log2(size)) if size > 1 else 0
            if total > comp_cap:
                errs.append("component %d total moves %d exceed %d"
                            % (cid, total, comp_cap))
        if config is not None:
            for node in range(self.n):
                if config.cluster_of(node) != self.comp_cluster[self.comp_of[node]]:
                    errs.append("node %d placement disagrees with engine" % node)
        return errs


# -- placement and pair-counter references ------------------------------------
# The library derives configurations incrementally and indexes pair counters
# by node; these are the rebuild-and-scan forms it is checked against.


def rebuild_apply_moves(config, moves, alpha):
    """apply_moves by rebuilding and revalidating the whole assignment."""
    if not moves:
        return config, 0
    old = config.assignment
    new_assignment = list(old)
    for v, c in moves:
        if not 0 <= v < config.n:
            raise UnknownNode("move for unknown node %d" % v)
        if not 0 <= c < config.cluster_count:
            raise UnknownCluster("move to unknown cluster %d" % c)
        new_assignment[v] = c
    changed = sum(1 for a, b in zip(new_assignment, old) if a != b)
    out = Configuration(new_assignment, config.cluster_count,
                        config.cluster_capacity)
    return out, alpha * changed


def scan_nodes_in(config, c):
    return [v for v, cc in enumerate(config.assignment) if cc == c]


class ScanGreedyMatcher:
    """GreedyMatcher choosing its partner by a pair sum over every cluster
    and resetting by a scan of every pair counter."""

    def __init__(self, params, lam):
        self.params = params
        self.lam = lam
        self.out_counts = {}
        self.pair_counts = {}

    def _pair_sum(self, config, c1, c2):
        total = 0
        for x in scan_nodes_in(config, c1):
            for y in scan_nodes_in(config, c2):
                total += self.pair_counts.get((min(x, y), max(x, y)), 0)
        return total

    def step(self, config, request):
        u, v = request.u, request.v
        cu, cv = config.cluster_of(u), config.cluster_of(v)
        if cu == cv:
            return [], []
        key = (min(u, v), max(u, v))
        self.pair_counts[key] = self.pair_counts.get(key, 0) + 1
        self.out_counts[cu] = self.out_counts.get(cu, 0) + 1
        self.out_counts[cv] = self.out_counts.get(cv, 0) + 1
        threshold = self.lam * self.params.alpha
        hot = [c for c in (min(cu, cv), max(cu, cv))
               if self.out_counts.get(c, 0) >= threshold]
        if not hot:
            return [], []
        c1 = hot[0]
        if len(hot) == 2:
            c2 = hot[1]
        else:
            c2 = max((c for c in range(config.cluster_count) if c != c1),
                     key=lambda c: (self._pair_sum(config, c1, c), -c))
        best_pair = None
        best_count = -1
        for x in scan_nodes_in(config, c1):
            for y in scan_nodes_in(config, c2):
                cnt = self.pair_counts.get((min(x, y), max(x, y)), 0)
                if cnt > best_count:
                    best_count = cnt
                    best_pair = (x, y)
        x, y = best_pair
        mate = next(w for w in scan_nodes_in(config, c1) if w != x)
        touched = set(scan_nodes_in(config, c1)) | set(scan_nodes_in(config, c2))
        for k in list(self.pair_counts):
            if k[0] in touched or k[1] in touched:
                del self.pair_counts[k]
        self.out_counts.pop(c1, None)
        self.out_counts.pop(c2, None)
        return [], [(y, c1), (mate, c2)]


class ScanNaiveCollocator:
    """NaiveCollocator resetting by a scan of every pair counter."""

    def __init__(self, params):
        self.threshold = 2 * params.alpha
        self.pair_counts = {}
        self.last_requested = {}

    def step(self, config, request):
        u, v = request.u, request.v
        self.last_requested[u] = request.t
        self.last_requested[v] = request.t
        if config.cluster_of(u) == config.cluster_of(v):
            return [], []
        key = (min(u, v), max(u, v))
        self.pair_counts[key] = self.pair_counts.get(key, 0) + 1
        if self.pair_counts[key] < self.threshold:
            return [], []
        mover, stay = (u, v) if u > v else (v, u)
        target = config.cluster_of(stay)
        candidates = [w for w in scan_nodes_in(config, target) if w != stay]
        evictee = min(candidates,
                      key=lambda w: (self.last_requested.get(w, -1), w))
        for k in list(self.pair_counts):
            if mover in k or evictee in k:
                del self.pair_counts[k]
        return [], [(mover, target), (evictee, config.cluster_of(mover))]


# -- harness reference --------------------------------------------------------
# engine.run binds its callees once per run and skips empty move batches;
# this is the plain loop it is checked against.


def reference_run(alg, src, params, initial, max_steps, observer=None):
    """engine.run with every lookup made per step, and apply_moves called
    on every batch, empty ones included."""
    config = initial
    transcript = Transcript(params, initial.assignment, initial.cluster_count,
                            initial.cluster_capacity)
    for t in range(1, max_steps + 1):
        req = src.next(config)
        if req is None:
            break
        req = Request(req.u, req.v, t)
        pre_moves, post_moves = alg.step(config, req)
        config, mig_pre = apply_moves(config, pre_moves, params.alpha)
        comm = serve_cost(config, req)
        config, mig_post = apply_moves(config, post_moves, params.alpha)
        mig = mig_pre + mig_post
        transcript.ledger.record(comm, mig)
        transcript.steps.append(StepRecord(t, req.u, req.v, tuple(pre_moves),
                                           tuple(post_moves), comm, mig))
        if observer is not None:
            observer(t, config, req, comm, mig)
    transcript.snapshots.append((len(transcript.steps), config))
    return transcript


# -- offline references -------------------------------------------------------
# The library memoises the transition matrix by overlap signature, sweeps only
# the states a request can raise, and counts serves per distinct pair; these
# are the pairwise, full-scan forms it is checked against.


def permutation_min_migration_cost(a, b, alpha):
    """min_migration_cost by trying every one of the ell! relabelings of
    b's clusters onto a's."""
    ell = a.cluster_count
    overlap = [[0] * ell for _ in range(ell)]
    for x, y in zip(a.assignment, b.assignment):
        overlap[x][y] += 1
    best = max(sum(overlap[i][p[i]] for i in range(ell))
               for p in itertools.permutations(range(ell)))
    return alpha * (a.n - best)


def serves(space, request, state):
    """The serve cost of one request in one state of the space."""
    u, v = request.u, request.v
    return 0 if any(u in b and v in b for b in space.partitions[state]) else 1


def partition_count(n: int, k: int, ell: int) -> int:
    """The number of partitions of range(n) into ell blocks of size k."""
    return math.factorial(n) // (math.factorial(k) ** ell * math.factorial(ell))


def recursive_enumerate_partitions(n: int, k: int, ell: int) -> List[Partition]:
    """enumerate_partitions as a recursion on tuples, each block's mates
    dropped by a scan of the mates tuple; its order is the reference."""
    if n != k * ell:
        raise TooLarge("n must equal k * ell")
    if partition_count(n, k, ell) > PARTITION_CAP:
        raise TooLarge("partition space above %d states" % PARTITION_CAP)
    out: List[Partition] = []

    def build(remaining, acc):
        if not remaining:
            out.append(acc)
            return
        head, rest = remaining[0], remaining[1:]
        for mates in itertools.combinations(rest, k - 1):
            left = tuple(x for x in rest if x not in mates)
            build(left, acc + ((head,) + mates,))

    build(tuple(range(n)), ())
    return out


_MATRICES = weakref.WeakKeyDictionary()     # space -> its transition matrix


def transition_matrix(space: PartitionSpace) -> List[List[int]]:
    """The m x m transition matrix, every row through `space.row` and so
    through the overlap memo, with no relabeling; kept while the space
    lives."""
    trans = _MATRICES.get(space)
    if trans is None:
        trans = _MATRICES[space] = [space.row(i) for i in range(len(space))]
    return trans


def pairwise_transitions(space):
    """Every entry of the transition matrix from its own min_migration_cost."""
    k, ell = space.params.k, space.params.ell
    configs = [_configuration_of_partition(p, k, ell) for p in space.partitions]
    return [[min_migration_cost(a, b, space.params.alpha) for b in configs]
            for a in configs]


def full_scan_optimal_cost(requests: Sequence[Request], params: Params,
                           initial: Configuration,
                           space: Optional[PartitionSpace] = None
                           ) -> Tuple[int, List[Partition]]:
    """Dynamic program over partition states.

    Per step the offline player first moves (paying the transition), then
    serves. Returns the optimal total and one optimal state schedule
    (initial state first), ties resolved toward the lowest state index.
    """
    if space is None:
        space = PartitionSpace(params)
    trans = transition_matrix(space)
    m = len(space)
    start = space.state_of(initial)
    dist = [None] * m
    dist[start] = 0
    parents: List[List[int]] = []
    for req in requests:
        ndist = [None] * m
        parent = [0] * m
        for s in range(m):
            best = None
            arg = 0
            for sp in range(m):
                d = dist[sp]
                if d is None:
                    continue
                c = d + trans[sp][s]
                if best is None or c < best:
                    best = c
                    arg = sp
            ndist[s] = best + serves(space, req, s)
            parent[s] = arg
        dist = ndist
        parents.append(parent)
    end = min(range(m),
              key=lambda s: (math.inf if dist[s] is None else dist[s], s))
    total = dist[end] or 0
    path = [end]
    for parent in reversed(parents):
        path.append(parent[path[-1]])
    path.reverse()
    return total, [space.partitions[s] for s in path]


def closed_vectors(requests: Sequence[Request], space: PartitionSpace,
                   initial: Configuration) -> List[List[int]]:
    """The work function before the first request and after each one:
    entry s is the least cost of serving the prefix and then standing in
    state s, every entry a scan over every state."""
    trans = transition_matrix(space)
    m = len(space)
    x = list(trans[space.state_of(initial)])
    out = [x]
    for req in requests:
        served = [x[s] + serves(space, req, s) for s in range(m)]
        x = [min(served[w] + trans[w][s] for w in range(m)) for s in range(m)]
        out.append(x)
    return out


def serve_scan_static_optimal(requests: Sequence[Request], params: Params,
                              initial: Configuration,
                              space: Optional[PartitionSpace] = None
                              ) -> Tuple[int, Partition]:
    """Best single partition: pay once to reach it, then never move."""
    if space is None:
        space = PartitionSpace(params)
    trans = transition_matrix(space)
    start = space.state_of(initial)
    best = None
    best_state = 0
    for s in range(len(space)):
        c = trans[start][s] + sum(serves(space, r, s) for r in requests)
        if best is None or c < best:
            best = c
            best_state = s
    return best, space.partitions[best_state]


def exhaustive_optimal(requests: Sequence[Request], params: Params,
                       initial: Configuration,
                       space: Optional[PartitionSpace] = None) -> int:
    """Brute force over every state sequence. Tiny instances only."""
    if space is None:
        space = PartitionSpace(params)
    if len(requests) > 8:
        raise TooLarge("exhaustive search capped at 8 requests")
    if len(space) > 30:
        raise TooLarge("exhaustive search capped at 30 partitions")
    trans = transition_matrix(space)
    start = space.state_of(initial)
    best = None
    for seq in itertools.product(range(len(space)), repeat=len(requests)):
        cost = 0
        prev = start
        for req, s in zip(requests, seq):
            cost += trans[prev][s] + serves(space, req, s)
            prev = s
        if best is None or cost < best:
            best = cost
    return 0 if best is None else best


# -- adversary constructions --------------------------------------------------


def order_preserving_partition(n: int, k: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """The m-th (1-based) rotation of the ring into contiguous blocks of k.

    Block starts sit at node ids congruent to m mod k, so o_m cuts exactly
    the ring edges e_i with i = m mod k. The k rotations have pairwise
    disjoint cut sets that together cover the whole ring.
    """
    if n % k != 0 or not 1 <= m <= k:
        raise GeometryError("need k | n and 1 <= m <= k")
    blocks = []
    for start in range(m, n + m, k):
        blocks.append(tuple(sorted((start + j) % n for j in range(k))))
    return tuple(sorted(blocks))
