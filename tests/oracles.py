"""Naive reference implementations the fast paths are checked against.

The search references enumerate exhaustively with no pruning or early
exit, so they are slow but obviously faithful to the selection rules;
they are usable up to roughly ten components. The placement and
pair-counter references rebuild or scan everything on every call.
"""

import itertools

from repart.core import Configuration, UnknownCluster, UnknownNode, zobrist


def internal_weight(subset, weights):
    total = 0
    for a, b in itertools.combinations(sorted(subset), 2):
        total += weights.get((a, b), 0)
    return total


def naive_merge_set(sizes, weights, k, alpha):
    """Max |X| with vol <= k and com >= (|X|-1)*alpha; ties max com, then lex."""
    best_key = None
    best = ()
    comps = sorted(sizes)
    for r in range(2, len(comps) + 1):
        for sub in itertools.combinations(comps, r):
            if sum(sizes[c] for c in sub) > k:
                continue
            com = internal_weight(sub, weights)
            if com < (r - 1) * alpha:
                continue
            key = (-r, -com, sub)
            if best_key is None or key < best_key:
                best_key, best = key, sub
    return best


def naive_epoch_set(sizes, weights, k, alpha):
    """Inclusion-minimal sets with vol > k, com >= vol*alpha; pick the
    smallest by (|Y|, vol, lex). The minimality filter is literal: a
    qualifying set survives only if no qualifying proper subset exists."""
    comps = sorted(sizes)
    qualifying = []
    for r in range(1, len(comps) + 1):
        for sub in itertools.combinations(comps, r):
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


# -- placement and pair-counter references ------------------------------------
# The library derives configurations incrementally and indexes pair counters
# by node; these are the rebuild-and-scan forms it is checked against.


def rebuild_apply_moves(config, moves, alpha):
    """apply_moves by rebuilding and revalidating the whole assignment."""
    if not moves:
        return config, 0
    new_assignment = list(config.assignment)
    for v, c in moves:
        if not 0 <= v < config.n:
            raise UnknownNode("move for unknown node %d" % v)
        if not 0 <= c < config.cluster_count:
            raise UnknownCluster("move to unknown cluster %d" % c)
        new_assignment[v] = c
    changed = sum(1 for v in range(config.n)
                  if new_assignment[v] != config.assignment[v])
    out = Configuration(new_assignment, config.cluster_count,
                        config.cluster_capacity)
    return out, alpha * changed


def scan_nodes_in(config, c):
    return [v for v, cc in enumerate(config.assignment) if cc == c]


def scratch_key(config):
    """The Zobrist key recomputed from every node's placement."""
    key = 0
    for v, c in enumerate(config.assignment):
        key ^= zobrist(v, c)
    return key & ((1 << 64) - 1)


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
