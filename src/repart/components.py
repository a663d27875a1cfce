"""Component-based online repartitioning under doubled capacity.

Nodes that keep communicating are merged into components; a component always
lives inside one cluster. The algorithm runs on 2*ell clusters of capacity
2*k (the 4x augmentation it requires), reserving headroom in a cluster every
time a component lands there so the component can keep growing in place.
When a component set's traffic exceeds its volume times alpha, that part of
the partition has become too expensive to keep collocated: the epoch for
those components ends and they break back into singletons.

Weight bookkeeping is per unordered component pair. Remote-served requests
are tracked separately from raw weights because two distinct components can
share a cluster (their requests cost nothing but still count as weight).

A merge set X has |X| >= 2, vol(X) <= k and com(X) >= (|X|-1)*alpha; an
epoch set Y has vol(Y) > k and com(Y) >= vol(Y)*alpha. The state is
merge-exhausted when no merge set exists. Weights are positive integers and
sizes at least 1, so the searches can be narrowed by three lemmas:

1. Merge core (precondition: merge-exhausted before the step's weight
   increment on the pair S of touched components). Every merge set X now
   contains S. Each c in X outside S has w(c, X-c) >= alpha, as otherwise
   com(X-c) >= (|X-c|-1)*alpha + 1 and X-c qualified before the step.
   X is connected: were it split into A (holding S, which is an edge) and
   B with no weight between them, then com(B) <= (|B|-1)*alpha, since B
   does not hold S, so com(A) >= |A|*alpha and A qualified before the
   step. With at most k - vol(S) members outside S, every member lies
   within k - vol(S) hops of S.
2. Epoch core (precondition: merge-exhausted, which holds after the merge,
   since a set with the new component would have extended the maximum X).
   A nonempty set with com >= vol*alpha then has vol > k: a singleton has
   com 0, and a larger set of vol <= k would be a merge set. So each c
   outside the seed of a minimum-cardinality Y has w(c, Y-c) >
   alpha*size(c), or else Y-c, which holds the seed, would be a smaller
   epoch set. If moreover no epoch set avoids the seed, Y is connected.
3. Residual core (no precondition). Take a merge set X of minimum
   cardinality. If |X| = 2, X is a pair with w >= alpha and vol <= k. If
   |X| >= 3, each X-c has at least two members and vol <= k but does not
   qualify, so com(X-c) <= (|X|-2)*alpha - 1 and w(c, X-c) = com(X) -
   com(X-c) >= alpha+1; and size(c) <= k-2, as the other members take at
   least two slots. So a merge set exists iff a pair qualifies or the core
   holds one: what remains after peeling components whose weight into the
   rest is at most alpha or whose size exceeds k-2.

In each case every answer lies in what survives peeling (peeling removes c
only when its weight into a superset of the answer is already too low), so
the public searches, run on the survivors, return exactly what they return
on all components. `step` relies on lemmas 1 and 2 and so on the invariant
that `residual_merge_set` checks after every step; that check relies on
lemma 3 only, and falls back to a search over all components whenever a
pair qualifies or the core holds a merge set.
"""

import math
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from .core import Configuration, GeometryError, Params, Request, new_configuration

Move = Tuple[int, int]
PairKey = Tuple[int, int]


class InsufficientAugmentation(Exception):
    """The algorithm needs at least 4x capacity augmentation."""


class NoEligibleCluster(Exception):
    """No cluster can host a merged component.

    Unreachable when the invariants hold (some cluster always keeps k spare
    slots); raised loudly instead of silently corrupting the placement.
    """


def _pair(a: int, b: int) -> PairKey:
    return (a, b) if a < b else (b, a)


# ---------------------------------------------------------------------------
# Subset searches over a weighted component graph.
#
# Both searches grow subsets of the candidate ids depth first, adding members
# in ascending id order. That order plus a full-key comparison gives the
# deterministic tie-breaks. Prunes only ever discard subsets that provably
# cannot beat the incumbent, so results match naive enumeration exactly.
# Weights are request counts, read under their (low, high) keys only, as
# _pair makes them; entries that are not positive carry no traffic. Sizes
# are at least 1.
#
# Both searches cut with a density bound. Say each member c of a set costs
# charge(c): alpha for a merge set, whose com must reach (|X|-1)*alpha, and
# alpha*size(c) for an epoch set, com >= alpha*vol. Adding candidates T to
# the chosen set S changes 2*(com - charge) by the sum over c in T of
# 2*(gain(c) - charge(c)) + w(c, T - c), where gain(c) = w(c, S) is kept
# current as members are added and taken back. A branch is cut when even
# the positive terms cannot lift 2*(com - charge) to zero, with w(c, T - c)
# bounded by c's weight to the candidates still to come (epoch sets), or to
# its k-vol-1 heaviest neighbours, since no more than k-vol members fit
# (merge sets, where also only the k-vol largest terms count).


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


def _search_graph(sizes: Dict[int, int], weights: Dict[PairKey, int],
                  seed: Sequence[int]):
    """The non-seed candidates in id order, and by position in that order
    their sizes, their weights into the seed and their weights to one
    another as (position, weight) lists; and the seed's own com."""
    seed = set(seed)
    comps = sorted(c for c in sizes if c not in seed)
    at = {c: j for j, c in enumerate(comps)}
    gain = [0] * len(comps)
    edges: List[List[Tuple[int, int]]] = [[] for _ in comps]
    com0 = 0
    for (a, b), w in weights.items():
        if w <= 0 or a >= b:
            continue
        if a in at:
            if b in at:
                edges[at[a]].append((at[b], w))
                edges[at[b]].append((at[a], w))
            elif b in seed:
                gain[at[a]] += w
        elif a in seed:
            if b in at:
                gain[at[b]] += w
            elif b in seed:
                com0 += w
    return comps, [sizes[c] for c in comps], gain, edges, com0


def _shift(edges: List[Tuple[int, int]], counter: List[int], sign: int):
    """Add (sign 1) or take back (sign -1) one candidate's edge weights."""
    for d, w in edges:
        counter[d] += sign * w


def find_merge_set(sizes: Dict[int, int], weights: Dict[PairKey, int],
                   k: int, alpha: int,
                   seed: Sequence[int] = ()) -> Tuple[int, ...]:
    """Largest component set X with vol(X) <= k and com(X) >= (|X|-1)*alpha.

    Ties: maximum com(X), then lexicographically smallest sorted id tuple.
    Returns () when nothing with |X| > 1 qualifies. `seed` restricts the
    search to supersets of the given ids (callers must know every qualifying
    set contains them; the empty seed searches everything).
    """
    seed = tuple(sorted(seed))
    vol0 = sum(sizes[c] for c in seed)
    if vol0 > k:
        return ()
    comps, size, gain, edges, com0 = _search_graph(sizes, weights, seed)
    m = len(comps)
    # heaviest[j][r]: the sum of candidate j's r heaviest weights
    heaviest = []
    for adj in edges:
        sums = [0]
        for w in sorted((w for _, w in adj), reverse=True)[:k - 1]:
            sums.append(sums[-1] + w)
        heaviest.append(sums + [sums[-1]] * (k - len(sums)))

    best_key: Optional[Tuple[int, int, Tuple[int, ...]]] = None
    best: Tuple[int, ...] = ()

    def consider(chosen: Tuple[int, ...], com: int):
        nonlocal best_key, best
        card = len(chosen)
        if card < 2 or com < (card - 1) * alpha:
            return
        key = (-card, -com, chosen)
        if best_key is None or key < best_key:
            best_key, best = key, chosen

    def grow(i: int, chosen: Tuple[int, ...], vol: int, com: int):
        card, room = len(chosen), k - vol
        if best_key is not None and card + room < -best_key[0]:
            return
        fits = [j for j in range(i, m) if size[j] <= room]
        lifts = sorted([2 * (gain[j] - alpha) + heaviest[j][room - 1]
                        for j in fits])
        if 2 * (com - (card - 1) * alpha) + sum(
                lift for lift in lifts[-room:] if lift > 0) < 0:
            return
        for j in fits:
            new = tuple(sorted(chosen + (comps[j],)))
            consider(new, com + gain[j])
            _shift(edges[j], gain, 1)
            grow(j + 1, new, vol + size[j], com + gain[j])
            _shift(edges[j], gain, -1)

    consider(seed, com0)
    grow(0, seed, vol0, com0)
    return best


def find_epoch_set(sizes: Dict[int, int], weights: Dict[PairKey, int],
                   k: int, alpha: int,
                   seed: Sequence[int] = ()) -> Tuple[int, ...]:
    """Minimal component set Y with vol(Y) > k and com(Y) >= vol(Y)*alpha.

    Smallest |Y| first, then smallest vol(Y), then lexicographic ids; a
    minimum-cardinality qualifying set never contains a qualifying proper
    subset, so this realizes inclusion-minimality. Returns () when no set
    qualifies. `seed` restricts the search to supersets of the given ids.
    """
    if sum(w for w in weights.values() if w > 0) < (k + 1) * alpha:
        return ()
    seed = tuple(sorted(seed))
    vol0 = sum(sizes[c] for c in seed)
    comps, size, gain, edges, com0 = _search_graph(sizes, weights, seed)
    m = len(comps)
    # later[j]: candidate j's weight to the candidates after the current one
    later = [sum(w for _, w in adj) for adj in edges]

    best_key: Optional[Tuple[int, int, Tuple[int, ...]]] = None
    best: Tuple[int, ...] = ()

    def consider(chosen: Tuple[int, ...], vol: int, com: int):
        nonlocal best_key, best
        if not chosen or vol <= k or com < vol * alpha:
            return
        key = (len(chosen), vol, chosen)
        if best_key is None or key < best_key:
            best_key, best = key, chosen

    def grow(i: int, chosen: Tuple[int, ...], vol: int, com: int):
        if best_key is not None and len(chosen) >= best_key[0]:
            return
        lifts = [2 * (gain[j] - alpha * size[j]) + later[j]
                 for j in range(i, m)]
        if 2 * (com - alpha * vol) + sum(
                lift for lift in lifts if lift > 0) < 0:
            return
        for j in range(i, m):
            _shift(edges[j], later, -1)
            new = tuple(sorted(chosen + (comps[j],)))
            consider(new, vol + size[j], com + gain[j])
            _shift(edges[j], gain, 1)
            grow(j + 1, new, vol + size[j], com + gain[j])
            _shift(edges[j], gain, -1)
        for j in range(i, m):
            _shift(edges[j], later, 1)

    consider(seed, vol0, com0)
    grow(0, seed, vol0, com0)
    return best


def _peel(cands: Iterable[int], nbrs: Dict[int, Dict[int, int]],
          seed: Sequence[int], need: Callable[[int], int]) -> Set[int]:
    """Drop non-seed candidates while their weight into the rest is below
    need(c) > 0. What remains contains every set of candidates holding the
    seed in which each other member c has w(c, set - c) >= need(c)."""
    alive = {c for c in cands if c in nbrs}
    alive.update(seed)
    if alive.issuperset(nbrs):
        # every neighbour is alive, so whole rows count
        into = {c: sum(nbrs[c].values()) for c in alive if c in nbrs}
    else:
        into = {c: sum([w for d, w in nbrs[c].items() if d in alive])
                for c in alive if c in nbrs}
    doomed = [c for c, w in into.items() if c not in seed and w < need(c)]
    while doomed:
        c = doomed.pop()
        if c not in alive:
            continue
        alive.remove(c)
        for d, w in nbrs[c].items():
            if d in alive:
                into[d] -= w
                if d not in seed and into[d] < need(d):
                    doomed.append(d)
    return alive


def _within(nbrs: Dict[int, Dict[int, int]], seed: Sequence[int], hops: int,
            keep: Callable[[int], bool]) -> Set[int]:
    """The components at most `hops` edges from the seed along paths
    through components that `keep` accepts."""
    reached = set(seed)
    frontier = list(seed)
    for _ in range(hops):
        frontier = [d for c in frontier for d in nbrs.get(c, ())
                    if d not in reached and keep(d)]
        if not frontier:
            break
        reached.update(frontier)
    return reached


# ---------------------------------------------------------------------------
# The online algorithm proper.


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


class ComponentRepartitioner:
    """Merge-and-reset repartitioner; needs delta >= 4.

    Conforms to the engine's step protocol with all moves in the pre slot:
    a request that triggers a merge is then served inside the new cluster.
    """

    def __init__(self, params: Params, initial: Configuration):
        if params.delta < 4:
            raise InsufficientAugmentation(
                "need delta >= 4, got %d" % params.delta)
        if (initial.cluster_count != params.ell
                or initial.cluster_capacity != params.k):
            raise GeometryError("initial placement must be ell clusters of k")
        self.params = params
        self.n, self.k, self.alpha = params.n, params.k, params.alpha
        self.clusters = 2 * params.ell
        self.capacity = 2 * params.k

        # Singleton components; component id of a singleton is its node id,
        # merged components draw fresh ids from next_cid.
        self.comp_of: List[int] = list(range(self.n))
        self.comp_nodes: Dict[int, List[int]] = {v: [v] for v in range(self.n)}
        self.comp_cluster: Dict[int, int] = {
            v: initial.cluster_of(v) for v in range(self.n)}
        self.comp_reserved: Dict[int, int] = {
            v: min(1, self.k - 1) for v in range(self.n)}
        self.next_cid = self.n

        self.weights: Dict[PairKey, int] = {}
        # weights per component, rebuilt after merges and epoch ends
        self.nbrs: Dict[int, Dict[int, int]] = {}
        self.pair_remote: Dict[PairKey, int] = {}
        self.comm_paid: Dict[int, int] = {v: 0 for v in range(self.n)}
        self.move_count: Dict[int, int] = {v: 0 for v in range(self.n)}
        self.violations: List[str] = []    # audit failures at epoch ends

        self.start = new_configuration(
            {v: initial.cluster_of(v) for v in range(self.n)},
            self.clusters, self.capacity)

    # -- ledger -------------------------------------------------------------

    def occupancy(self) -> List[int]:
        occ = [0] * self.clusters
        for cid, nodes in self.comp_nodes.items():
            occ[self.comp_cluster[cid]] += len(nodes)
        return occ

    def reserved_space(self) -> List[int]:
        res = [0] * self.clusters
        for cid, r in self.comp_reserved.items():
            res[self.comp_cluster[cid]] += r
        return res

    def spare(self) -> List[int]:
        occ, res = self.occupancy(), self.reserved_space()
        return [self.capacity - occ[s] - res[s] for s in range(self.clusters)]

    def sizes(self) -> Dict[int, int]:
        return {cid: len(nodes) for cid, nodes in self.comp_nodes.items()}

    def _subgraph(self, comps: Set[int]
                  ) -> Tuple[Dict[int, int], Dict[PairKey, int]]:
        """The sizes of `comps` and the weights among them."""
        return ({c: len(self.comp_nodes[c]) for c in comps},
                {(a, b): w for a in comps
                 for b, w in self.nbrs.get(a, {}).items()
                 if a < b and b in comps})

    # -- step ---------------------------------------------------------------

    def step(self, config: Configuration, req: Request) -> Tuple[List[Move], List[Move]]:
        u, v = req.u, req.v
        cu, cv = self.comp_of[u], self.comp_of[v]
        moves: List[Move] = []
        epoch_fired = False
        if cu != cv:
            key = _pair(cu, cv)
            w = self.weights[key] = self.weights.get(key, 0) + 1
            self.nbrs.setdefault(cu, {})[cv] = w
            self.nbrs.setdefault(cv, {})[cu] = w
            # lemma 1: every merge set holds the seed, lies in its alpha core
            # and within `room` hops of it
            seed = (cu, cv)
            nodes = self.comp_nodes
            room = self.k - len(nodes[cu]) - len(nodes[cv])
            near = set(seed)
            if room > 0:
                ball = _within(self.nbrs, seed, room,
                               lambda c: len(nodes[c]) <= room)
                core = _peel(ball, self.nbrs, seed, lambda c: self.alpha)
                near = _within(self.nbrs, seed, room, core.__contains__)
            merge_set = find_merge_set(
                *self._subgraph(near), self.k, self.alpha, seed=seed)
            if len(merge_set) > 1:
                moves += self._merge(merge_set)
            # lemma 2: each member of the minimum epoch set outside the
            # seeds has weight above alpha*size into the rest of it
            seeds = tuple({self.comp_of[u], self.comp_of[v]})
            dense = _peel(set(self.nbrs), self.nbrs, seeds,
                          lambda c: self.alpha * len(nodes[c]) + 1)
            epoch_set = find_epoch_set(
                *self._subgraph(dense), self.k, self.alpha, seed=seeds)
            if epoch_set:
                moves += self._end_epoch(epoch_set)
                epoch_fired = True
        fu, fv = self.comp_of[u], self.comp_of[v]
        # the serve that closes an epoch is charged to the epoch it closed,
        # so the new epoch's counters stay at zero
        if not epoch_fired and self.comp_cluster[fu] != self.comp_cluster[fv]:
            pk = _pair(fu, fv)
            self.pair_remote[pk] = self.pair_remote.get(pk, 0) + 1
        return moves, []

    # -- merging ------------------------------------------------------------

    def _merge(self, merge_set: Sequence[int]) -> List[Move]:
        members = list(merge_set)
        vol = sum(len(self.comp_nodes[c]) for c in members)
        anchor = max(members, key=lambda c: (
            self.comp_reserved[c], len(self.comp_nodes[c]), -c))
        if self.comp_reserved[anchor] >= vol - len(self.comp_nodes[anchor]):
            target = self.comp_cluster[anchor]
            new_reserved = self.comp_reserved[anchor] - (
                vol - len(self.comp_nodes[anchor]))
        else:
            need = min(self.k, 2 * vol)
            spare = self.spare()
            residents = [0] * self.clusters
            for c in members:
                residents[self.comp_cluster[c]] += len(self.comp_nodes[c])
            eligible = [s for s in range(self.clusters) if spare[s] >= need]
            if not eligible:
                raise NoEligibleCluster(
                    "no cluster with %d spare for a merge of volume %d"
                    % (need, vol))
            target = max(eligible, key=lambda s: (residents[s], -s))
            new_reserved = min(self.k - vol, vol)

        moves = []
        nodes: List[int] = []
        for c in members:
            for node in self.comp_nodes[c]:
                nodes.append(node)
                if self.comp_cluster[c] != target:
                    moves.append((node, target))
                    self.move_count[node] += 1
        nodes.sort()

        cid = self.next_cid
        self.next_cid += 1
        inside = set(members)
        weights, _ = _remap(self.weights, inside, cid)
        self.weights = {key: w for key, w in weights.items() if w > 0}
        self.pair_remote, paid = _remap(self.pair_remote, inside, cid)
        paid += sum(self.comm_paid.pop(c) for c in members)
        self.comm_paid[cid] = paid

        for c in members:
            del self.comp_nodes[c]
            del self.comp_cluster[c]
            del self.comp_reserved[c]
        self.comp_nodes[cid] = nodes
        self.comp_cluster[cid] = target
        self.comp_reserved[cid] = new_reserved
        for node in nodes:
            self.comp_of[node] = cid
        self.nbrs = _adjacency(self.weights, self.comp_nodes)
        return moves

    # -- epoch end ----------------------------------------------------------

    def _end_epoch(self, epoch_set: Sequence[int]) -> List[Move]:
        members = list(epoch_set)
        vol = sum(len(self.comp_nodes[c]) for c in members)
        self._audit_epoch(members, vol)

        inside = set(members)
        new_singletons: List[int] = []
        for c in members:
            cluster = self.comp_cluster[c]
            for node in self.comp_nodes[c]:
                self.comp_of[node] = node
                self.comp_nodes[node] = [node]
                self.comp_cluster[node] = cluster
                self.comp_reserved[node] = min(1, self.k - 1)
                self.comm_paid[node] = 0
                self.move_count[node] = 0
                new_singletons.append(node)
            if c >= self.n:
                del self.comp_nodes[c]
                del self.comp_cluster[c]
                del self.comp_reserved[c]
                del self.comm_paid[c]
        # Splitting reuses node ids as component ids, so node-id keys that
        # survive in the weight maps would alias the new singletons; edges
        # touching the epoch set reset to zero.
        self.weights = {
            key: w for key, w in self.weights.items()
            if key[0] not in inside and key[1] not in inside}
        self.pair_remote = {
            key: w for key, w in self.pair_remote.items()
            if key[0] not in inside and key[1] not in inside}
        self.nbrs = _adjacency(self.weights, self.comp_nodes)

        moves: List[Move] = []
        evicted = 0
        while True:
            occ, res = self.occupancy(), self.reserved_space()
            over = [occ[s] + res[s] - self.capacity for s in range(self.clusters)]
            worst = max(range(self.clusters), key=lambda s: (over[s], -s))
            if over[worst] <= 0:
                break
            singles = sorted(
                cid for cid, nodes in self.comp_nodes.items()
                if len(nodes) == 1 and self.comp_cluster[cid] == worst)
            if not singles:
                raise NoEligibleCluster(
                    "over-committed cluster %d has no singleton to move" % worst)
            mover = singles[0]
            spare = [self.capacity - occ[s] - res[s] for s in range(self.clusters)]
            target = max(range(self.clusters), key=lambda s: (spare[s], -s))
            self.comp_cluster[mover] = target
            moves.append((mover, target))
            evicted += 1
        if 2 * evicted > vol + 2:
            self.violations.append(
                "epoch end moved %d singletons, cap %.1f" % (evicted, vol / 2 + 1))
        return moves

    def _audit_epoch(self, members: Sequence[int], vol: int):
        migrations = sum(self.move_count[node]
                         for c in members for node in self.comp_nodes[c])
        cap = vol * math.ceil(math.log2(self.k)) if self.k > 1 else 0
        if migrations > cap:
            self.violations.append(
                "epoch migrations %d exceed %d" % (migrations, cap))
        paid = sum(self.comm_paid[c] for c in members)
        inside = set(members)
        for (a, b), w in self.pair_remote.items():
            if a in inside and b in inside:
                paid += w
        if paid > 2 * vol * self.alpha:
            self.violations.append(
                "epoch remote serves %d exceed %d" % (paid, 2 * vol * self.alpha))

    # -- inspection ---------------------------------------------------------

    def residual_merge_set(self) -> Tuple[int, ...]:
        """Generic merge search restricted to weight-bearing components.

        Empty means the state is merge-exhausted, as it must be after every
        completed step. By lemma 3 a merge set exists iff a pair qualifies
        or the core holds one, so the common empty answer costs one pass
        over the weights and a search of the core; otherwise the search
        runs over every component with positive weight (isolated ones only
        raise the cardinality requirement).
        """
        # from the weights, not from self.nbrs: the check trusts no derived state
        sizes = {c: len(nodes) for c, nodes in self.comp_nodes.items()}
        k, alpha = self.k, self.alpha
        small: Dict[int, Dict[int, int]] = {}   # weights among sizes <= k-2
        pair = False
        for (a, b), w in self.weights.items():
            if w <= 0 or a >= b or a not in sizes or b not in sizes:
                continue
            if w >= alpha and sizes[a] + sizes[b] <= k:
                pair = True
                break
            if sizes[a] <= k - 2 and sizes[b] <= k - 2:
                small.setdefault(a, {})[b] = w
                small.setdefault(b, {})[a] = w
        if not pair:
            core = _peel(small.keys(), small, (), lambda c: alpha + 1)
            if not core or not find_merge_set(
                    {c: sizes[c] for c in core}, self.weights, k, alpha):
                return ()
        live = _adjacency(self.weights, sizes)
        return find_merge_set({c: sizes[c] for c in live},
                              self.weights, k, alpha)

    def check_invariants(self, config: Optional[Configuration] = None) -> List[str]:
        errs = list(self.violations)
        k, alpha, comp_of, moved = self.k, self.alpha, self.comp_of, self.move_count
        sizes: Dict[int, int] = {}
        occ, res = [0] * self.clusters, [0] * self.clusters
        seen: Set[int] = set()
        move_errs: List[str] = []    # reported after the weights and payments
        for cid, nodes in self.comp_nodes.items():
            size = sizes[cid] = len(nodes)
            cluster = self.comp_cluster[cid]
            occ[cluster] += size
            seen.update(nodes)
            log = (size - 1).bit_length()       # ceil(log2(size)) for size >= 1
            per_node_cap = max(1, log)
            total = 0
            for node in nodes:
                if comp_of[node] != cid:
                    errs.append("node %d not mapped to component %d" % (node, cid))
                total += moved[node]
                if moved[node] > per_node_cap:
                    move_errs.append("node %d moved %d times in component of %d"
                                     % (node, moved[node], size))
            if total > size * log:
                move_errs.append("component %d total moves %d exceed %d"
                                 % (cid, total, size * log))
        if seen != set(range(self.n)):
            errs.append("components do not partition the node set")
        for cid, r in self.comp_reserved.items():
            res[self.comp_cluster[cid]] += r
        if sum(occ) != self.n:
            errs.append("occupancy sums to %d, not %d" % (sum(occ), self.n))
        for s in range(self.clusters):
            if occ[s] + res[s] > self.capacity:
                errs.append("cluster %d over capacity: o=%d r=%d"
                            % (s, occ[s], res[s]))
        if max(self.capacity - occ[s] - res[s]
               for s in range(self.clusters)) < k:
            errs.append("no cluster keeps k spare slots")
        for cid, r in self.comp_reserved.items():
            if not 0 <= r <= max(k - 1, 0) or r > sizes[cid]:
                errs.append("component %d reserved %d out of range" % (cid, r))
        for (a, b), w in self.weights.items():
            if a not in sizes or b not in sizes:
                errs.append("weight %r keyed to a dead component" % ((a, b),))
                continue
            if w <= 0:
                errs.append("weight %r not positive" % ((a, b),))
            vol = sizes[a] + sizes[b]
            bound = alpha if vol <= k else vol * alpha
            if w >= bound:
                errs.append("edge %r weight %d breaches %d" % ((a, b), w, bound))
        for cid, paid in self.comm_paid.items():
            if paid > (sizes[cid] - 1) * alpha:
                errs.append("component %d paid %d remote serves, cap %d"
                            % (cid, paid, (sizes[cid] - 1) * alpha))
        errs += move_errs
        if config is not None:
            placed, where = config.assignment, self.comp_cluster
            errs.extend("node %d placement disagrees with engine" % node
                        for node in range(self.n)
                        if placed[node] != where[comp_of[node]])
        return errs

    def dump_state(self) -> str:
        lines = []
        for cid in sorted(self.comp_nodes):
            lines.append("component %d: nodes=%s cluster=%d reserved=%d paid=%d"
                         % (cid,
                            ",".join(str(x) for x in self.comp_nodes[cid]),
                            self.comp_cluster[cid], self.comp_reserved[cid],
                            self.comm_paid[cid]))
        for (a, b) in sorted(self.weights):
            lines.append("weight %d-%d: %d" % (a, b, self.weights[(a, b)]))
        occ, res = self.occupancy(), self.reserved_space()
        for s in range(self.clusters):
            lines.append("cluster %d: o=%d r=%d f=%d"
                         % (s, occ[s], res[s], self.capacity - occ[s] - res[s]))
        return "\n".join(lines)
