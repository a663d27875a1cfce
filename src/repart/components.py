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
merge-exhausted when no merge set exists. deg(c) is the total weight of
component c, and c is hot when deg(c) > alpha*size(c). Weights are positive
integers and sizes at least 1, so the searches can be narrowed, or
skipped, by five lemmas, and the epoch search made one min cut by a sixth:

1. Merge core (precondition: merge-exhausted before the step's weight
   increment on the pair S of touched components). Every merge set X now
   contains S. Each c in X outside S has w(c, X-c) >= alpha, as otherwise
   com(X-c) >= (|X-c|-1)*alpha + 1 and X-c qualified before the step; so
   deg(c) >= alpha. X is connected: were it split into A (holding S, which
   is an edge) and B with no weight between them, then com(B) <=
   (|B|-1)*alpha, since B does not hold S, so com(A) >= |A|*alpha and A
   qualified before the step. At most room = k - vol(S) members lie
   outside S, so every member lies within room hops of S along members,
   and c has at most room+1 mates in X (the two of S and at most room-1
   others), so its room+1 heaviest weights sum to at least alpha. X is
   tight, com(X) = (|X|-1)*alpha: before the increment X had |X| >= 2 and
   vol(X) <= k but did not qualify, so com(X) <= (|X|-1)*alpha - 1, as
   weights are integers, and the increment added 1 to com(X), as X holds S.
2. Epoch core (precondition: merge-exhausted, which holds when the step's
   walk found no merge set, as by lemma 1 each one would hold the pair S).
   A nonempty set with com >= vol*alpha then has vol > k: a singleton has
   com 0, and a larger set of vol <= k would be a merge set. So each c
   outside the seed of a minimum-cardinality Y has w(c, Y-c) >
   alpha*size(c), or else Y-c, which holds the seed, would be a smaller
   epoch set; so c is hot. If moreover no epoch set avoids the seed, Y is
   connected. Cold seeds: if no epoch set was left after the previous step,
   each one now holds a seed, and each seed s of Y is hot. The step changed
   nothing inside Y-s, which is nonempty, so were w(s, Y-s) <=
   alpha*size(s), Y-s would have com >= vol*alpha, so vol > k, and have
   been an epoch set before the step.
3. Residual core (no precondition). Take a merge set X of minimum
   cardinality. If |X| = 2, X is a pair with w >= alpha and vol <= k. If
   |X| >= 3, each X-c has at least two members and vol <= k but does not
   qualify, so com(X-c) <= (|X|-2)*alpha - 1 and w(c, X-c) = com(X) -
   com(X-c) >= alpha+1; and size(c) <= k-2, as the other members take at
   least two slots. Each mate of c takes one of the k - size(c) slots c
   leaves, so the sum of c's k - size(c) heaviest weights is at least
   w(c, X-c) >= alpha+1 (bounded fan-in). So a merge set exists iff a pair
   qualifies or the core holds one: what remains after peeling components
   of size above k-2, or whose k - size(c) heaviest weights into the rest
   sum to at most alpha.
4. Connected minimum (no precondition). A merge set X of minimum
   cardinality is connected along its members. Were it split into A and B
   with no weight between them, com(X) = com(A) + com(B) >= (|A|+|B|-1) *
   alpha. If |A| = 1, com(A) = 0, so com(B) >= |B|*alpha > 0, B holds an
   edge and |B| >= 2; likewise if |B| = 1. Otherwise, were com(A) <
   (|A|-1)*alpha and com(B) < (|B|-1)*alpha, com(X) would fall below
   (|X|-2)*alpha. Either way one part of at least two members reaches
   (|part|-1)*alpha with vol <= vol(X) <= k: a smaller merge set.
5. No epoch set after a merge (precondition: merge-exhausted and no epoch
   set before a step that merges X into M). A set without M kept its
   weights. For Y with M, Y' = Y - M + X has vol(Y') = vol(Y) and com(Y') =
   com(Y) + com(X), where com(X) >= (|X|-1)*alpha >= alpha. Before the
   increment, which added 1 to com(Y'), com(Y') <= alpha*vol(Y') - 1, as Y'
   was no epoch set or, at vol(Y') <= k, no merge set of |Y'| >= 2 members.
   So com(Y) <= alpha*vol(Y) - alpha.
6. Epoch cut (precondition: no merge set and no epoch set before the step,
   and no merge set after it). Say f(Y) = com(Y) - alpha*vol(Y). Before the
   step f(Y) <= -1 for every nonempty Y: a singleton has com 0, and a
   larger set was no epoch set or, at vol <= k, no merge set. The step
   added 1 to f of the sets that hold S only, so f(Y) <= 0 for Y holding S,
   and by lemma 2 the epoch sets are the sets holding S with f(Y) = 0. com
   is supermodular and vol modular, so f(A&B) + f(A|B) >= f(A) + f(B): the
   sets holding S with f = 0 are closed under intersection, and their
   intersection is the least epoch set, the one of least cardinality that
   find_epoch_set returns. Within any D that holds it, -2f(Y) is the sum
   over c in Y of b(c) = 2*alpha*size(c) - w(c, D), plus the weight from Y
   to D-Y: a modular term plus a cut function, whose minimum over the Y
   with S <= Y <= D is one s-t min cut with S contracted into s (Picard &
   Queyranne 1982, "Selected applications of minimum cuts in networks").
   An epoch set exists iff the minimum is 0, and the least minimiser is
   what s reaches in the residual graph of a maximum flow.

In each case every answer lies in what survives peeling (peeling removes c
only when its weight into a superset of the answer is already too low), so
the public searches, run on the survivors, return exactly what they return
on all components. A peel has one fixpoint, so starting it from any superset
of its survivors, such as the hot components and the seeds, leaves the same
set. `step` relies on lemmas 1, 2, 5 and 6 and so on the invariants that
`residual_merge_set` and `residual_epoch_set` check after every step. The
merge check relies on lemmas 3 and 4 only. With no qualifying pair, a merge
set of minimum cardinality lies in the core (lemma 3) and is connected
(lemma 4), so the check asks only whether the core's connected sets hold a
merge set. It returns the first witness it meets, a qualifying pair or a
set a core walk found, not the largest merge set, so no search beyond that
walk ever runs. The epoch check is one seedless cut over the hot core,
with scaled weights and no premise (see its docstring).

One walk, ESU (Wernicke 2006, "Efficient detection of network motifs"),
serves both: it visits the connected sets that hold a seed, taking their
other members from a candidate set. A set grows only from its extension
list, which for the seed holds the seed's neighbours. Taking the entry c
hands c's branch the entries after c plus c's exclusive neighbours, those
neither in the set nor next to it; so each connected set holding the seed
is visited once, and an entry passed over is not offered again below its
later siblings. Only components that fit the room left are taken. By lemma
1, `step` seeds the walk with the pair S and takes the warm components,
those with deg >= alpha. At room <= 2, which covers every step at k <= 4,
it visits S, each S+c, and for each c the sets S+c+d with d a later entry
of S's list or a neighbour of c, so O(|N(S)| * max deg) sets, as |N(S)| <=
2 * max deg. From room 3 up it takes only the warm core within room hops
of S, peeled to a fan-in of room+1. By lemma 4, the residual check seeds
the walk with each core component in turn and takes the core components
of larger id, so each connected set of vol <= k is visited once, from its
smallest id. Of the merge sets it meets, the walk keeps the largest |X|,
then the largest com(X), then the smallest sorted ids. There, and in the
step from room 3 up, a branch X of two or more members is cut by a density
bound. Adding candidates T, at most `left` = k - vol(X) of them, lifts
2*(com - (|X|-1)*alpha) by the sum over c in T of 2*(w(c, X) - alpha) +
w(c, T - c), where w(c, T - c) is at most the sum of c's left-1 heaviest
weights; the branch goes when even the `left` largest positive lifts leave
the sum below 0.
"""

from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from .core import Configuration, GeometryError, Params, RepartError, Request

Move = Tuple[int, int]
PairKey = Tuple[int, int]


class InsufficientAugmentation(RepartError):
    """The algorithm needs at least 4x capacity augmentation."""


class NoEligibleCluster(RepartError):
    """No cluster can host a merged component.

    Unreachable when the invariants hold (some cluster always keeps k spare
    slots); raised loudly instead of silently corrupting the placement.
    """


def _pair(a: int, b: int) -> PairKey:
    return (a, b) if a < b else (b, a)


# ---------------------------------------------------------------------------
# Subset searches over a weighted component graph, and the epoch cut.
#
# The step calls neither exhaustive search: it walks its merge sets with
# _connected_merge_set and decides its epoch ends by one min cut,
# _epoch_cut (lemma 6). find_merge_set and find_epoch_set stay as the
# exact references that criterion 6 and the tests check those against.
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


def _heaviest(weights: Iterable[int], r: int) -> List[int]:
    """Entry j < r is the sum of the j heaviest of `weights`."""
    sums = [0]
    for w in sorted(weights, reverse=True)[:r - 1]:
        sums.append(sums[-1] + w)
    return sums + [sums[-1]] * (r - len(sums))


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
    heaviest = [_heaviest([w for _, w in adj], k) for adj in edges]

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
          seed: Sequence[int], need: Callable[[int], int],
          fan: Optional[Callable[[int], int]] = None) -> Set[int]:
    """Drop non-seed candidates while their weight into the rest, or given
    `fan` their fan(c) heaviest weights into it, sum below need(c) > 0.
    What remains holds every set of candidates with the seed in which each
    other member c has w(c, set - c) >= need(c) and, given `fan`, at most
    fan(c) mates. Both tests only get stricter as candidates go, so the
    order of drops does not change what remains. One worklist runs both:
    it starts with every candidate given `fan`, else with those below need,
    and a drop queues each live neighbour again given `fan`, else those it
    takes below need."""
    alive = set(seed)
    needs: Dict[int, int] = {}
    for c in cands:
        if c in nbrs and c not in alive:
            needs[c] = need(c)
    alive.update(needs)
    into: Dict[int, int] = {}
    queue: List[int] = []
    for c, b in needs.items():
        total = 0
        for d, w in nbrs[c].items():
            if d in alive:
                total += w
        into[c] = total
        if fan is not None or total < b:
            queue.append(c)
    while queue:
        c = queue.pop()
        if c not in alive:
            continue
        # without fan a queued candidate stays below need, as into only falls
        if fan is not None and into[c] >= needs[c]:
            row, top = nbrs[c], fan(c)
            if len(row) <= top:
                continue
            heavy = [w for d, w in row.items() if d in alive]
            # with at most fan(c) weights left they are into[c], which passed
            if len(heavy) <= top:
                continue
            heavy.sort(reverse=True)
            if sum(heavy[:top]) >= needs[c]:
                continue
        alive.remove(c)
        for d, w in nbrs[c].items():
            if d in needs and d in alive:
                into[d] -= w
                if fan is not None or into[d] < needs[d]:
                    queue.append(d)
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


def _offer(best: Tuple[int, int, Tuple[int, ...]], card: int, com: int,
           members: Tuple[int, ...]) -> Tuple[int, int, Tuple[int, ...]]:
    """Of `best` and the set `members`, as (card, com, sorted ids), the
    preferred merge set: the larger card, then the larger com, then the
    smaller sorted ids."""
    if (card, com) < best[:2]:
        return best
    ids = tuple(sorted(members))
    if (card, com) > best[:2] or ids < best[2]:
        return card, com, ids
    return best


def _connected_merge_set(nbrs: Dict[int, Dict[int, int]],
                         nodes: Dict[int, List[int]], seed: Tuple[int, ...],
                         k: int, alpha: int, take: Set[int],
                         heaviest: Optional[Dict[int, List[int]]] = None
                         ) -> Tuple[Tuple[int, ...], int]:
    """The preferred merge set (largest |X|, then largest com(X), then
    smallest sorted ids) among the sets that hold `seed`, one component or
    a sorted pair, and whose members all reach it along members, and how
    many sets it visited. The other members are taken from `take`, which
    the walk does not change.

    The walk is ESU rooted at the seed (see the module docstring); each
    extension list entry carries its size and its weight into the set, so
    com follows by addition. `heaviest` maps each candidate to the prefix
    sums of its heaviest weights to the others; given it, a branch of two
    or more members is cut by the module docstring's density bound over
    what the branch can still take: its extension list, whose lifts count
    their weight into the set, and the candidates not yet next to the set,
    whose lifts count none.
    """
    a, b = seed[0], seed[-1]            # b is a when the seed is one component
    ra, rb = nbrs.get(a, {}), (nbrs.get(b, {}) if b != a else {})
    room = k - len(nodes[a]) - (len(nodes[b]) if b != a else 0)
    com0 = ra.get(b, 0)
    best = (2, com0, seed) if room >= 0 and com0 >= alpha else (0, 0, ())
    if room <= 0:
        return best[2], 1
    blocked = {a, b}.union(ra, rb)      # the set and its neighbours
    visits = 1

    # (nested functions go unannotated: annotations are evaluated per call)
    def grow(chosen, ext, left, com):
        nonlocal best, visits
        card = len(chosen)
        if heaviest is not None and card > 1:
            lifts = [2 * (g - alpha) + heaviest[d][left - 1]
                     for d, _, g in ext]
            lifts += [heaviest[d][left - 1] - 2 * alpha for d in take
                      if d not in blocked and len(nodes[d]) <= left]
            lifts.sort()
            if 2 * (com - (card - 1) * alpha) + sum(
                    lift for lift in lifts[-left:] if lift > 0) < 0:
                return
        visits += len(ext)
        need = card * alpha
        for i, (c, s, g) in enumerate(ext):
            new_com = com + g
            if new_com >= need:
                best = _offer(best, card + 1, new_com, chosen + (c,))
            rest = left - s
            if rest <= 0:
                continue
            row = nbrs[c]
            if rest == 1:
                # each entry left has size 1 and fills the set: visit it here
                short = need + alpha - new_com
                for d, t, h in ext[i + 1:]:
                    if t == 1:
                        visits += 1
                        h += row.get(d, 0)
                        if h >= short:
                            best = _offer(best, card + 2, new_com + h,
                                          chosen + (c, d))
                for d, h in row.items():
                    if d not in blocked and d in take and len(nodes[d]) == 1:
                        visits += 1
                        if h >= short:
                            best = _offer(best, card + 2, new_com + h,
                                          chosen + (c, d))
                continue
            if card + 1 + rest < best[0]:
                continue
            fresh = row.keys() - blocked
            sub = [(d, t, h + row.get(d, 0)) for d, t, h in ext[i + 1:]
                   if t <= rest]
            sub += [(d, t, row[d]) for d in fresh
                    if d in take and (t := len(nodes[d])) <= rest]
            blocked.update(fresh)
            grow(chosen + (c,), sub, rest, new_com)
            blocked.difference_update(fresh)

    grow(seed, [(d, t, ra.get(d, 0) + rb.get(d, 0)) for d in blocked
                if d != a and d != b and d in take
                and (t := len(nodes[d])) <= room],
         room, com0)
    return best[2], visits


def _epoch_cut(nbrs: Dict[int, Dict[int, int]], nodes: Dict[int, List[int]],
               dense: Set[int], seed: Sequence[int], alpha: int
               ) -> Tuple[int, ...]:
    """The least Y with seed <= Y <= dense that minimises
    2*(alpha*vol(Y) - com(Y)), sorted, if that minimum is at most 0, else ().
    With no seed the empty set's 0 bounds the minimum, so the least
    minimiser comes back, and it is empty exactly when the minimum is 0.

    One min cut (lemma 6): the seeds contract into the source 0; a non-seed
    c with b(c) = 2*alpha*size(c) - w(c, dense) > 0 has an arc of capacity
    b(c) to the sink 1, one with b(c) < 0 an arc of capacity -b(c) from 0
    and its b(c) in the constant; each pair's weight is an arc both ways.
    The minimum is the constant plus a maximum flow, which Dinic's blocking
    flows with current-arc pointers find; they stop early once the sum
    passes 0. The least minimiser is what 0 still reaches, as the last
    breadth-first search marks."""
    at = dict.fromkeys(seed, 0)
    at.update((c, j) for j, c in enumerate(sorted(dense - at.keys()), 2))
    head: List[List[int]] = [[] for _ in range(len(dense) - len(seed) + 2)]
    to: List[int] = []
    cap: List[int] = []

    def arc(u, v, c, back=0):
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to.extend((v, u))
        cap.extend((c, back))

    low = 0                             # the constant, plus the flow so far
    for c in dense:
        j, b = at[c], 2 * alpha * len(nodes[c])
        for d, w in nbrs[c].items():
            if d in dense:
                b -= w
                if c < d and at[d] != j:    # an arc into 0 is never cut
                    arc(j, at[d], w, w)
        if j == 0 or b < 0:
            low += b
        if j and b > 0:
            arc(j, 1, b)
        elif j and b < 0:
            arc(0, j, -b)
    while low <= 0:
        level = [-1] * len(head)
        level[0] = 0
        queue = [0]
        for u in queue:
            for e in head[u]:
                if cap[e] and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[1] < 0:
            break
        ptr, path, u = [0] * len(head), [], 0
        while True:
            if u == 1:                  # augment, then start again from 0
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                low += push
                path, u = [], 0
            arcs, i = head[u], ptr[u]
            while i < len(arcs) and not (cap[arcs[i]] and
                                         level[to[arcs[i]]] == level[u] + 1):
                i += 1
            ptr[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:                  # a dead end: retreat past its arc
                u = to[path.pop() ^ 1]
                ptr[u] += 1
            else:
                break
    if low > 0:
        return ()
    return tuple(sorted(c for c in dense if level[at[c]] >= 0))


# ---------------------------------------------------------------------------
# The online algorithm proper.


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
        # weights and total weight per component, the warm components
        # (deg >= alpha) and the hot ones: kept on each increment, and by
        # _detach on merges and epoch ends
        self.nbrs: Dict[int, Dict[int, int]] = {}
        self.deg: Dict[int, int] = {}
        self.warm: Set[int] = set()
        self.hot: Set[int] = set()
        self.pair_remote: Dict[PairKey, int] = {}
        self.comm_paid: Dict[int, int] = {v: 0 for v in range(self.n)}
        self.move_count: Dict[int, int] = {v: 0 for v in range(self.n)}
        self.violations: List[str] = []    # audit failures at epoch ends

        self.start = Configuration(initial.assignment, self.clusters,
                                   self.capacity)

    # -- ledger -------------------------------------------------------------

    def occupancy(self) -> List[int]:
        occ = [0] * self.clusters
        for cid, nodes in self.comp_nodes.items():
            occ[self.comp_cluster[cid]] += len(nodes)
        return occ

    def reserved_space(self) -> List[int]:
        res = [0] * self.clusters
        where = self.comp_cluster
        for cid, r in self.comp_reserved.items():
            if cid in where:    # a dead key is reported by check_invariants
                res[where[cid]] += r
        return res

    def spare(self) -> List[int]:
        occ, res = self.occupancy(), self.reserved_space()
        return [self.capacity - occ[s] - res[s] for s in range(self.clusters)]

    def _detach(self, members: Sequence[int], cid: Optional[int] = None
                ) -> int:
        """Take the members' weights and remote counts out of the tables and
        return the remote counts among the members. Given `cid`, they merge
        into it: a pair to an outside d moves onto (d, cid), in order as cid
        is the largest id, and deg[d] stays. Otherwise their epoch ends: d
        loses that weight, its marks are re-tested, and an emptied row goes.
        Only the rows of the members and their neighbours are touched."""
        weights, remote, nbrs, deg = (self.weights, self.pair_remote,
                                      self.nbrs, self.deg)
        alpha, inside, inner = self.alpha, set(members), 0
        row: Dict[int, int] = {}            # cid's row
        for c in members:
            deg.pop(c, None)
            self.warm.discard(c)
            self.hot.discard(c)
            for d, w in nbrs.pop(c, {}).items():
                key = _pair(c, d)
                weights.pop(key, None)      # an inner pair is met twice
                r = remote.pop(key, 0)
                if d in inside:
                    inner += r
                    continue
                mates = nbrs[d]
                del mates[c]
                if cid is not None:
                    total = row[d] = row.get(d, 0) + w
                    weights[d, cid] = mates[cid] = total
                    if r:
                        remote[d, cid] = remote.get((d, cid), 0) + r
                    continue
                deg[d] -= w
                if deg[d] < alpha:
                    self.warm.discard(d)
                if deg[d] <= alpha * len(self.comp_nodes[d]):
                    self.hot.discard(d)
                if not mates:
                    del nbrs[d], deg[d]
        if row:
            nbrs[cid] = row
            total = deg[cid] = sum(row.values())
            if total >= alpha:
                self.warm.add(cid)
                if total > alpha * len(self.comp_nodes[cid]):
                    self.hot.add(cid)
        return inner

    # -- step ---------------------------------------------------------------

    def step(self, config: Configuration, req: Request) -> Tuple[List[Move], List[Move]]:
        cu, cv = self.comp_of[req.u], self.comp_of[req.v]
        if cu == cv:
            return [], []
        key = _pair(cu, cv)
        w = self.weights[key] = self.weights.get(key, 0) + 1
        self.nbrs.setdefault(cu, {})[cv] = w
        self.nbrs.setdefault(cv, {})[cu] = w
        nodes, alpha, deg, warm, hot = (self.comp_nodes, self.alpha, self.deg,
                                        self.warm, self.hot)
        for c in key:
            deg[c] = deg.get(c, 0) + 1
            if deg[c] >= alpha:
                warm.add(c)
                if deg[c] > alpha * len(nodes[c]):
                    hot.add(c)
        # lemma 1: every merge set is a connected superset of the seed whose
        # other members are warm; from room 3 up, the walk keeps to their
        # core within `room` hops of the seed and cuts by density
        room = self.k - len(nodes[cu]) - len(nodes[cv])
        take, heaviest = warm, None
        if room > 2:
            near = _within(self.nbrs, key, room, lambda c: (
                c in warm and len(nodes[c]) <= room))
            if len(near) > 2:
                near = _peel(near, self.nbrs, key, lambda c: alpha,
                             lambda c: room + 1)
            near.difference_update(key)
            heaviest = {c: _heaviest([x for d, x in self.nbrs[c].items()
                                      if d in near], room)
                        for c in near}
            take = near
        merge_set, _ = _connected_merge_set(
            self.nbrs, nodes, key, self.k, alpha, take, heaviest)
        if merge_set:                   # lemma 5: no epoch set is left
            return self._merge(merge_set), []
        # lemma 2: an epoch set's seeds are hot, and the least one lies in
        # the dense core of S and the hot components; lemma 6: one cut there
        # finds it
        if cu in hot and cv in hot:
            dense = _peel(hot, self.nbrs, key,
                          lambda c: alpha * len(nodes[c]) + 1)
            epoch_set = _epoch_cut(self.nbrs, nodes, dense, key, alpha)
            if epoch_set:
                # the serve that closes an epoch is charged to the epoch it
                # closed, so the new epoch's counters stay at zero
                return self._end_epoch(epoch_set), []
        if self.comp_cluster[cu] != self.comp_cluster[cv]:
            self.pair_remote[key] = self.pair_remote.get(key, 0) + 1
        return [], []

    # -- merging ------------------------------------------------------------

    def _merge(self, members: Sequence[int]) -> List[Move]:
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
        for c in members:
            del self.comp_nodes[c]
            del self.comp_cluster[c]
            del self.comp_reserved[c]
        self.comp_nodes[cid] = nodes
        self.comp_cluster[cid] = target
        self.comp_reserved[cid] = new_reserved
        for node in nodes:
            self.comp_of[node] = cid
        self.comm_paid[cid] = self._detach(members, cid) + sum(
            self.comm_paid.pop(c) for c in members)
        return moves

    # -- epoch end ----------------------------------------------------------

    def _end_epoch(self, members: Sequence[int]) -> List[Move]:
        """Split the members into singletons, evict until no cluster is
        over-committed, and audit the epoch against its three caps."""
        vol = sum(len(self.comp_nodes[c]) for c in members)
        # Splitting reuses node ids as component ids, so node-id keys left
        # in the weight tables would alias the new singletons; edges
        # touching the epoch set reset to zero.
        paid = self._detach(members) + sum(self.comm_paid[c] for c in members)
        migrations = sum(self.move_count[node]
                         for c in members for node in self.comp_nodes[c])
        for c in members:
            cluster = self.comp_cluster[c]
            for node in self.comp_nodes[c]:
                self.comp_of[node] = node
                self.comp_nodes[node] = [node]
                self.comp_cluster[node] = cluster
                self.comp_reserved[node] = min(1, self.k - 1)
                self.comm_paid[node] = 0
                self.move_count[node] = 0
            if c >= self.n:
                del self.comp_nodes[c]
                del self.comp_cluster[c]
                del self.comp_reserved[c]
                del self.comm_paid[c]

        # min and max take the lowest cluster id among ties
        moves: List[Move] = []
        while True:
            free = self.spare()
            worst = min(range(self.clusters), key=free.__getitem__)
            if free[worst] >= 0:
                break
            singles = [cid for cid, nodes in self.comp_nodes.items()
                       if len(nodes) == 1 and self.comp_cluster[cid] == worst]
            if not singles:
                raise NoEligibleCluster(
                    "over-committed cluster %d has no singleton to move" % worst)
            mover = min(singles)
            target = max(range(self.clusters), key=free.__getitem__)
            self.comp_cluster[mover] = target
            moves.append((mover, target))

        cap = vol * (self.k - 1).bit_length()   # ceil(log2 k) for k >= 1
        if migrations > cap:
            self.violations.append(
                "epoch migrations %d exceed %d" % (migrations, cap))
        if paid > 2 * vol * self.alpha:
            self.violations.append(
                "epoch remote serves %d exceed %d" % (paid, 2 * vol * self.alpha))
        if 2 * len(moves) > vol + 2:
            self.violations.append(
                "epoch end moved %d singletons, cap %.1f" % (len(moves), vol / 2 + 1))
        return moves

    # -- inspection ---------------------------------------------------------

    def residual_merge_set(self) -> Tuple[int, ...]:
        """A merge set of the current state, or () when none exists.

        Empty means the state is merge-exhausted, as it must be after every
        completed step. By lemma 3 a merge set exists iff a pair qualifies
        or the core holds one, and by lemma 4 the core holds one iff one of
        its connected sets is one, so the answer costs one pass over the
        weights and a walk of the core. The witness is the first qualifying
        pair of that pass, or else the first set a core walk finds.
        """
        # from the weights, not from self.nbrs: the check trusts no derived state
        sizes = {c: len(nodes) for c, nodes in self.comp_nodes.items()}
        k, alpha = self.k, self.alpha
        small: Dict[int, Dict[int, int]] = {}   # weights among sizes <= k-2
        for (a, b), w in self.weights.items():
            if w <= 0 or a >= b or a not in sizes or b not in sizes:
                continue
            if w >= alpha and sizes[a] + sizes[b] <= k:
                return a, b
            if sizes[a] <= k - 2 and sizes[b] <= k - 2:
                small.setdefault(a, {})[b] = w
                small.setdefault(b, {})[a] = w
        # only components with more than alpha weight survive the peel
        heavy = [c for c, row in small.items() if sum(row.values()) > alpha]
        core = _peel(heavy, small, (), lambda c: alpha + 1,
                     lambda c: k - sizes[c]) if len(heavy) > 2 else ()
        if len(core) < 3:
            return ()
        # lemma 4: a merge set of minimum cardinality is connected, so the
        # walk rooted at its smallest id, taking larger ids, finds one
        heaviest = {c: _heaviest([w for d, w in small[c].items()
                                  if d in core], k - 1) for c in core}
        for root in sorted(core):
            core.discard(root)
            found = _connected_merge_set(small, self.comp_nodes, (root,), k,
                                         alpha, core, heaviest)[0]
            if found:
                return found
        return ()

    def residual_epoch_set(self) -> Tuple[int, ...]:
        """A nonempty component set with com >= alpha*vol, or () when none
        exists, as after every completed step.

        Such a set is an epoch set, or at vol <= k a merge set. One Y of
        least cardinality has |Y| >= 2, and each c in Y has w(c, Y-c) >
        alpha*size(c), as the nonempty Y-c has com < alpha*vol; so Y lies in
        the hot core. With each weight scaled by s = 1 + the total volume,
        one seedless cut there decides (Goldberg 1984, "Finding a maximum
        density subgraph"): terms are integers and vol(Y) < s, so a nonempty
        Y has s*com(Y) - (alpha*s - 1)*vol(Y) > 0 exactly when com(Y) >=
        alpha*vol(Y), and the empty set has 0. The least minimiser is then
        such a set, or () when none exists; no premise of lemma 6 is needed.
        """
        # from the weights, not from self.nbrs: the check trusts no derived state
        nodes, alpha = self.comp_nodes, self.alpha
        s = 1 + sum(len(members) for members in nodes.values())
        nbrs: Dict[int, Dict[int, int]] = {}
        for (a, b), w in self.weights.items():
            if w > 0 and a < b and a in nodes and b in nodes:
                nbrs.setdefault(a, {})[b] = s * w
                nbrs.setdefault(b, {})[a] = s * w
        # the peel leaves only hot components
        core = _peel(nbrs, nbrs, (), lambda c: alpha * s * len(nodes[c]) + 1)
        return _epoch_cut(nbrs, nodes, core, (), alpha * s - 1)

    def check_invariants(self, config: Optional[Configuration] = None) -> List[str]:
        errs = list(self.violations)
        k, alpha, comp_of, moved = self.k, self.alpha, self.comp_of, self.move_count
        where = self.comp_cluster
        sizes: Dict[int, int] = {}
        occ, res = [0] * self.clusters, [0] * self.clusters
        seen: Set[int] = set()
        move_errs: List[str] = []    # reported after the weights and payments
        for cid, nodes in self.comp_nodes.items():
            size = sizes[cid] = len(nodes)
            occ[where[cid]] += size
            seen.update(nodes)
            log = (size - 1).bit_length()       # ceil(log2(size)) for size >= 1
            per_node_cap = log or 1
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
        top = max(k - 1, 0)
        reserve_errs: List[str] = []    # reported after the capacity checks
        for cid, r in self.comp_reserved.items():
            if cid in where:
                res[where[cid]] += r
            size = sizes.get(cid)
            if not 0 <= r <= top or (size is not None and r > size):
                reserve_errs.append("component %d reserved %d out of range"
                                    % (cid, r))
            elif size is None:
                reserve_errs.append("reservation keyed to dead component %d"
                                    % cid)
        if not sizes.keys() <= self.comp_reserved.keys():
            reserve_errs.extend("component %d has no reservation" % cid for cid
                                in sizes if cid not in self.comp_reserved)
        if not sizes.keys() <= self.comm_paid.keys():
            reserve_errs.extend("component %d has no payment record" % cid
                                for cid in sizes if cid not in self.comm_paid)
        if sum(occ) != self.n:
            errs.append("occupancy sums to %d, not %d" % (sum(occ), self.n))
        spare = False
        for s, (o, r) in enumerate(zip(occ, res)):
            free = self.capacity - o - r
            if free < 0:
                errs.append("cluster %d over capacity: o=%d r=%d" % (s, o, r))
            spare = spare or free >= k
        if not spare:
            errs.append("no cluster keeps k spare slots")
        errs += reserve_errs
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
        # merges and epoch ends find a remote count through its pair's weight
        if not self.pair_remote.keys() <= self.weights.keys():
            errs.extend("remote count %r has no weight" % (key,) for key
                        in self.pair_remote if key not in self.weights)
        for cid, paid in self.comm_paid.items():
            if cid not in sizes:
                errs.append("payment keyed to dead component %d" % cid)
            elif paid > (sizes[cid] - 1) * alpha:
                errs.append("component %d paid %d remote serves, cap %d"
                            % (cid, paid, (sizes[cid] - 1) * alpha))
        errs += move_errs
        if config is not None:
            placed = config.assignment
            # from a list, as tuple(map(...)) grows by resizing, and each
            # resized tuple lingers in CPython's free list once dropped
            want = tuple([where[c] for c in comp_of])
            if placed != want:
                errs.extend("node %d placement disagrees with engine" % node
                            for node in range(self.n)
                            if placed[node] != want[node])
        return errs

    def dump_state(self) -> str:
        lines = []
        for cid in sorted(self.comp_nodes):
            lines.append("component %d: nodes=%s cluster=%d reserved=%s paid=%s"
                         % (cid,
                            ",".join(str(x) for x in self.comp_nodes[cid]),
                            self.comp_cluster[cid],
                            self.comp_reserved.get(cid, "none"),
                            self.comm_paid.get(cid, "none")))
        for (a, b) in sorted(self.weights):
            lines.append("weight %d-%d: %d" % (a, b, self.weights[(a, b)]))
        occ, res = self.occupancy(), self.reserved_space()
        for s in range(self.clusters):
            lines.append("cluster %d: o=%d r=%d f=%d"
                         % (s, occ[s], res[s], self.capacity - occ[s] - res[s]))
        return "\n".join(lines)
