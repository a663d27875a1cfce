"""Component repartitioner: subset searches, merges, epoch resets, invariants.

The pruned subset searches are validated against the naive enumerations in
oracles.py before anything else relies on them, and the algorithm, which
narrows each search to the components that can be in its answer, runs in
lockstep with the reference that searches all of them.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceComponents,
    _adjacency,
    component_sizes,
    dense_component_graph,
    internal_weight,
    naive_connected_merge_set,
    naive_core_merge_set,
    naive_epoch_set,
    naive_merge_set,
    random_component_graph,
    rebuilt_index,
    rescan_peel,
)
from repart import components
from repart.adversaries import PlantedPartition, RandomPairs, TraceSource
from repart.components import (
    ComponentRepartitioner,
    InsufficientAugmentation,
    _heaviest,
    _peel,
    _within,
    find_epoch_set,
    find_merge_set,
)
from repart.core import (
    GeometryError,
    Params,
    Request,
    apply_moves,
    contiguous_configuration,
    new_configuration,
)
from repart.engine import run


# -- search oracles ----------------------------------------------------------


def test_merge_search_agrees_with_naive_enumeration():
    rng = random.Random(100)
    for _ in range(300):
        k = rng.randint(2, 5)
        alpha = rng.randint(1, 3)
        sizes, weights = random_component_graph(rng, k)
        assert find_merge_set(sizes, weights, k, alpha) == \
            naive_merge_set(sizes, weights, k, alpha)


def test_epoch_search_agrees_with_naive_enumeration():
    rng = random.Random(200)
    for _ in range(300):
        k = rng.randint(2, 5)
        alpha = rng.randint(1, 3)
        sizes, weights = random_component_graph(rng, k)
        assert find_epoch_set(sizes, weights, k, alpha) == \
            naive_epoch_set(sizes, weights, k, alpha)


def test_merge_search_boundaries():
    sizes = {1: 1, 2: 1}
    assert find_merge_set(sizes, {(1, 2): 2}, 2, 2) == (1, 2)
    assert find_merge_set(sizes, {(1, 2): 1}, 2, 2) == ()
    assert find_merge_set(sizes, {}, 2, 1) == ()
    # volume cap keeps a heavy pair out
    assert find_merge_set({1: 2, 2: 1}, {(1, 2): 9}, 2, 1) == ()
    # weights are read under (low, high) keys, and only when positive
    assert find_merge_set(sizes, {(1, 2): 0, (2, 1): 9}, 2, 1) == ()


def test_merge_search_prefers_cardinality_then_weight_then_ids():
    sizes = {1: 1, 2: 1, 3: 1, 4: 2}
    # a triangle beats a heavier pair whose partner is too big to extend
    weights = {(1, 2): 1, (2, 3): 1, (1, 4): 9}
    assert find_merge_set(sizes, weights, 3, 1) == (1, 2, 3)
    sizes = {1: 1, 2: 1, 3: 1, 4: 1}
    # equal cardinality and weight: lexicographically first ids win
    assert find_merge_set(sizes, {(1, 2): 2, (3, 4): 2}, 2, 1) == (1, 2)
    assert find_merge_set(sizes, {(1, 2): 2, (3, 4): 3}, 2, 1) == (3, 4)


def test_epoch_search_minimality():
    sizes = {1: 1, 2: 1, 3: 1}
    weights = {(1, 2): 5, (2, 3): 5}
    # both adjacent pairs qualify at k=1; supersets are not minimal
    assert find_epoch_set(sizes, weights, 1, 1) == (1, 2)
    # requirement scales with volume
    assert find_epoch_set({1: 2, 2: 2}, {(1, 2): 3}, 3, 1) == ()
    assert find_epoch_set({1: 2, 2: 2}, {(1, 2): 4}, 3, 1) == (1, 2)
    # weights are read under (low, high) keys, and only when positive
    assert find_epoch_set({1: 1, 2: 1}, {(1, 2): 0, (2, 1): 9}, 1, 1) == ()


def test_seed_restricts_the_merge_search():
    sizes = {1: 1, 2: 1, 3: 1, 4: 1}
    weights = {(1, 2): 5, (3, 4): 1}
    assert find_merge_set(sizes, weights, 2, 1) == (1, 2)
    assert find_merge_set(sizes, weights, 2, 1, seed=(4, 3)) == (3, 4)
    # a seed too big to fit inside the volume cap cannot qualify
    assert find_merge_set({1: 2, 2: 2}, {(1, 2): 9}, 2, 1, seed=(1, 2)) == ()


def test_seeded_searches_match_unseeded_on_their_own_answers():
    rng = random.Random(300)
    hits = 0
    for _ in range(400):
        k = rng.randint(2, 4)
        alpha = rng.randint(1, 2)
        sizes, weights = random_component_graph(rng, k)
        full = find_merge_set(sizes, weights, k, alpha)
        if len(full) >= 2:
            hits += 1
            assert find_merge_set(sizes, weights, k, alpha,
                                  seed=full[:2]) == full
        full = find_epoch_set(sizes, weights, k, alpha)
        if full:
            assert find_epoch_set(sizes, weights, k, alpha,
                                  seed=full[:1]) == full
    assert hits > 20  # the graphs actually exercised the seeded path


def test_seeded_searches_agree_with_naive_enumeration():
    rng = random.Random(400)
    hits = 0
    for i in range(600):
        k = rng.randint(2, 5)
        alpha = rng.randint(1, 3)
        if i % 2:
            sizes, weights = random_component_graph(rng, k)
        else:
            sizes, weights = dense_component_graph(rng, k, alpha)
        seed = tuple(rng.sample(sorted(sizes), rng.randint(0, 2)))
        epoch = find_epoch_set(sizes, weights, k, alpha, seed=seed)
        assert epoch == naive_epoch_set(sizes, weights, k, alpha, seed=seed)
        assert find_merge_set(sizes, weights, k, alpha, seed=seed) == \
            naive_merge_set(sizes, weights, k, alpha, seed=seed)
        hits += bool(epoch)
    assert hits > 50


def _assert_merge_set(alg, found):
    """`found` is a merge set of the algorithm's state, read from its node
    lists and its weights: |X| >= 2, vol <= k and com >= (|X|-1)*alpha."""
    card = len(set(found))
    assert card == len(found) >= 2, found
    assert sum(len(alg.comp_nodes[c]) for c in found) <= alg.k, found
    assert internal_weight(found, alg.weights) >= (card - 1) * alg.alpha, found


def test_residual_check_agrees_with_naive_enumeration():
    # the residual check on arbitrary graphs, not only on reachable states:
    # components of sizes 1..k get the graph's weights, and the answer must
    # be empty exactly when the naive search over the components that carry
    # any weight is, and a merge set otherwise. Weights below alpha leave no
    # qualifying pair, so only the core can hold one.
    rng = random.Random(500)
    found = in_core = 0
    for i in range(900):
        k = rng.randint(2, 5)
        alpha = rng.randint(1, 3)
        if i % 2:
            sizes, weights = random_component_graph(rng, k)
        else:
            sizes, weights = dense_component_graph(rng, k, alpha)
        top = rng.choice((max(alpha - 1, 1), alpha + 1, 3 * alpha))
        weights = {key: rng.randint(1, top) for key in weights}
        p = Params(2 * k, k, 2, alpha=alpha, delta=4)
        alg = ComponentRepartitioner(p, contiguous_configuration(p))
        # the check reads only the node lists' lengths
        alg.comp_nodes = {c: [c] * size for c, size in sizes.items()}
        alg.weights = dict(weights)
        live = {c: size for c, size in sizes.items()
                if any(c in key for key in weights)}
        expected = naive_merge_set(live, weights, k, alpha)
        got = alg.residual_merge_set()
        assert bool(got) == bool(expected), (k, alpha, sizes, weights)
        if got:
            _assert_merge_set(alg, got)
        found += len(expected) > 1
        pairless = not any(w >= alpha and sizes[a] + sizes[b] <= k
                           for (a, b), w in weights.items())
        in_core += len(expected) > 1 and pairless
    assert found > 100 and in_core > 10


def _state(k, alpha, sizes, weights):
    """An algorithm whose state has these component sizes and weights, as
    the residual checks read it: only the node lists' lengths count."""
    p = Params(2 * k, k, 2, alpha=alpha, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    alg.comp_nodes = {c: [c] * size for c, size in sizes.items()}
    alg.weights = dict(weights)
    return alg


def _residual(k, alpha, sizes, weights):
    """The residual check of a state with these component sizes and weights."""
    return _state(k, alpha, sizes, weights).residual_merge_set()


def _assert_dense_set(alg, found):
    """`found` is a nonempty set of distinct live components of the
    algorithm's state with com >= alpha*vol."""
    assert found and len(set(found)) == len(found), found
    vol = sum(len(alg.comp_nodes[c]) for c in found)
    assert internal_weight(found, alg.weights) >= alg.alpha * vol, found


def test_residual_epoch_check_agrees_with_naive_enumeration():
    # The epoch check on arbitrary graphs, not only on reachable states, so
    # also where sets with com above alpha*vol exist (the cut's minimum is
    # then below 0): the answer must be empty exactly when no nonempty set
    # has com >= alpha*vol, which naive_epoch_set at k = 0 enumerates, and
    # such a set otherwise.
    rng = random.Random(600)
    found = above = 0
    for i in range(900):
        k = rng.randint(2, 5)
        alpha = rng.randint(1, 3)
        if i % 2:
            sizes, weights = random_component_graph(rng, k)
        else:
            sizes, weights = dense_component_graph(rng, k, alpha)
        alg = _state(k, alpha, sizes, weights)
        expected = naive_epoch_set(sizes, weights, 0, alpha)
        got = alg.residual_epoch_set()
        assert bool(got) == bool(expected), (k, alpha, sizes, weights)
        if got:
            _assert_dense_set(alg, got)
            vol = sum(sizes[c] for c in got)
            above += internal_weight(got, weights) > alpha * vol
        found += bool(expected)
    assert found > 100 and above > 10


def test_residual_epoch_check_breaks_the_tie_with_the_empty_set():
    # Two singletons at weight 2*alpha have com = alpha*vol exactly, the tie
    # that an unscaled seedless cut would resolve to the empty set; one less
    # and no set qualifies.
    for alpha in (1, 2, 3):
        sizes = {1: 1, 2: 1}
        assert _state(2, alpha, sizes, {(1, 2): 2 * alpha}
                      ).residual_epoch_set() == (1, 2)
        assert _state(2, alpha, sizes, {(1, 2): 2 * alpha - 1}
                      ).residual_epoch_set() == ()


def test_residual_epoch_check_is_one_cut(monkeypatch):
    # On the k = 8 stream of the CI verify, the per-step check peels hot
    # cores of up to 23 components and decides each by one cut over the
    # whole core, not one cut per core component.
    cut, cores, calls = components._epoch_cut, [], []

    def counted(nbrs, nodes, dense, seed, alpha):
        calls.append(len(dense))
        return cut(nbrs, nodes, dense, seed, alpha)

    monkeypatch.setattr(components, "_epoch_cut", counted)
    p = Params(32, 8, 4, alpha=2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))

    def check(t, config, req, comm, mig):
        calls.clear()                    # the step's own cuts
        assert alg.residual_epoch_set() == ()
        cores.append(list(calls))

    run(alg, RandomPairs(1, 32, 2000), p, alg.start, 2000, observer=check)
    assert len(cores) == 2000
    assert all(len(sizes) <= 1 for sizes in cores)
    assert sum(1 for sizes in cores if sizes and sizes[0] >= 2) > 100
    assert max(size for sizes in cores for size in sizes) >= 10


# No pair reaches alpha = 3. The only merge set, (2, 3, 4), has vol = k = 3
# and avoids 1, the core's smallest id; with the weight 3-4 at 1 there is
# none. Every component keeps a fan-in of 2 + 2 > alpha, so all five form
# the core.
CORE_WEIGHTS = {(1, 2): 2, (1, 5): 2, (2, 3): 2, (2, 4): 2, (3, 4): 2,
                (3, 5): 2}


def test_residual_check_walks_the_core_from_every_root():
    # A core walk rooted only at the smallest id, or one that stops
    # growing at vol k-1, misses the merge set.
    sizes = dict.fromkeys(range(1, 6), 1)
    assert _residual(3, 3, sizes, CORE_WEIGHTS) == (2, 3, 4)
    # a weight that is not positive carries no traffic
    assert _residual(3, 3, sizes, {**CORE_WEIGHTS, (3, 4): 0}) == ()


def _core_walks(monkeypatch):
    """The residual check's walks as they run: for each walk seeded by one
    component, its root, a copy of the candidates it may take and what it
    returned."""
    walk = components._connected_merge_set
    walks = []

    def recorded(nbrs, nodes, seed, k, alpha, take, heaviest=None):
        out = walk(nbrs, nodes, seed, k, alpha, take, heaviest)
        if len(seed) == 1:
            walks.append((seed[0], set(take), out))
        return out

    monkeypatch.setattr(components, "_connected_merge_set", recorded)
    return walks


def test_core_walk_visits_each_connected_set_once(monkeypatch):
    # A 5-cycle of weight 2 with the chord 1-3 at 1: each component keeps a
    # fan-in of 2 + 2 > alpha = 3, so all five form the core, and no triangle
    # reaches com 6, so the core holds no merge set. The walks then visit
    # every connected set of vol <= k exactly once, from its smallest id: a
    # walk that also took ids below its root would visit some of them again.
    sizes = dict.fromkeys(range(1, 6), 1)
    weights = {(1, 2): 2, (2, 3): 2, (3, 4): 2, (4, 5): 2, (1, 5): 2,
               (1, 3): 1}
    holds, count = naive_core_merge_set(sizes, weights, set(sizes), 3, 3)
    assert (holds, count) == (False, 18)
    walks = _core_walks(monkeypatch)
    assert _residual(3, 3, sizes, weights) == ()
    assert [root for root, _, _ in walks] == [1, 2, 3, 4, 5]
    assert sum(out[1] for _, _, out in walks) == 18


def test_core_walk_agrees_with_connected_enumeration(monkeypatch):
    # On arbitrary graphs: the residual check walks its core from each
    # component in id order, taking larger ids only, until a walk answers;
    # one does iff some connected set of the core is a merge set; and the
    # walks visit each connected set of vol <= k at most once. Below k = 4
    # no set past the root has room to grow by more than one member, so no
    # density cut runs, and when no walk answers they visit each of those
    # sets. Each pair that fits in k weighs below alpha, so no pair
    # qualifies and every core of three or more gets walked; k = 3, where
    # the walks run uncut, is drawn twice as often as the others.
    rng = random.Random(700)
    walks = _core_walks(monkeypatch)
    hits = walked = 0
    for i in range(1800):
        k = rng.choice((3, 3, 4, 5, 6))
        alpha = rng.randint(2, 5)
        if i % 2:
            sizes, weights = random_component_graph(rng, k)
        else:
            sizes, weights = dense_component_graph(rng, k, alpha)
        top = rng.choice((alpha + 1, 3 * alpha))
        weights = {(a, b): rng.randint(
            1, alpha - 1 if sizes[a] + sizes[b] <= k else top)
            for a, b in weights}
        walks.clear()
        _residual(k, alpha, sizes, weights)
        if not walks:
            continue
        root, take, _ = walks[0]
        core = take | {root}
        assert [r for r, _, _ in walks] == sorted(core)[:len(walks)]
        assert all(t == {c for c in core if c > r} for r, t, _ in walks)
        holds, count = naive_core_merge_set(sizes, weights, core, k, alpha)
        answers = [bool(out[0]) for _, _, out in walks]
        assert answers == [False] * (len(walks) - 1) + [holds], (
            k, alpha, sizes, weights, core)
        visits = sum(out[1] for _, _, out in walks)
        assert visits <= count
        if k <= 3 and not holds:
            assert visits == count
            walked += count > 6
        hits += holds
    assert hits > 100 and walked > 10


def test_core_walk_cuts_by_density(monkeypatch):
    # On a random k = 8, alpha = 3 run the cores hold about 20 components;
    # without the density cut their walks visit over a hundred times as
    # many sets.
    walks = _core_walks(monkeypatch)
    cores, visits = [], 0
    p = Params(32, 8, 4, alpha=3, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))

    def check(t, config, req, comm, mig):
        nonlocal visits
        walks.clear()
        assert alg.residual_merge_set() == ()
        if walks:
            cores.append(len(walks[0][1]) + 1)
            visits += sum(out[1] for _, _, out in walks)

    run(alg, RandomPairs(7, 32, 300), p, alg.start, 300, observer=check)
    assert len(cores) >= 40 and sum(cores) >= 20 * len(cores)
    assert visits <= 25872


@st.composite
def peel_cases(draw):
    """Candidates (repeats and weightless ids included), a symmetric graph
    of positive weights, a seed of up to two ids, and a need and a fan per
    id."""
    ids = draw(st.lists(st.integers(0, 15), min_size=1, max_size=10,
                        unique=True))
    nbrs = {}
    for a, b in itertools.combinations(ids, 2):
        w = draw(st.integers(0, 4))
        if w:
            nbrs.setdefault(a, {})[b] = w
            nbrs.setdefault(b, {})[a] = w
    cands = draw(st.lists(st.sampled_from(ids), max_size=12))
    seed = tuple(draw(st.lists(st.sampled_from(ids), max_size=2,
                               unique=True)))
    need = {c: draw(st.integers(1, 8)) for c in ids}
    fan = {c: draw(st.integers(1, 4)) for c in ids}
    return cands, nbrs, seed, need.__getitem__, fan.__getitem__


@settings(max_examples=400, deadline=None)
@given(peel_cases())
def test_peel_matches_the_rescan_reference(case):
    cands, nbrs, seed, need, fan = case
    for f in (None, fan):
        assert _peel(cands, nbrs, seed, need, f) == rescan_peel(
            cands, nbrs, seed, need, f)


def test_peel_retests_the_neighbours_of_fan_drops():
    # With fan 1, 1 fails its fan test (heaviest 3 < need 4) and goes, and 6
    # goes with it. Only then does 2 fail its own: its weight into the rest
    # still meets its need of 3, but its heaviest weight left is 1. A peel
    # that re-tested no one, or only the dropped, would keep 2 and 5.
    nbrs = _adjacency({(1, 2): 3, (1, 6): 2, (2, 3): 1, (2, 4): 1,
                       (2, 5): 1, (3, 4): 1}, range(1, 7))
    need = {1: 4, 2: 3}
    args = (range(1, 7), nbrs, (), lambda c: need.get(c, 1), lambda c: 1)
    assert _peel(*args) == rescan_peel(*args) == {3, 4}


def _walk(sizes, weights, k, alpha, seed, bound=False):
    """The step's merge walk on a standalone graph; with `bound`, cut by
    density over every candidate."""
    nbrs = _adjacency(weights, sizes)
    warm = {c for c, row in nbrs.items() if sum(row.values()) >= alpha}
    room = k - sizes[seed[0]] - sizes[seed[1]]
    heaviest = None
    if bound and room > 0:
        warm.difference_update(seed)
        heaviest = {c: _heaviest([w for d, w in nbrs[c].items() if d in warm],
                                 room) for c in warm}
    return components._connected_merge_set(
        nbrs, {c: [c] * size for c, size in sizes.items()}, seed, k, alpha,
        warm, heaviest)


def test_merge_walk_agrees_with_connected_enumeration():
    # Each set the walk visits is a distinct connected superset of the seed
    # with vol <= k, so the visits never exceed their number.
    rng = random.Random(600)
    hits = 0
    for i in range(600):
        k = rng.randint(2, 6)
        alpha = rng.randint(1, 3)
        if i % 2:
            sizes, weights = random_component_graph(rng, k)
        else:
            sizes, weights = dense_component_graph(rng, k, alpha)
        seed = tuple(sorted(rng.sample(sorted(sizes), 2)))
        expected, count = naive_connected_merge_set(sizes, weights, k, alpha,
                                                    seed)
        for bound in (False, True):
            got, visits = _walk(sizes, weights, k, alpha, seed, bound)
            assert got == expected, (k, alpha, sizes, weights, seed, bound)
            assert visits <= max(count, 1)
        hits += len(expected) > 2
    assert hits > 50


def test_merge_walk_visits_each_connected_set_once():
    # Beyond the seed (1, 2), 5 joins only through 4, after 4's sibling 3
    # has had its branch. No cut fires here, so the walk visits exactly the
    # connected supersets of the seed with vol <= k; an ESU that handed a
    # branch its whole extension list, not the entries after the new member,
    # would visit some of them again.
    sizes = dict.fromkeys((1, 2, 3, 4, 5), 1)
    weights = {(1, 2): 2, (1, 3): 1, (2, 4): 1, (4, 5): 3, (3, 5): 1}
    for k, expected, count in ((4, (1, 2, 4, 5), 6), (5, (1, 2, 3, 4, 5), 7)):
        assert naive_connected_merge_set(sizes, weights, k, 2, (1, 2)) == (
            expected, count)
        assert _walk(sizes, weights, k, 2, (1, 2)) == (expected, count)


def test_merge_walk_density_cut_counts_candidates_beyond_the_set():
    # At the seed (1, 2), 4 is not yet next to the set, but the merge set
    # (1, 2, 3, 4) needs its weight to 3: a bound over the extension list
    # alone would cut the seed's branch.
    sizes = dict.fromkeys((1, 2, 3, 4), 1)
    weights = {(1, 2): 1, (2, 3): 1, (3, 4): 7}
    assert _walk(sizes, weights, 4, 3, (1, 2), bound=True)[0] == (1, 2, 3, 4)


def _subgraph(nbrs, nodes, comps):
    """The sizes of `comps` and the weights among them."""
    return ({c: len(nodes[c]) for c in comps},
            {(a, b): w for a in comps for b, w in nbrs.get(a, {}).items()
             if a < b and b in comps})


def test_merge_walk_matches_the_ball_search(monkeypatch):
    # On every step of seeded runs at k = 4 and k = 8, the walk returns what
    # find_merge_set returns on lemma 1's ball: the components within room
    # hops of the seed through sizes <= room and deg >= alpha, peeled to a
    # fan-in of room + 1.
    walk = components._connected_merge_set
    seen = []

    def checked(nbrs, nodes, seed, k, alpha, take, heaviest=None):
        got = walk(nbrs, nodes, seed, k, alpha, take, heaviest)
        room = k - len(nodes[seed[0]]) - len(nodes[seed[1]])
        ball = set(seed)
        if room > 0:
            ball = _within(nbrs, seed, room, lambda c: (
                len(nodes[c]) <= room and sum(nbrs[c].values()) >= alpha))
            ball = _peel(ball, nbrs, seed, lambda c: alpha, lambda c: room + 1)
        assert got[0] == find_merge_set(*_subgraph(nbrs, nodes, ball), k,
                                        alpha, seed=seed)
        seen.append((room, len(got[0])))
        return got

    monkeypatch.setattr(components, "_connected_merge_set", checked)
    for n, k, ell, alpha, steps in ((16, 4, 4, 3, 1000), (32, 8, 4, 2, 500),
                                    (32, 8, 4, 3, 500)):
        p = Params(n, k, ell, alpha=alpha, delta=4)
        for src in (RandomPairs(5, n, steps),
                    PlantedPartition(5, p, 0.9, 0.1, steps=steps)):
            alg = ComponentRepartitioner(p, contiguous_configuration(p))
            run(alg, src, p, alg.start, steps)
    assert sum(room >= 3 for room, _ in seen) > 500
    assert sum(size >= 3 for _, size in seen) > 20


# -- initial layout ----------------------------------------------------------


def test_initial_layout_mirrors_the_given_placement():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    assert alg.start.cluster_count == 4
    assert alg.start.cluster_capacity == 4
    assert tuple(alg.start.assignment) == (0, 0, 1, 1)
    assert alg.occupancy() == [2, 2, 0, 0]
    assert alg.reserved_space() == [2, 2, 0, 0]  # one held slot per singleton
    assert alg.spare() == [0, 0, 4, 4]
    assert alg.check_invariants(alg.start) == []


def test_initial_guards():
    p = Params(4, 2, 2, delta=2)
    with pytest.raises(InsufficientAugmentation):
        ComponentRepartitioner(p, contiguous_configuration(p))
    p = Params(4, 2, 2, delta=4)
    with pytest.raises(GeometryError):
        ComponentRepartitioner(p, new_configuration([0, 0, 0, 1], 2, 3))


def test_size_one_clusters_reserve_nothing():
    p = Params(3, 1, 3, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    assert alg.reserved_space() == [0] * 6
    # merges are impossible at k=1, so requests only accumulate weight
    moves, post = alg.step(alg.start, Request(0, 2))
    assert (moves, post) == ([], [])
    assert alg.weights == {(0, 2): 1}


# -- merging -----------------------------------------------------------------


def _drive(alg, config, pairs):
    """Feed raw requests through the algorithm, applying its moves."""
    out = []
    for t, (u, v) in enumerate(pairs, 1):
        pre, post = alg.step(config, Request(u, v, t))
        config, _ = apply_moves(config, pre, alg.alpha)
        config, _ = apply_moves(config, post, alg.alpha)
        out.append(pre)
    return config, out


def test_merge_into_reserved_slot():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    config, moves = _drive(alg, alg.start, [(0, 2)])
    # both singletons hold a slot; the anchor keeps its cluster and the
    # reservation absorbs the incoming node
    assert moves == [[(2, 0)]]
    merged = alg.comp_of[0]
    assert alg.comp_of[2] == merged
    assert sorted(alg.comp_nodes[merged]) == [0, 2]
    assert alg.comp_reserved[merged] == 0
    assert alg.comm_paid[merged] == 0  # the trigger was served collocated
    assert alg.occupancy() == [3, 1, 0, 0]
    assert alg.check_invariants(config) == []


def test_merge_weight_threshold_scales_with_alpha():
    p = Params(4, 2, 2, alpha=3, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    config, moves = _drive(alg, alg.start, [(0, 2), (0, 2), (0, 2)])
    assert moves == [[], [], [(2, 0)]]
    merged = alg.comp_of[0]
    # two remote serves happened before the merge and charge the component
    assert alg.comm_paid[merged] == 2
    assert alg.check_invariants(config) == []


def test_merge_without_reservation_lands_in_a_fresh_cluster():
    p = Params(6, 3, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    config, moves = _drive(alg, alg.start, [(0, 3), (1, 0)])
    # first merge eats the anchor's held slot; the second finds no
    # reservation and relocates everyone to the emptiest cluster
    assert moves == [[(3, 0)], [(1, 2), (0, 2), (3, 2)]]
    merged = alg.comp_of[0]
    assert sorted(alg.comp_nodes[merged]) == [0, 1, 3]
    assert alg.comp_cluster[merged] == 2
    assert alg.comp_reserved[merged] == 0  # min(k - vol, vol) with vol = k
    assert alg.occupancy() == [1, 2, 3, 0]
    assert alg.spare() == [4, 2, 3, 6]
    assert alg.check_invariants(config) == []


def test_step_merges_four_components_of_volume_exactly_k():
    # No set qualifies before the last request; after it, the four
    # singletons qualify together with vol = k, so a walk that stopped
    # growing at vol k-1 would merge only three of them.
    p = Params(8, 4, 2, alpha=2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    config, moves = _drive(alg, alg.start,
                           [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    assert moves == [[]] * 5
    config, _ = _drive(alg, config, [(0, 1)])
    assert alg.comp_nodes[alg.comp_of[0]] == [0, 1, 2, 3]
    assert alg.check_invariants(config) == []


def test_step_merges_are_tight(monkeypatch):
    # Lemma 1's tightness: every merge set the step forms has com exactly
    # (|X|-1)*alpha.
    merge = ComponentRepartitioner._merge
    formed = []

    def checked(self, merge_set):
        assert internal_weight(merge_set, self.weights) == (
            len(merge_set) - 1) * self.alpha, merge_set
        formed.append(len(merge_set))
        return merge(self, merge_set)

    monkeypatch.setattr(ComponentRepartitioner, "_merge", checked)
    for n, k, ell, alpha in GEOMETRIES + ((16, 4, 4, 3), (24, 6, 4, 2),
                                          (32, 8, 4, 2)):
        p = Params(n, k, ell, alpha=alpha, delta=4)
        for seed in range(3):
            for src in (RandomPairs(seed, n, 400),
                        PlantedPartition(seed, p, 0.9, 0.1, steps=400)):
                alg = ComponentRepartitioner(p, contiguous_configuration(p))
                run(alg, src, p, alg.start, 400)
    assert len(formed) > 1000 and max(formed) >= 4


def test_intra_component_requests_are_silent():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    config, _ = _drive(alg, alg.start, [(0, 2)])
    before = dict(alg.weights)
    moves, post = alg.step(config, Request(0, 2))
    assert (moves, post) == ([], [])
    assert alg.weights == before


# -- epoch ends --------------------------------------------------------------


def test_epoch_splits_and_evicts_one_singleton():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    sigma = [(0, 2), (0, 1), (0, 1), (0, 1)]
    config, moves = _drive(alg, alg.start, sigma)
    # weight {0,2}-{1} reaches volume * alpha = 3 and the epoch ends: all
    # three nodes split back to singletons and exactly one leaves the
    # cluster, whose four slots now hold two nodes plus two held slots
    assert moves[3] == [(0, 2)]
    assert all(len(alg.comp_nodes[c]) == 1 for c in alg.comp_nodes)
    assert alg.comp_cluster[0] == 2
    assert alg.comp_cluster[1] == 0 and alg.comp_cluster[2] == 0
    assert alg.weights == {}
    assert alg.violations == []
    assert alg.check_invariants(config) == []


def test_epoch_eviction_from_a_full_cluster():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    # two merges pack cluster 0 to its doubled capacity, then the pair
    # weight between them forces an epoch end
    sigma = [(0, 2), (1, 3), (0, 1), (0, 1), (0, 1), (0, 1)]
    config, moves = _drive(alg, alg.start, sigma)
    assert moves[1] == [(3, 0)]
    # four singletons re-reserve four slots on top of four occupants, so
    # two of them must leave, lowest node ids first, emptiest cluster first
    assert moves[5] == [(0, 1), (1, 2)]
    assert alg.occupancy() == [2, 1, 1, 0]
    assert alg.violations == []
    assert alg.check_invariants(config) == []


def test_epoch_resets_accounting():
    p = Params(4, 2, 2, alpha=2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    sigma = [(0, 2), (0, 2)]            # merge at weight 2 = alpha
    config, _ = _drive(alg, alg.start, sigma)
    merged = alg.comp_of[0]
    assert alg.comm_paid[merged] == 1   # one remote serve before the merge
    sigma = [(0, 1)] * 6                # epoch at weight 6 = vol * alpha
    config, moves = _drive(alg, config, sigma)
    assert all(alg.comm_paid[c] == 0 for c in alg.comp_nodes)
    assert all(alg.move_count[v] == 0 for v in range(4))
    assert alg.weights == {} and alg.pair_remote == {}
    assert alg.check_invariants(config) == []


def test_merges_and_epoch_ends_leave_other_rows_alone():
    # A merge or an epoch end edits the pair tables and the index in place,
    # touching only the rows of its members and their neighbours: every
    # other component keeps the very row object it had before the step.
    p = Params(18, 3, 6, alpha=1, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    tables = alg.weights, alg.pair_remote, alg.nbrs
    src, config = RandomPairs(9, 18, 600), alg.start
    merges = epoch_ends = 0
    for t in range(1, 601):
        req = src.next(config)
        rows, nodes, cid = dict(alg.nbrs), dict(alg.comp_nodes), alg.next_cid
        pre, post = alg.step(config, Request(req.u, req.v, t))
        config, _ = apply_moves(config, pre + post, p.alpha)
        assert all(a is b for a, b in zip(
            tables, (alg.weights, alg.pair_remote, alg.nbrs)))
        gone = {c for c in nodes if alg.comp_nodes.get(c) is not nodes[c]}
        near = gone.union(*(rows.get(c, ()) for c in gone))
        assert all(alg.nbrs[c] is row
                   for c, row in rows.items() if c not in near), t
        merges += alg.next_cid - cid
        epoch_ends += any(nodes.get(c) is not ns and len(ns) == 1
                          for c, ns in alg.comp_nodes.items())
    assert merges > 50 and epoch_ends > 10
    assert alg.check_invariants(config) == []


@pytest.mark.parametrize("edits, expected", [
    ({"move_count": {2: 4}}, ["epoch migrations 4 exceed 3"]),
    ({"comm_paid": {8: 7}}, ["epoch remote serves 7 exceed 6"]),
    ({"comp_cluster": {3: 0, 4: 0, 5: 0}},
     ["epoch end moved 4 singletons, cap 2.5"]),
    ({"move_count": {2: 4}, "comm_paid": {8: 7},
      "comp_cluster": {3: 0, 4: 0, 5: 0}},
     ["epoch migrations 4 exceed 3", "epoch remote serves 7 exceed 6",
      "epoch end moved 4 singletons, cap 2.5"]),
])
def test_epoch_end_audits_its_three_caps(edits, expected):
    # The epoch of test_epoch_splits_and_evicts_one_singleton on eight
    # nodes: {0, 2} (component 8, node 2 moved once) and {1}, vol 3, so the
    # caps are 3 * ceil(log2 2) = 3 migrations, 2 * 3 * 1 = 6 remote serves
    # and 3/2 + 1 evictions. Edits just before the step that ends it break
    # one cap each; three singletons more in cluster 0 force four evictions.
    p = Params(8, 2, 4, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    config, _ = _drive(alg, alg.start, [(0, 2), (0, 1), (0, 1)])
    assert alg.comp_nodes[8] == [0, 2] and alg.move_count[2] == 1
    for name, values in edits.items():
        getattr(alg, name).update(values)
    _drive(alg, config, [(0, 1)])
    assert all(len(nodes) == 1 for nodes in alg.comp_nodes.values())
    assert alg.violations == expected
    assert alg.check_invariants()[:len(expected)] == expected


def test_invariant_check_reports_partition_occupancy_and_headroom():
    # messages that no consistent state produces: a node in no component,
    # a node in two, and a layout with no cluster keeping k spare slots
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    alg.comp_nodes[0] = [1]
    assert alg.check_invariants() == [
        "node 1 not mapped to component 0",
        "components do not partition the node set"]
    alg.comp_nodes[0] = [0, 1]
    assert alg.check_invariants() == [
        "node 1 not mapped to component 0",
        "occupancy sums to 5, not 4",
        "cluster 0 over capacity: o=3 r=2"]
    alg.comp_nodes[0] = [0]
    alg.clusters = 2                    # the two empty clusters gone
    assert alg.check_invariants() == ["no cluster keeps k spare slots"]


# -- live-run checks ---------------------------------------------------------


GEOMETRIES = ((4, 2, 2, 1), (8, 2, 4, 2), (12, 3, 4, 1), (12, 4, 3, 2))


def test_no_qualifying_set_survives_any_step():
    # after every completed step the unseeded searches must come up empty,
    # which is exactly what lets the step seed them with the touched
    # components
    for n, k, ell, alpha in GEOMETRIES:
        p = Params(n, k, ell, alpha=alpha, delta=4)
        alg = ComponentRepartitioner(p, contiguous_configuration(p))

        def check(t, config, req, comm, mig, alg=alg, k=k, alpha=alpha):
            sizes = component_sizes(alg)
            assert find_merge_set(sizes, alg.weights, k, alpha) == ()
            assert find_epoch_set(sizes, alg.weights, k, alpha) == ()
            assert alg.residual_merge_set() == ()

        run(alg, RandomPairs(n * k, n, 250), p, alg.start, 250,
            observer=check)


def test_no_epoch_set_survives_any_step():
    # The premise of lemma 2's cold-seed skip and of its connectivity
    # remark: after every step no epoch set is left, by the literal
    # enumeration over all components.
    steps = 0
    for n, k, ell in ((4, 2, 2), (6, 2, 3), (6, 3, 2), (8, 2, 4), (8, 4, 2),
                      (9, 3, 3)):
        for alpha in (1, 2):
            p = Params(n, k, ell, alpha=alpha, delta=4)
            for src in (RandomPairs(n + alpha, n, 400),
                        PlantedPartition(n + alpha, p, 0.9, 0.1, steps=400)):
                alg = ComponentRepartitioner(p, contiguous_configuration(p))

                def check(t, config, req, comm, mig, alg=alg, k=k,
                          alpha=alpha):
                    assert naive_epoch_set(component_sizes(alg), alg.weights,
                                           k, alpha) == (), t

                steps += len(run(alg, src, p, alg.start, 400,
                                 observer=check).steps)
    assert steps == 9600


@st.composite
def component_streams(draw, ks=(2, 5), most=120):
    """Params with k in `ks`, a request source (random, planted, or a drawn
    list of pairs on few nodes, so that they repeat) and a step count of at
    most `most`."""
    k, ell = draw(st.integers(*ks)), draw(st.integers(2, 4))
    n = k * ell
    params = Params(n, k, ell, alpha=draw(st.integers(1, 3)), delta=4)
    steps = draw(st.integers(1, most))
    kind = draw(st.sampled_from(("random", "planted", "pairs")))
    seed = draw(st.integers(0, 2 ** 32))
    if kind == "random":
        return params, RandomPairs(seed, n, steps), steps
    if kind == "planted":
        return params, PlantedPartition(seed, params, 0.9, 0.1, steps=steps), steps
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6,
                          unique=True))
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=steps))
    return params, TraceSource([Request(min(p), max(p)) for p in pairs]), steps


def _same_state(alg, ref):
    # the pair tables, kept by touching only the members' rows, equal the
    # reference's whole-table rewrites, and the derived index a rebuild
    for name in ("weights", "pair_remote", "comp_nodes", "comp_cluster",
                 "comp_reserved", "comm_paid", "violations"):
        assert getattr(alg, name) == getattr(ref, name), name
    assert (alg.nbrs, alg.deg, alg.warm, alg.hot) == rebuilt_index(
        ref.weights, ref.comp_nodes, ref.alpha)


def _lockstep(params, src, steps):
    """Run the algorithm and the full-search reference side by side,
    comparing their moves, state and residual checks after every step."""
    alg = ComponentRepartitioner(params, contiguous_configuration(params))
    ref = ReferenceComponents(params, contiguous_configuration(params))
    config = alg.start
    for t in range(1, steps + 1):
        req = src.next(config)
        if req is None:
            break
        req = Request(req.u, req.v, t)
        moves = alg.step(config, req)
        assert moves == ref.step(config, req), "step %d" % t
        config, _ = apply_moves(config, moves[0] + moves[1], params.alpha)
        _same_state(alg, ref)
        assert alg.residual_merge_set() == ref.residual_merge_set() == ()
        assert alg.residual_epoch_set() == ()
    return alg, ref


@settings(max_examples=150, deadline=None)
@given(component_streams(), st.data())
def test_narrowed_searches_match_the_full_reference(case, data):
    alg, ref = _lockstep(*case)
    params = case[0]
    # The residual check must not lean on the invariant it checks: raise
    # some pair weights to alpha or more and compare it there too.
    comps = sorted(alg.comp_nodes)
    pair = st.lists(st.tuples(st.sampled_from(comps), st.sampled_from(comps),
                              st.integers(params.alpha, 3 * params.alpha))
                    .filter(lambda e: e[0] != e[1]), min_size=1, max_size=4)
    for a, b, w in data.draw(pair):
        key = (min(a, b), max(a, b))
        alg.weights[key] = ref.weights[key] = w
    got = alg.residual_merge_set()
    assert bool(got) == bool(ref.residual_merge_set())
    if got:
        _assert_merge_set(alg, got)
    # a set with com >= alpha*vol is an epoch set at k = 0
    got = alg.residual_epoch_set()
    assert bool(got) == bool(find_epoch_set(component_sizes(alg),
                                            alg.weights, 0, params.alpha))
    if got:
        _assert_dense_set(alg, got)


@settings(max_examples=100, deadline=None)
@given(component_streams(ks=(6, 8), most=60))
def test_density_cut_walk_matches_the_full_reference(case):
    # from k = 6 up the room after a split request between singletons is
    # 3 or more, where the step's walk keeps to the ball and cuts by density
    _lockstep(*case)


@settings(max_examples=150, deadline=None)
@given(component_streams(ks=(2, 8), most=300))
def test_epoch_cut_matches_the_seeded_searches(case):
    # Lemma 6: on every step that reaches the epoch side, the cut returns
    # what the seeded find_epoch_set returns on the same peeled core and,
    # on cores of at most ten components, what naive_epoch_set enumerates.
    params, src, steps = case
    cut = components._epoch_cut

    def checked(nbrs, nodes, dense, seed, alpha):
        got = cut(nbrs, nodes, dense, seed, alpha)
        sizes, weights = _subgraph(nbrs, nodes, dense)
        assert got == find_epoch_set(sizes, weights, params.k, alpha,
                                     seed=seed)
        if len(dense) <= 10:
            assert got == naive_epoch_set(sizes, weights, params.k, alpha,
                                          seed=seed)
        return got

    alg = ComponentRepartitioner(params, contiguous_configuration(params))
    with mock.patch.object(components, "_epoch_cut", checked):
        run(alg, src, params, alg.start, steps)


@st.composite
def tampered_states(draw):
    """A state reached by a drawn stream, then edited: component ids,
    payments, move counts, reservations and clusters of live components,
    weights that are not positive or keyed to a dead component, a live
    component's reservation or payment dropped, a payment or a reservation (with or
    without a cluster) keyed to a dead component, and an engine placement
    with two nodes swapped."""
    params, src, steps = draw(component_streams())
    alg = ComponentRepartitioner(params, contiguous_configuration(params))
    config = alg.start
    for t in range(1, steps + 1):
        req = src.next(config)
        if req is None:
            break
        pre, post = alg.step(config, Request(req.u, req.v, t))
        config, _ = apply_moves(config, pre + post, params.alpha)
    k, alpha, n = params.k, params.alpha, params.n
    comps, nodes = sorted(alg.comp_nodes), range(n)
    dead = [c for c in range(alg.next_cid + 1) if c not in alg.comp_nodes]
    edit = st.one_of(
        st.tuples(st.just("comp_of"), st.sampled_from(nodes),
                  st.sampled_from(comps)),
        st.tuples(st.just("comm_paid"), st.sampled_from(comps),
                  st.integers(0, k * alpha)),
        st.tuples(st.just("move_count"), st.sampled_from(nodes),
                  st.integers(0, 3)),
        st.tuples(st.just("comp_reserved"), st.sampled_from(comps),
                  st.integers(-1, k + 1)),
        st.tuples(st.just("comp_cluster"), st.sampled_from(comps),
                  st.integers(0, alg.clusters - 1)),
        st.tuples(st.just("weights"), st.tuples(st.sampled_from(comps),
                                                st.sampled_from(comps)),
                  st.integers(-1, 3 * alpha)),
        st.tuples(st.just("weights"), st.tuples(st.sampled_from(comps),
                                                st.sampled_from(dead)),
                  st.integers(1, 3 * alpha)),
        st.tuples(st.just("unreserve"), st.sampled_from(comps), st.none()),
        st.tuples(st.just("unpay"), st.sampled_from(comps), st.none()),
        st.tuples(st.just("dead_paid"), st.sampled_from(dead),
                  st.integers(0, k * alpha)),
        st.tuples(st.just("dead_reserved"), st.sampled_from(dead),
                  st.tuples(st.none() | st.integers(0, alg.clusters - 1),
                            st.integers(-1, k + 1))),
        st.tuples(st.just("swap"), st.sampled_from(nodes),
                  st.sampled_from(nodes)))
    for name, at, value in draw(st.lists(edit, max_size=8)):
        if name == "swap":
            placed = list(config.assignment)
            placed[at], placed[value] = placed[value], placed[at]
            config = new_configuration(placed, config.cluster_count,
                                       config.cluster_capacity)
        elif name == "unreserve":
            alg.comp_reserved.pop(at, None)
        elif name == "unpay":
            alg.comm_paid.pop(at, None)
        elif name == "dead_paid":
            alg.comm_paid[at] = value
        elif name == "dead_reserved":
            cluster, alg.comp_reserved[at] = value
            if cluster is not None:
                alg.comp_cluster[at] = cluster
        elif name == "weights":
            a, b = at
            if a != b:
                alg.weights[(min(a, b), max(a, b))] = value
        else:
            getattr(alg, name)[at] = value
    return alg, draw(st.sampled_from((None, config)))


@settings(max_examples=300, deadline=None)
@given(tampered_states())
def test_one_pass_invariant_check_matches_the_reference(case):
    # the same messages in the same order, or the same exception; where a
    # payment or a reservation keyed to a dead component makes the
    # reference raise KeyError, the check reports it instead, and it also
    # reports each live component whose reservation or payment was dropped,
    # which the reference passes over
    def outcome(check):
        try:
            return check(alg, config)
        except (KeyError, IndexError) as e:
            return type(e)

    alg, config = case
    got = outcome(ComponentRepartitioner.check_invariants)
    expected = outcome(ReferenceComponents.check_invariants)
    missing = (["component %d has no reservation" % c for c in alg.comp_nodes
                if c not in alg.comp_reserved]
               + ["component %d has no payment record" % c for c in alg.comp_nodes
                  if c not in alg.comm_paid])
    if expected is KeyError:
        assert isinstance(got, list)
        assert any("dead component" in e or "out of range" in e for e in got)
    else:
        assert [e for e in got if e not in missing] == expected
    if isinstance(got, list):
        assert [e for e in got if e in missing] == missing


def test_step_and_residual_check_work_stays_within_its_counts(monkeypatch):
    # A guard without timings: on one seeded grid-shaped run under the
    # per-step checks, dropping the cold-seed skip, a fan-in bound, the
    # walk's cuts or the core walk's root order raises one of these counts
    # above what the shortcuts reach. The step walks its merge sets and
    # decides its epoch ends by one cut, and the residual check walks its
    # core; none of them calls find_merge_set or find_epoch_set.
    counts = {"find_merge_set": 0, "find_epoch_set": 0, "_epoch_cut": 0,
              "walk visits": 0, "core walk visits": 0}

    def visits_of(walk):
        # the step seeds its walk with a pair, the residual check with a root
        def call(*args):
            out = walk(*args)
            counts["walk visits" if len(args[2]) == 2
                   else "core walk visits"] += out[1]
            return out
        return call

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(components, "find_merge_set",
                        counted("find_merge_set", find_merge_set))
    monkeypatch.setattr(components, "find_epoch_set",
                        counted("find_epoch_set", find_epoch_set))
    monkeypatch.setattr(components, "_epoch_cut",
                        counted("_epoch_cut", components._epoch_cut))
    monkeypatch.setattr(components, "_connected_merge_set", visits_of(
        components._connected_merge_set))
    p = Params(16, 4, 4, alpha=3, delta=4)
    moved = 0
    for src in (PlantedPartition(11, p, 0.9, 0.1, steps=1000),
                RandomPairs(11, 16, 1000)):
        alg = ComponentRepartitioner(p, contiguous_configuration(p))

        def check(t, config, req, comm, mig, alg=alg):
            assert alg.check_invariants(config) == []
            assert alg.residual_merge_set() == ()

        tr = run(alg, src, p, alg.start, 1000, observer=check)
        moved += sum(1 for s in tr.steps if s.mig)
    assert moved > 50                    # merges and epoch ends happened
    assert counts["find_merge_set"] == 0
    assert counts["walk visits"] <= 15058
    assert counts["find_epoch_set"] == 0
    assert counts["_epoch_cut"] <= 560
    assert counts["core walk visits"] <= 2918


def test_a_step_that_merges_ends_there(monkeypatch):
    # Lemma 5: a merge leaves no epoch set, so the step returns right after
    # it. On these grid-shaped inputs (seeds 0-149, planted and random), a
    # step that went on to the epoch side after its merge made 388 peels
    # and 200 searches, and every search came back empty.
    late = {"_peel": 0, "_epoch_cut": 0}
    merged = []                          # nonempty once the step merged
    step, merge = ComponentRepartitioner.step, ComponentRepartitioner._merge

    def stepping(self, config, req):
        merged.clear()
        return step(self, config, req)

    def merging(self, merge_set):
        merged.append(merge_set)
        return merge(self, merge_set)

    def counted(name, fn):
        def call(*args, **kwargs):
            late[name] += bool(merged)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(ComponentRepartitioner, "step", stepping)
    monkeypatch.setattr(ComponentRepartitioner, "_merge", merging)
    monkeypatch.setattr(components, "_peel", counted("_peel", _peel))
    monkeypatch.setattr(components, "_epoch_cut",
                        counted("_epoch_cut", components._epoch_cut))
    p = Params(16, 4, 4, alpha=3, delta=4)
    merges = 0
    for seed in range(150):
        for src in (PlantedPartition(seed, p, 0.9, 0.1, steps=100),
                    RandomPairs(seed, 16, 100)):
            alg = ComponentRepartitioner(p, contiguous_configuration(p))
            run(alg, src, p, alg.start, 100)
            merges += alg.next_cid - p.n
    assert merges == 1561
    assert late == {"_peel": 0, "_epoch_cut": 0}


def test_residual_check_on_corrupted_states_runs_no_full_search(monkeypatch):
    # A k = 8 run with four of its weights redrawn in 1..6 holds merge sets
    # of up to 8 members, which find_merge_set over every component with
    # weight takes up to a second to rank. The check returns the first
    # witness it meets instead, a pair there and a core walk's set on
    # CORE_WEIGHTS, and never calls that search.
    calls = []
    monkeypatch.setattr(components, "find_merge_set",
                        lambda *args, **kwargs: calls.append(args))
    p = Params(32, 8, 4, alpha=2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    run(alg, RandomPairs(1, 32, 1000), p, alg.start, 1000)
    assert alg.residual_merge_set() == ()
    clean = dict(alg.weights)
    for draw in range(8):
        rng = random.Random(draw)
        alg.weights = dict(clean)
        for key in rng.sample(sorted(clean), 4):
            alg.weights[key] = rng.randint(1, 6)
        _assert_merge_set(alg, alg.residual_merge_set())
    sizes = dict.fromkeys(range(1, 6), 1)
    assert _residual(3, 3, sizes, CORE_WEIGHTS) == (2, 3, 4)
    assert calls == []


def test_invariants_hold_across_random_runs():
    for n, k, ell, alpha in GEOMETRIES:
        p = Params(n, k, ell, alpha=alpha, delta=4)
        alg = ComponentRepartitioner(p, contiguous_configuration(p))
        failures = []

        def check(t, config, req, comm, mig, alg=alg, failures=failures):
            errs = alg.check_invariants(config)
            if errs:
                failures.append((t, errs))

        run(alg, PlantedPartition(n, p, 0.8, 0.2, steps=600), p, alg.start,
            600, observer=check)
        assert failures == []


def test_merge_can_serve_the_trigger_for_free():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    src = TraceSource([Request(0, 2)])
    tr = run(alg, src, p, alg.start, 5)
    assert [(s.comm, s.mig) for s in tr.steps] == [(0, 1)]


def test_tampering_is_detected():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    config, _ = _drive(alg, alg.start, [(0, 2)])
    assert alg.check_invariants(config) == []
    merged = alg.comp_of[0]
    alg.comm_paid[merged] = 99
    errs = alg.check_invariants(config)
    assert any("remote serves" in e for e in errs)
    alg.comm_paid[merged] = 0
    alg.comp_cluster[merged] = 3        # disagree with the engine placement
    assert any("disagrees" in e for e in alg.check_invariants(config))
    # keys of a component that does not exist are reported, not raised
    fresh = ComponentRepartitioner(p, contiguous_configuration(p))
    fresh.comm_paid[7] = 1
    assert fresh.check_invariants(fresh.start) == [
        "payment keyed to dead component 7"]
    del fresh.comm_paid[7]
    fresh.comp_reserved[7] = 0
    assert fresh.check_invariants(fresh.start) == [
        "reservation keyed to dead component 7"]
    assert "cluster 0: o=2 r=2 f=0" in fresh.dump_state()
    # so is a live component without a reservation, and the dump says so
    del fresh.comp_reserved[7], fresh.comp_reserved[0]
    assert fresh.check_invariants(fresh.start) == [
        "component 0 has no reservation"]
    assert "component 0: nodes=0 cluster=0 reserved=none" in fresh.dump_state()
    fresh.comp_reserved[0] = 1
    del fresh.comm_paid[0]
    assert fresh.check_invariants(fresh.start) == [
        "component 0 has no payment record"]
    assert "component 0: nodes=0 cluster=0 reserved=1 paid=none" in (
        fresh.dump_state())


def test_remote_count_without_weight_is_detected():
    # merges and epoch ends reach a remote count through its pair's weight,
    # so a count on a pair with no weight would be missed; the check names
    # it after the weight messages and before the payment ones
    p = Params(8, 2, 4, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    alg.pair_remote[(0, 2)] = 1
    alg.weights[(4, 6)] = 0
    alg.comm_paid[5] = 3
    assert alg.check_invariants(alg.start) == [
        "weight (4, 6) not positive",
        "remote count (0, 2) has no weight",
        "component 5 paid 3 remote serves, cap 0"]


def test_dump_state_is_readable():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    _drive(alg, alg.start, [(0, 2)])
    text = alg.dump_state()
    assert "component" in text and "cluster 0: o=3 r=1 f=0" in text
