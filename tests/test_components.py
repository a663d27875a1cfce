"""Component repartitioner: subset searches, merges, epoch resets, invariants.

The pruned subset searches are validated against the naive enumerations in
oracles.py before anything else relies on them, and the algorithm, which
narrows each search to the components that can be in its answer, runs in
lockstep with the reference that searches all of them.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceComponents,
    component_sizes,
    dense_component_graph,
    internal_weight,
    naive_connected_merge_set,
    naive_epoch_set,
    naive_merge_set,
    random_component_graph,
)
from repart import components
from repart.adversaries import PlantedPartition, RandomPairs, TraceSource
from repart.components import (
    ComponentRepartitioner,
    InsufficientAugmentation,
    _adjacency,
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


def test_residual_check_agrees_with_naive_enumeration():
    # the residual check on arbitrary graphs, not only on reachable states:
    # components of sizes 1..k get the graph's weights, and the answer must
    # be the naive search over the components that carry any weight. Weights
    # below alpha leave no qualifying pair, so only the core can hold one.
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
        assert alg.residual_merge_set() == expected, (k, alpha, sizes, weights)
        found += len(expected) > 1
        pairless = not any(w >= alpha and sizes[a] + sizes[b] <= k
                           for (a, b), w in weights.items())
        in_core += len(expected) > 1 and pairless
    assert found > 100 and in_core > 10


def _walk(sizes, weights, k, alpha, seed, bound=False):
    """The step's merge walk on a standalone graph; with `bound`, cut by
    density over every candidate."""
    nbrs = _adjacency(weights, sizes)
    deg = {c: sum(row.values()) for c, row in nbrs.items()}
    room = k - sizes[seed[0]] - sizes[seed[1]]
    heaviest = None
    if bound and room > 0:
        pool = {c for c in nbrs if c not in seed and deg[c] >= alpha}
        heaviest = {c: _heaviest([w for d, w in nbrs[c].items() if d in pool],
                                 room) for c in pool}
    return components._connected_merge_set(
        nbrs, {c: [c] * size for c, size in sizes.items()}, deg, seed, k,
        alpha, heaviest)


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


def test_merge_walk_matches_the_ball_search(monkeypatch):
    # On every step of seeded runs at k = 4 and k = 8, the walk returns what
    # find_merge_set returns on lemma 1's ball: the components within room
    # hops of the seed through sizes <= room and deg >= alpha, peeled to a
    # fan-in of room + 1.
    walk = components._connected_merge_set
    seen = []

    def checked(nbrs, nodes, deg, seed, k, alpha, heaviest=None):
        got = walk(nbrs, nodes, deg, seed, k, alpha, heaviest)
        room = k - len(nodes[seed[0]]) - len(nodes[seed[1]])
        ball = set(seed)
        if room > 0:
            ball = _within(nbrs, seed, room, lambda c: (
                len(nodes[c]) <= room and deg[c] >= alpha))
            ball = _peel(ball, nbrs, seed, lambda c: alpha, lambda c: room + 1)
        state = SimpleNamespace(comp_nodes=nodes, nbrs=nbrs)
        assert got[0] == find_merge_set(
            *ComponentRepartitioner._subgraph(state, ball), k, alpha,
            seed=seed)
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
    for name in ("weights", "pair_remote", "comp_nodes", "comp_cluster",
                 "comp_reserved"):
        assert getattr(alg, name) == getattr(ref, name), name
    # the incrementally kept tables equal a rebuild from the weights
    nbrs = _adjacency(alg.weights, alg.comp_nodes)
    deg = {c: sum(row.values()) for c, row in nbrs.items()}
    assert alg.nbrs == nbrs
    assert alg.deg == deg
    assert alg.hot == {c for c, d in deg.items()
                       if d > alg.alpha * len(alg.comp_nodes[c])}


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
    assert alg.residual_merge_set() == ref.residual_merge_set()


@settings(max_examples=100, deadline=None)
@given(component_streams(ks=(6, 8), most=60))
def test_density_cut_walk_matches_the_full_reference(case):
    # from k = 6 up the room after a split request between singletons is
    # 3 or more, where the step's walk keeps to the ball and cuts by density
    _lockstep(*case)


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
    # per-step checks, dropping a seed-only decision, a fan-in bound or the
    # walk's cuts raises one of these counts above what the shortcuts
    # reach. The step walks its merge sets and calls no find_merge_set.
    counts = {"find_merge_set": 0, "find_epoch_set": 0, "_subgraph": 0,
              "core search": 0, "walk visits": 0}
    checking = []
    walk = components._connected_merge_set

    def walked(*args):
        best, visits = walk(*args)
        counts["walk visits"] += visits
        return best, visits

    def counted(name, fn):
        def call(*args, **kwargs):
            counts["core search" if checking and name == "find_merge_set"
                   else name] += 1
            return fn(*args, **kwargs)
        return call

    def residual(alg):
        checking.append(True)
        try:
            return residual_check(alg)
        finally:
            checking.pop()

    residual_check = ComponentRepartitioner.residual_merge_set
    monkeypatch.setattr(components, "find_merge_set",
                        counted("find_merge_set", find_merge_set))
    monkeypatch.setattr(components, "find_epoch_set",
                        counted("find_epoch_set", find_epoch_set))
    monkeypatch.setattr(ComponentRepartitioner, "_subgraph", counted(
        "_subgraph", ComponentRepartitioner._subgraph))
    monkeypatch.setattr(ComponentRepartitioner, "residual_merge_set",
                        residual)
    monkeypatch.setattr(components, "_connected_merge_set", walked)
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
    assert counts["find_epoch_set"] <= 459
    assert counts["_subgraph"] <= 1054
    assert counts["core search"] <= 96


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


def test_dump_state_is_readable():
    p = Params(4, 2, 2, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    _drive(alg, alg.start, [(0, 2)])
    text = alg.dump_state()
    assert "component" in text and "cluster 0: o=3 r=1 f=0" in text
