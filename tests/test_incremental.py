"""Incremental engine state against the rebuild-and-scan references.

`apply_moves` moves a configuration in place; greedy and naive index
their pair counters by node. Each is run side by side with its reference
from oracles.py on random inputs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ScanGreedyMatcher,
    ScanNaiveCollocator,
    pair_counts,
    rebuild_apply_moves,
    scan_nodes_in,
)
from repart import engine
from repart.adversaries import PairChase, RandomPairs
from repart.core import (
    Configuration,
    Params,
    Request,
    RepartError,
    apply_moves,
    contiguous_configuration,
    new_configuration,
)
from repart.engine import NaiveCollocator, NullAlgorithm
from repart.greedy import GreedyMatcher


@st.composite
def placements(draw):
    """A valid, possibly not full, placement: (configuration, ell, k)."""
    ell = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, ell * k))
    slots = draw(st.permutations([c for c in range(ell) for _ in range(k)]))
    return new_configuration(slots[:n], ell, k), ell, k


@st.composite
def move_batches(draw):
    """A placement and a chain of batches. Nodes and clusters range one
    past each end, so some batches are invalid; repeated nodes and no-op
    moves come up on their own."""
    config, ell, _ = draw(placements())
    move = st.tuples(st.integers(-1, config.n), st.integers(-1, ell))
    return config, draw(st.lists(st.lists(move, max_size=6), max_size=8))


def _same_placement(got, want):
    for c in range(want.cluster_count):
        assert len(got.nodes_in(c)) == len(want.nodes_in(c))
        assert got.nodes_in(c) == scan_nodes_in(want, c)
    assert got == want
    assert got.canonical() == want.canonical()


@settings(max_examples=300, deadline=None)
@given(move_batches(), st.integers(1, 3))
def test_apply_moves_matches_rebuild(case, alpha):
    config, batches = case
    # an independent rebuild: apply_moves moves config in place
    ref = new_configuration(config.assignment, config.cluster_count,
                            config.cluster_capacity)
    for moves in batches:
        try:
            moved, want = rebuild_apply_moves(ref, moves, alpha)
        except RepartError as exc:
            try:
                apply_moves(config, moves, alpha)
            except RepartError as got:
                assert type(got) is type(exc)
            else:
                raise AssertionError("%r accepted; reference raised %r"
                                     % (moves, exc))
            _same_placement(config, ref)
            continue
        assert apply_moves(config, moves, alpha) == want
        _same_placement(config, moved)
        ref = moved


def test_a_long_walk_of_swaps_keeps_one_placement_current():
    # thousands of batches move the same object; its member lists must
    # still read as a rebuild of its assignment after each hundred
    p = Params(64, 4, 16)
    config = contiguous_configuration(p)
    ref = contiguous_configuration(p)
    rng = random.Random(5)
    for t in range(1, 5001):
        u, v = rng.sample(range(p.n), 2)
        cu, cv = ref.cluster_of(u), ref.cluster_of(v)
        moves = [(u, cv), (v, cu)]
        ref, want = rebuild_apply_moves(ref, moves, p.alpha)
        assert apply_moves(config, moves, p.alpha) == want
        assert config.assignment == ref.assignment
        if t % 100 == 0:
            _same_placement(config, ref)


def _lockstep(alg, ref, params, initial, pairs):
    config = initial
    for t, (u, v) in enumerate(pairs, 1):
        req = Request(min(u, v), max(u, v), t)
        moves = alg.step(config, req)
        assert moves == ref.step(config, req), "step %d" % t
        apply_moves(config, moves[0] + moves[1], params.alpha)
        assert all(alg.pairs.nbrs.values()), "empty neighbour map kept"
    return config


@st.composite
def streams(draw, ks):
    """Params, a shuffled balanced placement and a list of node pairs."""
    ell = draw(st.integers(2, 8))
    k = draw(st.sampled_from(ks))
    n = k * ell
    params = Params(n, k, ell, alpha=draw(st.integers(1, 2)))
    slots = draw(st.permutations([v // k for v in range(n)]))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    return (params, Configuration(slots, ell, k),
            draw(st.lists(pair, max_size=200)))


@settings(max_examples=200, deadline=None)
@given(streams((2,)), st.integers(1, 3))
def test_greedy_matches_scan_reference(case, lam):
    params, initial, pairs = case
    alg = GreedyMatcher(params, lam=lam)
    ref = ScanGreedyMatcher(params, lam)
    _lockstep(alg, ref, params, initial, pairs)
    assert pair_counts(alg.pairs) == ref.pair_counts
    assert alg.out_counts == ref.out_counts


@settings(max_examples=200, deadline=None)
@given(streams((2, 3, 4)))
def test_naive_matches_scan_reference(case):
    params, initial, pairs = case
    alg = NaiveCollocator(params)
    ref = ScanNaiveCollocator(params)
    _lockstep(alg, ref, params, initial, pairs)
    assert pair_counts(alg.pairs) == ref.pair_counts


def test_steps_do_no_full_rebuilds(monkeypatch):
    """No step makes a validating construction, which builds the member
    index, or a full placement snapshot: no read on the step path is
    O(n). A run takes one snapshot, the first assignment."""
    p = Params(4096, 2, 2048, alpha=2)
    counts = {"init": 0, "snapshot": 0}
    init = Configuration.__init__
    snapshot = Configuration.assignment.fget

    def counted_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counted_snapshot(self):
        counts["snapshot"] += 1
        return snapshot(self)

    monkeypatch.setattr(Configuration, "__init__", counted_init)
    monkeypatch.setattr(Configuration, "assignment", property(counted_snapshot))
    # on the chase both endpoint clusters of greedy trip together; on
    # random pairs one trips alone and greedy reads its partner's pairs
    for alg, src in ((NullAlgorithm(), PairChase(p, 10 ** 9)),
                     (NaiveCollocator(p), PairChase(p, 10 ** 9)),
                     (GreedyMatcher(p), PairChase(p, 10 ** 9)),
                     (GreedyMatcher(p, lam=1), RandomPairs(0, p.n, 300))):
        initial = contiguous_configuration(p)
        counts.update(init=0, snapshot=0)
        tr = engine.run(alg, src, p, initial, 300)
        assert len(tr.steps) == 300
        assert counts == {"init": 0, "snapshot": 1}, counts
        if not isinstance(alg, NullAlgorithm):
            assert tr.ledger.mig_total > 0   # it swapped
