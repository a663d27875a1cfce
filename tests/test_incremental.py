"""Incremental engine state against the rebuild-and-scan references.

`apply_moves` derives each configuration from its parent on one shared,
rerooted store; greedy and naive index their pair counters by node. Each
is run side by side with its reference from oracles.py on random inputs.
"""

import pytest
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
    """A placement and a chain of batches, each with a flag that probes
    `nodes_in` (building the member index) before the batch is applied.
    Nodes and clusters range one past each end, so some batches are
    invalid; repeated nodes and no-op moves come up on their own."""
    config, ell, _ = draw(placements())
    move = st.tuples(st.integers(-1, config.n), st.integers(-1, ell))
    batch = st.tuples(st.booleans(), st.lists(move, max_size=6))
    return config, draw(st.lists(batch, max_size=8))


def _same_placement(got, want):
    for c in range(want.cluster_count):
        assert got.occupancy(c) == want.occupancy(c)
        assert got.nodes_in(c) == scan_nodes_in(want, c)
    assert got == want
    assert got.canonical() == want.canonical()


@settings(max_examples=300, deadline=None)
@given(move_batches(), st.integers(1, 3))
def test_apply_moves_matches_rebuild(case, alpha):
    config, batches = case
    ref = config
    for probe, moves in batches:
        if probe:
            config.nodes_in(0)
        try:
            want = rebuild_apply_moves(ref, moves, alpha)
        except RepartError as exc:
            try:
                apply_moves(config, moves, alpha)
            except RepartError as got:
                assert type(got) is type(exc)
            else:
                raise AssertionError("%r accepted; reference raised %r"
                                     % (moves, exc))
            continue
        got = apply_moves(config, moves, alpha)
        assert got[1] == want[1]
        _same_placement(got[0], want[0])
        config, ref = got[0], want[0]


# each read of a version beside the same read of its rebuilt reference
_READS = {
    "cluster_of": (lambda c: [c.cluster_of(v) for v in range(c.n)],) * 2,
    "occupancy": (lambda c: [c.occupancy(x) for x in range(c.cluster_count)],) * 2,
    "nodes_in": (lambda c: [c.nodes_in(x) for x in range(c.cluster_count)],
                 lambda c: [scan_nodes_in(c, x) for x in range(c.cluster_count)]),
    "canonical": (Configuration.canonical,) * 2,
    "hash": (hash,) * 2,
}


@settings(max_examples=300, deadline=None)
@given(placements(), st.data())
def test_every_version_of_a_tree_reads_as_its_rebuild(placed, data):
    # batches branch off drawn earlier versions, and the reads then visit
    # the versions in a drawn order, each kind of read coming first at
    # some point, so the store is walked back and forth between siblings;
    # every version, and the parent of every rejected batch, must read as
    # its independent rebuild
    config, ell, _ = placed
    versions = [(config, config)]        # (version, rebuilt reference)
    move = st.tuples(st.integers(-1, config.n), st.integers(-1, ell))
    for _ in range(data.draw(st.integers(0, 10))):
        got, want = data.draw(st.sampled_from(versions))
        moves = data.draw(st.lists(move, max_size=6))
        if data.draw(st.booleans()):
            got.nodes_in(0)              # build the member index here
        try:
            child = rebuild_apply_moves(want, moves, 1)
        except RepartError as exc:
            with pytest.raises(type(exc)):
                apply_moves(got, moves, 1)
            _same_placement(got, want)
            continue
        out = apply_moves(got, moves, 1)
        assert out[1] == child[1]
        versions.append((out[0], child[0]))
    index = st.integers(0, len(versions) - 1)
    kind = st.sampled_from(sorted(_READS) + ["=="])
    for i, read, j in data.draw(st.lists(st.tuples(index, kind, index),
                                         max_size=20)):
        (got, want), (other, other_want) = versions[i], versions[j]
        if read == "==":
            assert (got == other) == (want == other_want)
        else:
            fn, ref = _READS[read]
            assert fn(got) == ref(want), read
    for i in data.draw(st.permutations(range(len(versions)))):
        _same_placement(*versions[i])


def test_rerooting_walks_a_long_chain_without_recursion():
    # a replay walks the store from the newest version back to the first
    p = Params(4, 2, 2)
    first = config = contiguous_configuration(p)
    for _ in range(5001):
        config, _ = apply_moves(config, [(1, 1), (2, 0)], p.alpha)
    assert config.assignment == (0, 1, 0, 1)
    assert first.assignment == (0, 0, 1, 1) and first.nodes_in(1) == [2, 3]
    assert config.nodes_in(0) == [0, 2] and config.occupancy(1) == 2


def _lockstep(alg, ref, params, initial, pairs):
    config = initial
    for t, (u, v) in enumerate(pairs, 1):
        req = Request(min(u, v), max(u, v), t)
        moves = alg.step(config, req)
        assert moves == ref.step(config, req), "step %d" % t
        config, _ = apply_moves(config, moves[0] + moves[1], params.alpha)
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
    """Validating constructions, full member-index builds and full
    placement snapshots happen a constant number of times per run, not
    once per step: no read on the step path is O(n)."""
    p = Params(4096, 2, 2048, alpha=2)
    counts = {"init": 0, "index": 0, "snapshot": 0}
    init, build = Configuration.__init__, Configuration._build_members
    snapshot = Configuration.assignment.fget

    def counted_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counted_build(self):
        counts["index"] += 1
        return build(self)

    def counted_snapshot(self):
        counts["snapshot"] += 1
        return snapshot(self)

    monkeypatch.setattr(Configuration, "__init__", counted_init)
    monkeypatch.setattr(Configuration, "_build_members", counted_build)
    monkeypatch.setattr(Configuration, "assignment", property(counted_snapshot))
    # on the chase both endpoint clusters of greedy trip together; on
    # random pairs one trips alone and greedy reads its partner's pairs
    for alg, src in ((NullAlgorithm(), PairChase(p, 10 ** 9)),
                     (NaiveCollocator(p), PairChase(p, 10 ** 9)),
                     (GreedyMatcher(p), PairChase(p, 10 ** 9)),
                     (GreedyMatcher(p, lam=1), RandomPairs(0, p.n, 300))):
        initial = contiguous_configuration(p)
        counts.update(init=0, index=0, snapshot=0)
        tr = engine.run(alg, src, p, initial, 300)
        assert len(tr.steps) == 300
        assert counts["init"] == 0 and counts["index"] <= 1, counts
        assert counts["snapshot"] == 0, counts
        if not isinstance(alg, NullAlgorithm):
            assert tr.ledger.mig_total > 0   # it swapped
