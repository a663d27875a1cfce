"""Incremental engine state against the rebuild-and-scan references.

`apply_moves` derives each configuration from its parent, carrying the
member index; greedy and naive index their pair counters by node. Each is run side by side with its reference from
oracles.py on random inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ScanGreedyMatcher,
    ScanNaiveCollocator,
    rebuild_apply_moves,
    scan_nodes_in,
)
from repart import engine
from repart.adversaries import PairChase
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
    assert got == want
    assert got.canonical() == want.canonical()
    for c in range(want.cluster_count):
        assert got.occupancy(c) == want.occupancy(c)
        assert got.nodes_in(c) == scan_nodes_in(want, c)


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
    assert alg.pair_counts == ref.pair_counts
    assert alg.out_counts == ref.out_counts


@settings(max_examples=200, deadline=None)
@given(streams((2, 3, 4)))
def test_naive_matches_scan_reference(case):
    params, initial, pairs = case
    alg = NaiveCollocator(params)
    ref = ScanNaiveCollocator(params)
    _lockstep(alg, ref, params, initial, pairs)
    assert alg.pairs.as_dict() == ref.pair_counts


def test_steps_do_no_full_rebuilds(monkeypatch):
    """Validating constructions and full member-index builds happen a
    constant number of times per run, not once per step."""
    p = Params(4096, 2, 2048, alpha=2)
    counts = {"init": 0, "index": 0}
    init, build = Configuration.__init__, Configuration._build_members

    def counted_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counted_build(self):
        counts["index"] += 1
        return build(self)

    monkeypatch.setattr(Configuration, "__init__", counted_init)
    monkeypatch.setattr(Configuration, "_build_members", counted_build)
    for alg in (NullAlgorithm(), NaiveCollocator(p)):
        initial = contiguous_configuration(p)
        counts.update(init=0, index=0)
        tr = engine.run(alg, PairChase(p, 10 ** 9), p, initial, 300)
        assert len(tr.steps) == 300
        assert counts["init"] == 0 and counts["index"] <= 1, counts
    assert tr.ledger.mig_total > 0   # naive swapped along the chase
