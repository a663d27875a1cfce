"""Request sources: deterministic constructions, random streams, traces."""

import math
import random

import pytest

from oracles import order_preserving_partition
from repart.adversaries import (
    BadProbability,
    GroupPhases,
    MalformedPagingSequence,
    NodeOutOfRange,
    PagingStream,
    PairChase,
    ParseError,
    PlantedPartition,
    RandomPairs,
    RingAdversary,
    TraceSource,
    group_phases_initial,
    paging_initial,
    parse_trace,
)
from repart.components import ComponentRepartitioner
from repart.core import (GeometryError, Params, Request,
                         contiguous_configuration, new_configuration)
from repart.engine import AdversaryStuck, NaiveCollocator, NullAlgorithm, run
from repart.greedy import GreedyMatcher


class Scripted:
    """Plays back a fixed move script keyed by step number."""

    def __init__(self, script):
        self.script = script

    def step(self, config, request):
        return self.script.get(request.t, ([], []))


# -- ring --------------------------------------------------------------------


def test_ring_requests_the_first_cut_edge():
    p = Params(4, 2, 2)
    src = RingAdversary(p)
    config = contiguous_configuration(p)
    req = src.next(config)
    assert (req.u, req.v) == (1, 2)   # {0,1} is internal, {1,2} is the cut
    # the stream is memoryless: the same configuration repeats the edge
    req = src.next(config)
    assert (req.u, req.v) == (1, 2)


def test_ring_stuck_when_fully_collocated():
    p = Params(4, 4, 1)
    with pytest.raises(AdversaryStuck):
        RingAdversary(p).next(contiguous_configuration(p))


def test_order_preserving_rotations_tile_the_ring():
    for n, k in ((10, 2), (9, 3), (12, 4)):
        cuts = []
        for m in range(1, k + 1):
            blocks = order_preserving_partition(n, k, m)
            assert sorted(x for b in blocks for x in b) == list(range(n))
            assert all(len(b) == k for b in blocks)
            block_of = {x: i for i, b in enumerate(blocks) for x in b}
            cuts.append({i for i in range(1, n + 1)
                         if block_of[(i - 1) % n] != block_of[i % n]})
        # every ring edge is cut by exactly one rotation
        assert sorted(x for c in cuts for x in c) == list(range(1, n + 1))
    with pytest.raises(GeometryError):
        order_preserving_partition(10, 3, 1)
    with pytest.raises(GeometryError):
        order_preserving_partition(10, 2, 3)


def test_rotation_serves_split_the_stream_cost():
    # any request stream of ring edges pays, per step, exactly one of the
    # k rotations: their serve costs sum to the stream length
    p = Params(9, 3, 3)
    tr = run(NullAlgorithm(), RingAdversary(p), p,
             contiguous_configuration(p), 100)
    sigma = tr.requests()
    total = 0
    for m in (1, 2, 3):
        blocks = order_preserving_partition(9, 3, m)
        block_of = {x: i for i, b in enumerate(blocks) for x in b}
        total += sum(1 for r in sigma if block_of[r.u] != block_of[r.v])
    assert total == len(sigma)


# -- grouped phases ----------------------------------------------------------


def test_group_phases_initial_layout():
    config = group_phases_initial(Params(6, 3, 2))
    assert tuple(config.assignment) == (1, 0, 0, 0, 1, 1)
    with pytest.raises(GeometryError):
        group_phases_initial(Params(12, 3, 4))


def test_group_phases_against_threshold_collocator():
    p = Params(6, 3, 2)
    src = GroupPhases(p)
    tr = run(NaiveCollocator(p), src, p, group_phases_initial(p), 100)
    assert [(s.u, s.v) for s in tr.steps] == \
        [(0, 1), (0, 1), (1, 2), (0, 2), (1, 2)]
    assert src.profile == [2, 3]
    assert tr.ledger.total == 9
    # k - 1 phases exhausted: the stream ends, and stays ended
    assert src.next(tr.snapshots[-1][1]) is None
    assert src.next(group_phases_initial(p)) is None


def test_group_phases_at_k_1_plays_phase_1_only():
    p = Params(2, 1, 2)
    # nodes 0 and 1 can never share a one-node cluster, so phase 1 runs on
    tr = run(NullAlgorithm(), GroupPhases(p), p, group_phases_initial(p), 20)
    assert [(s.u, s.v) for s in tr.steps] == [(0, 1)] * 20
    # once they do share a (wider) cluster, phase 1 is over and so is the
    # stream
    src = GroupPhases(p)
    together = new_configuration([0, 0], 2, 2)
    assert src.next(together) is None
    assert src.next(group_phases_initial(p)) is None
    assert src.profile == [0]


def test_group_phases_drops_node_zero_after_a_cheap_phase():
    p = Params(6, 3, 2)
    src = GroupPhases(p)
    init = group_phases_initial(p)
    # collocate {0,1} on the very first request (one move each way), below
    # the 2*alpha bar, after which node 0 never appears again
    alg = Scripted({1: ([(0, 0), (2, 1)], [])})
    tr = run(alg, src, p, init, 6)
    assert [(s.u, s.v) for s in tr.steps] == \
        [(0, 1), (1, 2), (1, 2), (1, 2), (1, 2), (1, 2)]
    assert src.dropped is True
    assert src.profile == [1]   # phase 2 keeps running, 0 stays exiled


# -- pair chase --------------------------------------------------------------


def test_pair_chase_follows_the_evicted_mate():
    p = Params(4, 2, 2)
    src = PairChase(p, phases=3)
    alg = GreedyMatcher(p, lam=3)
    tr = run(alg, src, p, contiguous_configuration(p), 100)
    # each collocation is chased through the node swapped out last
    assert [(s.u, s.v) for s in tr.steps] == \
        [(0, 2)] * 3 + [(2, 3)] * 3 + [(1, 3)] * 3
    assert src.profile == [3, 3, 3]
    assert tr.ledger.total == 15
    assert src.next(tr.snapshots[-1][1]) is None    # exhausted, not stuck


def test_pair_chase_geometry_and_stuck():
    with pytest.raises(GeometryError):
        PairChase(Params(6, 3, 2), phases=1)
    with pytest.raises(GeometryError):
        PairChase(Params(4, 2, 2), phases=0)
    p = Params(2, 2, 1)
    with pytest.raises(AdversaryStuck):
        PairChase(p, phases=1).next(contiguous_configuration(p))


# -- paging reduction --------------------------------------------------------


def test_paging_initial_layout():
    config = paging_initial(Params(8, 4, 2))
    # items 0..2 sit with the dummy (node 4); item 3 sits opposite
    assert tuple(config.assignment) == (0, 0, 0, 1, 0, 1, 1, 1)


def test_paging_stream_shape():
    p = Params(8, 4, 2, alpha=2)
    src = PagingStream(p, [3, 0])
    tr = run(NullAlgorithm(), src, p, paging_initial(p), 100)
    # 2*alpha + 1 requests per item, alpha separators between items
    assert [(s.u, s.v) for s in tr.steps] == [(3, 4)] * 5 + [(0, 4)] * 7
    assert len(tr.steps) == (2 * 2 + 1) * 2 + 2 * (2 - 1)
    assert all(4 in (s.u, s.v) for s in tr.steps)


def test_paging_stream_counts_for_longer_sequences():
    rng = random.Random(6)
    for alpha in (1, 3):
        p = Params(8, 4, 2, alpha=alpha)
        seq = [rng.randrange(4) for _ in range(rng.randint(1, 7))]
        src = PagingStream(p, seq)
        tr = run(NullAlgorithm(), src, p, paging_initial(p), 1000)
        m = len(seq)
        assert len(tr.steps) == (2 * alpha + 1) * m + alpha * (m - 1)
        assert all(4 in (s.u, s.v) for s in tr.steps)


def test_paging_sequence_validation():
    p = Params(8, 4, 2)
    with pytest.raises(MalformedPagingSequence):
        PagingStream(p, [0, 4])          # the dummy is not an item
    with pytest.raises(MalformedPagingSequence):
        PagingStream(p, [-1])
    with pytest.raises(MalformedPagingSequence):
        PagingStream(p, [True])
    with pytest.raises(MalformedPagingSequence):
        PagingStream(p, ["0"])
    assert PagingStream(p, []).next(paging_initial(p)) is None


def test_paging_stuck_without_a_separator_candidate():
    p = Params(8, 4, 2)
    src = PagingStream(p, [0, 1])
    src.mains_left = 0                   # jump straight to the separator
    # a configuration where only padding shares the dummy's cluster
    config = contiguous_configuration(p)  # dummy 4 sits with 5, 6, 7
    with pytest.raises(AdversaryStuck):
        src.next(config)


# -- random streams ----------------------------------------------------------


def test_random_pairs_shape_and_determinism():
    first, second = RandomPairs(5, 9, 50), RandomPairs(5, 9, 50)
    a = [first.next(None) for _ in range(50)]
    b = [second.next(None) for _ in range(50)]
    assert [(r.u, r.v) for r in a] == [(r.u, r.v) for r in b]
    assert all(0 <= r.u < r.v < 9 for r in a)
    assert first.next(None) is None      # the length budget is spent


def test_planted_partition_probability_guards():
    p = Params(8, 2, 4)
    with pytest.raises(BadProbability):
        PlantedPartition(0, p, 1.5, 0.1)
    with pytest.raises(BadProbability):
        PlantedPartition(0, p, 0.5, -0.1)
    with pytest.raises(BadProbability):
        PlantedPartition(0, p, 0.0, 0.0)
    # one big group has no inter pair to draw from
    with pytest.raises(BadProbability):
        PlantedPartition(0, Params(4, 4, 1), 0.0, 1.0)


def test_planted_partition_degenerate_rates():
    p = Params(8, 2, 4)
    intra = PlantedPartition(1, p, 0.7, 0.0, steps=100)
    inter = PlantedPartition(1, p, 0.0, 0.3, steps=100)
    for _ in range(100):
        r = intra.next(None)
        assert r.u // 2 == r.v // 2
        r = inter.next(None)
        assert r.u // 2 != r.v // 2


def test_planted_partition_intra_rate_matches_expectation():
    # 4 intra pairs at weight 0.9 vs 24 inter pairs at weight 0.1 puts
    # the intra rate at 3.6 / 6.0; a two-cell goodness-of-fit test on a
    # fixed seed must not reject
    p = Params(8, 2, 4)
    src = PlantedPartition(0, p, 0.9, 0.1, steps=30000)
    draws = 30000
    intra = sum(1 for _ in range(draws)
                if (lambda r: r.u // 2 == r.v // 2)(src.next(None)))
    chi2 = sum((got - want) ** 2 / want for got, want in
               ((intra, 0.6 * draws), (draws - intra, 0.4 * draws)))
    # the chi-square tail at one degree of freedom
    assert math.erfc(math.sqrt(chi2 / 2)) > 0.01


def test_planted_partition_runs_forever_without_steps():
    p = Params(4, 2, 2)
    src = PlantedPartition(3, p, 0.9, 0.1)
    assert all(src.next(None) is not None for _ in range(500))


# -- traces ------------------------------------------------------------------


def test_trace_source_replays_in_order():
    src = TraceSource([Request(0, 1), Request(2, 3)])
    assert (src.next(None).u, src.next(None).u) == (0, 2)
    assert src.next(None) is None


def test_parse_trace_formats(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("0,1\n\n 2 , 0 \n7,3,2\n")
    src = parse_trace(str(path), 4)
    got = [(r.u, r.v) for r in src.requests]
    assert got == [(0, 1), (0, 2), (2, 3)]   # t field ignored, pairs sorted


def test_parse_trace_errors(tmp_path):
    cases = (
        ("0,1\n0,1,2,3\n", ParseError, "line 2"),
        ("x,1\n", ParseError, "line 1"),
        ("0,1\n\n2,2\n", ParseError, "line 3"),
        ("0,9\n", NodeOutOfRange, "line 1"),
    )
    for text, exc, needle in cases:
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(exc) as info:
            parse_trace(str(path), 4)
        assert needle in str(info.value)


# -- sources driving the component algorithm ---------------------------------


def test_ring_keeps_pressure_on_components():
    p = Params(10, 2, 5, delta=4)
    alg = ComponentRepartitioner(p, contiguous_configuration(p))
    tr = run(alg, RingAdversary(p), p, alg.start, 300)
    assert len(tr.steps) == 300
    assert alg.check_invariants(tr.snapshots[-1][1]) == []
