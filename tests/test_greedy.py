"""Greedy rematcher for size-two clusters."""

import pytest

from oracles import pair_counts
from repart.adversaries import RandomPairs, TraceSource
from repart.core import GeometryError, Params, Request, contiguous_configuration
from repart.engine import run
from repart.greedy import DEFAULT_LAM, GreedyMatcher


def _chant(pairs):
    return TraceSource([Request(u, v) for u, v in pairs])


def test_geometry_guards():
    with pytest.raises(GeometryError):
        GreedyMatcher(Params(6, 3, 2))
    with pytest.raises(GeometryError):
        GreedyMatcher(Params(4, 2, 2, delta=2))
    with pytest.raises(GeometryError):
        GreedyMatcher(Params(4, 2, 2), lam=0)
    assert DEFAULT_LAM == 3


def test_swap_fires_on_lam_alpha_th_remote_request():
    p = Params(4, 2, 2)
    alg = GreedyMatcher(p, lam=3)
    tr = run(alg, _chant([(0, 2)] * 3), p, contiguous_configuration(p), 10)
    assert [(s.comm, s.mig) for s in tr.steps] == [(1, 0), (1, 0), (1, 2)]
    final = tr.snapshots[-1][1]
    assert tuple(final.assignment) == (0, 1, 0, 1)  # 2 joins 0, 1 takes its slot
    # the triggering request was still served remotely: total 3 + 2
    assert tr.ledger.total == 5


def test_partner_cluster_is_hottest_by_pair_sum():
    p = Params(6, 2, 3)
    alg = GreedyMatcher(p, lam=3)
    tr = run(alg, _chant([(0, 2), (0, 2), (0, 4)]), p,
             contiguous_configuration(p), 10)
    final = tr.snapshots[-1][1]
    # cluster 0 triggers; cluster 1 wins on pair traffic 2 vs 1, so the
    # hottest cross pair (0, 2) is collocated even though (0, 4) fired last
    assert tuple(final.assignment) == (0, 1, 0, 1, 2, 2)


def test_counters_reset_only_around_the_swap():
    p = Params(8, 2, 4)
    alg = GreedyMatcher(p, lam=4)
    sigma = [(0, 4), (0, 6), (2, 4), (2, 6), (4, 6), (0, 2), (0, 2)]
    tr = run(alg, _chant(sigma), p, contiguous_configuration(p), 10)
    final = tr.snapshots[-1][1]
    assert tuple(final.assignment) == (0, 1, 0, 1, 2, 2, 3, 3)
    # clusters 0 and 1 both reach the quantum on the last request; the lower
    # one swaps with its traffic leader and both lose their tallies, while
    # bystander clusters 2 and 3 and the untouched pair (4, 6) keep theirs
    assert alg.out_counts == {2: 3, 3: 3}
    assert pair_counts(alg.pairs) == {(4, 6): 1}


def test_out_counters_never_exceed_quantum():
    for lam in (1, 2, 3):
        for alpha in (1, 2):
            p = Params(8, 2, 4, alpha=alpha)
            alg = GreedyMatcher(p, lam=lam)
            cap = lam * alpha

            def check(t, config, req, comm, mig, alg=alg, cap=cap):
                assert all(w <= cap for w in alg.out_counts.values())
                assert all(w <= cap for w in pair_counts(alg.pairs).values())

            run(alg, RandomPairs(lam * 10 + alpha, 8, 400), p,
                contiguous_configuration(p), 400, observer=check)


def test_at_most_one_swap_per_step():
    p = Params(8, 2, 4)
    alg = GreedyMatcher(p, lam=2)
    tr = run(alg, RandomPairs(9, 8, 300), p, contiguous_configuration(p), 300)
    assert all(len(s.pre_moves) == 0 for s in tr.steps)
    assert all(len(s.post_moves) in (0, 2) for s in tr.steps)
    assert all(s.mig in (0, 2 * p.alpha) for s in tr.steps)
