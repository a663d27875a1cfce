"""Harness wiring: move slots, replay fidelity, ratio sentinels."""

import pytest

from repart.adversaries import RandomPairs, RingAdversary
from repart.core import Params, Request, contiguous_configuration
from repart.engine import (
    INFINITE,
    UNDEFINED,
    AdversaryStuck,
    NaiveCollocator,
    NullAlgorithm,
    Transcript,
    format_ratio,
    ratio,
    run,
)


class ScriptedSource:
    def __init__(self, pairs):
        self.pairs = list(pairs)
        self.cursor = 0

    def next(self, config):
        if self.cursor >= len(self.pairs):
            return None
        u, v = self.pairs[self.cursor]
        self.cursor += 1
        return Request(u, v)


class ScriptedAlgorithm:
    """Plays back a fixed move script keyed by step number."""

    def __init__(self, script):
        self.script = script

    def step(self, config, request):
        return self.script.get(request.t, ([], []))


def test_run_stamps_and_records():
    p = Params(4, 2, 2)
    src = ScriptedSource([(0, 2), (0, 1), (2, 3)])
    tr = run(NullAlgorithm(), src, p, contiguous_configuration(p), 10)
    assert [s.t for s in tr.steps] == [1, 2, 3]
    assert [(s.comm, s.mig) for s in tr.steps] == [(1, 0), (0, 0), (0, 0)]
    assert tr.ledger.comm_total == 1 and tr.ledger.mig_total == 0
    assert tr.requests() == [Request(0, 2, 1), Request(0, 1, 2), Request(2, 3, 3)]


def test_pre_moves_apply_before_the_serve():
    p = Params(4, 2, 2, alpha=2)
    init = contiguous_configuration(p)
    # collocating 0 and 2 first makes the request free
    alg = ScriptedAlgorithm({1: ([(2, 0), (1, 1)], [])})
    tr = run(alg, ScriptedSource([(0, 2)]), p, init, 5)
    assert (tr.ledger.comm_total, tr.ledger.mig_total) == (0, 4)
    # the same swap in the post slot pays for the serve
    alg = ScriptedAlgorithm({1: ([], [(2, 0), (1, 1)])})
    tr = run(alg, ScriptedSource([(0, 2)]), p, init, 5)
    assert (tr.ledger.comm_total, tr.ledger.mig_total) == (1, 4)


def test_run_stop_conditions():
    p = Params(4, 2, 2)
    src = ScriptedSource([(0, 2), (1, 3)])
    tr = run(NullAlgorithm(), src, p, contiguous_configuration(p), 50)
    assert len(tr.steps) == 2
    tr = run(NullAlgorithm(), ScriptedSource([(0, 2)] * 9), p,
             contiguous_configuration(p), 4)
    assert len(tr.steps) == 4  # max_steps cap


def test_adversary_stuck_propagates():
    p = Params(4, 4, 1)  # a single cluster leaves no ring edge split
    with pytest.raises(AdversaryStuck):
        run(NullAlgorithm(), RingAdversary(p), p,
            contiguous_configuration(p), 5)


def test_snapshot_cadence():
    p = Params(8, 2, 4)
    src = RandomPairs(3, 8, 130)
    tr = run(NullAlgorithm(), src, p, contiguous_configuration(p), 130)
    assert tr.snapshots == [(130, contiguous_configuration(p))]


def test_replay_matches_live_ledger():
    p = Params(6, 3, 2)
    src = RandomPairs(7, 6, 200)
    tr = run(NaiveCollocator(p), src, p, contiguous_configuration(p), 200)
    replayed = tr.replay()
    assert replayed.per_step == tr.ledger.per_step
    assert replayed.total == tr.ledger.total


def test_step_lines_shape():
    p = Params(6, 3, 2)
    src = ScriptedSource([(0, 3), (0, 3)])
    tr = run(NaiveCollocator(p), src, p, contiguous_configuration(p), 10)
    lines = tr.step_lines()
    assert lines[0] == "1,0,3,,1,0"
    # step two serves remotely then swaps 3 in and 1 out
    assert lines[1] == "2,0,3,/3>0;1>1,1,2"


def test_determinism():
    p = Params(8, 2, 4)

    def once():
        src = RandomPairs(42, 8, 150)
        return run(NaiveCollocator(p), src, p,
                   contiguous_configuration(p), 150).step_lines()

    assert once() == once()


def test_naive_collocator_swap_choice():
    p = Params(6, 3, 2)
    src = ScriptedSource([(0, 3), (0, 3)])
    tr = run(NaiveCollocator(p), src, p, contiguous_configuration(p), 10)
    final = tr.snapshots[-1][1]
    # 3 moves in with 0; the never-requested lowest id (node 1) is evicted
    assert tuple(final.assignment) == (0, 1, 0, 0, 1, 1)
    assert (tr.ledger.comm_total, tr.ledger.mig_total) == (2, 2)


def test_naive_collocator_threshold_scales_with_alpha():
    p = Params(6, 3, 2, alpha=3)
    src = ScriptedSource([(0, 3)] * 7)
    tr = run(NaiveCollocator(p), src, p, contiguous_configuration(p), 10)
    migs = [s.mig for s in tr.steps]
    assert migs == [0, 0, 0, 0, 0, 6, 0]  # swap fires on the 2*alpha-th hit


def test_observer_sees_every_step():
    p = Params(4, 2, 2)
    seen = []
    src = ScriptedSource([(0, 2), (1, 3), (0, 1)])
    run(NullAlgorithm(), src, p, contiguous_configuration(p), 10,
        observer=lambda t, config, req, comm, mig: seen.append((t, comm)))
    assert seen == [(1, 1), (2, 1), (3, 0)]


def test_ratio_sentinels():
    r = ratio(5, 2)
    assert r.numerator == 5 and r.denominator == 2
    assert ratio(0, 0) is UNDEFINED
    assert ratio(3, 0) == INFINITE
    assert format_ratio(ratio(6, 4)) == "3/2"
    assert format_ratio(ratio(0, 0)) == "undefined"
    assert format_ratio(ratio(3, 0)) == "inf"


def test_empty_transcript_replay():
    p = Params(4, 2, 2)
    tr = Transcript(params=p, initial=contiguous_configuration(p))
    assert tr.replay().total == 0
    assert tr.step_lines() == []
