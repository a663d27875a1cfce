"""Harness wiring: move slots, replay fidelity, ratio sentinels."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_run
from repart import cli
from repart.adversaries import PairChase, RandomPairs, RingAdversary
from repart.core import (
    Configuration,
    Params,
    RepartError,
    Request,
    contiguous_configuration,
)
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
    # the same swap in the post slot pays for the serve; run moved init,
    # so the second run starts from a fresh placement
    alg = ScriptedAlgorithm({1: ([], [(2, 0), (1, 1)])})
    tr = run(alg, ScriptedSource([(0, 2)]), p, contiguous_configuration(p), 5)
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


def _live_configurations():
    gc.collect()
    return sum(isinstance(o, Configuration) for o in gc.get_objects())


def test_a_run_moves_the_one_placement_it_is_given():
    # a swap every few steps: the run makes no configuration, and the
    # transcript holds only the first assignment and the moved placement
    p = Params(64, 2, 32, alpha=2)
    initial = contiguous_configuration(p)
    before = initial.assignment
    live = _live_configurations()
    tr = run(NaiveCollocator(p), PairChase(p, 10 ** 9), p, initial, 3000)
    assert _live_configurations() == live
    assert len(tr.steps) == 3000 and tr.ledger.mig_total > 0
    assert tr.snapshots[-1][1] is initial
    assert initial.assignment != before
    assert tr.initial == Configuration(before, p.ell, p.k)
    assert tr.initial is not tr.initial
    for _ in range(2):
        replayed = tr.replay()
        assert (replayed.comm_total, replayed.mig_total, replayed.per_step) == (
            tr.ledger.comm_total, tr.ledger.mig_total, tr.ledger.per_step)


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
    tr = Transcript(p, (0, 0, 1, 1), p.ell, p.k)
    assert tr.replay().total == 0
    assert tr.step_lines() == []


class RandomSwaps:
    """Swaps two random nodes before the serve, after it, both or neither;
    a swap within one cluster moves nothing."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def step(self, config, request):
        nodes = self.rng.sample(range(config.n), 4)
        slots = []
        for x, y in (nodes[:2], nodes[2:]):
            cx, cy = config.cluster_of(x), config.cluster_of(y)
            slots.append([(x, cy), (y, cx)] if self.rng.random() < 0.3 else [])
        return slots[0], slots[1]


@st.composite
def run_specs(draw):
    alg = draw(st.sampled_from(("null", "naive", "greedy", "components",
                                "swaps")))
    source = draw(st.sampled_from(("random", "planted", "ring", "pair_chase")))
    k = 2 if alg == "greedy" or source == "pair_chase" else draw(st.integers(2, 4))
    ell = draw(st.integers(2, 4))
    return cli.RunSpec(alg=alg, source=source, n=k * ell, k=k, l=ell,
                       alpha=draw(st.integers(1, 3)), lam=draw(st.integers(1, 6)),
                       seed=draw(st.integers(0, 99)),
                       steps=draw(st.integers(0, 150)), oracle="none")


def _outcome(runner, spec):
    """What a run shows: its records, ledger, final placement and the
    observer's view of every step, or the error that stopped it."""
    initial = cli.initial_for(spec)
    if spec.alg == "swaps":
        alg = RandomSwaps(spec.seed)
    else:
        alg = cli.make_algorithm(spec, initial)
    start = alg.start if spec.alg == "components" else initial
    seen = []

    def observer(t, config, req, comm, mig):
        seen.append((t, req, comm, mig, config.assignment))

    try:
        tr = runner(alg, cli.make_source(spec), spec.params(), start,
                    spec.steps, observer=observer)
    except RepartError as exc:
        return type(exc), str(exc), seen
    ledger = tr.ledger
    return (tr.steps, ledger.comm_total, ledger.mig_total, ledger.per_step,
            tr.snapshots[-1][1].canonical(), seen)


@settings(max_examples=200, deadline=None)
@given(run_specs())
def test_run_matches_the_plain_loop(spec):
    # binding the callees once and skipping empty batches change no step
    if spec.alg != "swaps":
        spec.validate()
    assert _outcome(run, spec) == _outcome(reference_run, spec)
