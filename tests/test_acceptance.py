"""Acceptance suite: one test, and one verdict line, per shipping criterion.

Every bound asserted here is exact (integer or Fraction); nothing is
approximated with floats. The component grid (criteria 5 and 7) runs once
in a shared fixture.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import exhaustive_optimal, naive_epoch_set, naive_merge_set, \
    random_component_graph
from repart import adversaries as adv
from repart.components import (
    ComponentRepartitioner,
    find_epoch_set,
    find_merge_set,
)
from repart.core import Params, Request, apply_moves, contiguous_configuration, \
    serve_cost
from repart.engine import NaiveCollocator, NullAlgorithm, run
from repart.greedy import GreedyMatcher
from repart.offline import (
    PartitionSpace,
    optimal_cost,
    reference_strategies_k2,
    static_optimal,
)


def _verdict(num, ok, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


# -- criterion 1: the greedy rematcher stays within 7x of optimal ------------


def test_criterion_1_greedy_within_seven_times_optimal():
    started = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    worst = Fraction(0)

    spaces = {}
    for n in (4, 6):
        for alpha in (1, 2):
            spaces[(n, alpha)] = PartitionSpace(Params(n, 2, n // 2, alpha=alpha))

    def check(params, source):
        nonlocal checked, worst
        alg = GreedyMatcher(params, lam=3)
        initial = contiguous_configuration(params)
        tr = run(alg, source, params, initial, 40)
        off, _ = optimal_cost(tr.requests(), params, initial,
                              spaces[(params.n, params.alpha)])
        assert tr.ledger.total <= 7 * off, (params, tr.ledger.total, off)
        if off > 0:
            worst = max(worst, Fraction(tr.ledger.total, off))
        checked += 1

    for n in (4, 6):
        for alpha in (1, 2):
            params = Params(n, 2, n // 2, alpha=alpha)
            for seed in range(120):
                steps = rng.randint(5, 40)
                check(params, adv.RandomPairs(seed, n, steps))
            for phases in range(1, 6):
                check(params, adv.PairChase(params, phases=phases))

    elapsed = time.monotonic() - started
    _verdict(1, checked >= 500 and elapsed < 60.0,
             "%d instances, worst ratio %s, %.1fs" % (checked, worst, elapsed))


# -- criterion 2: the chase family pushes greedy toward ratio 3 --------------


def test_criterion_2_chase_ratio_approaches_three():
    expected = {
        5: (25, (9, 8, 10)),
        10: (50, (15, 17, 20)),
        20: (100, (30, 32, 40)),
    }
    details = []
    for lam, (on_expected, refs_expected) in expected.items():
        params = Params(4, 2, 2, alpha=1)
        src = adv.PairChase(params, phases=lam)
        alg = GreedyMatcher(params, lam=3)
        tr = run(alg, src, params, contiguous_configuration(params), 10_000)
        refs = reference_strategies_k2(src.profile, 1)
        assert src.profile == [3] * lam
        assert tr.ledger.total == on_expected
        assert refs == refs_expected
        ratio = Fraction(tr.ledger.total, min(refs))
        bound = Fraction(3 * lam - 1, lam)
        assert ratio >= bound, (lam, ratio, bound)
        details.append("%d phases: %s >= %s" % (lam, ratio, bound))
    _verdict(2, True, "; ".join(details))


# -- criterion 3: threshold collocators trail the optimum --------------------


def test_criterion_3_threshold_baselines_trail_optimal():
    # the grouped-phase stream against the 2*alpha threshold baseline
    params = Params(6, 3, 2, alpha=1)
    initial = adv.group_phases_initial(params)
    src = adv.GroupPhases(params)
    tr = run(NaiveCollocator(params), src, params, initial, 100)
    off, _ = optimal_cost(tr.requests(), params, initial)
    assert (tr.ledger.total, off) == (9, 2)
    assert Fraction(9, 2) >= Fraction(7, 2)

    # the pair chase against greedy on one phase
    params = Params(4, 2, 2, alpha=1)
    initial = contiguous_configuration(params)
    src = adv.PairChase(params, phases=1)
    tr = run(GreedyMatcher(params, lam=3), src, params, initial, 100)
    off, _ = optimal_cost(tr.requests(), params, initial)
    assert (tr.ledger.total, off) == (5, 2)
    assert Fraction(5, 2) >= 2
    _verdict(3, True, "9/2 >= 7/2 and 5/2 >= 2")


# -- criterion 4: the ring stream keeps components near k times optimal ------


def test_criterion_4_ring_pressure_on_components():
    params = Params(10, 2, 5, alpha=1, delta=4)
    t = 100 * params.k * params.alpha * params.n
    alg = ComponentRepartitioner(params, contiguous_configuration(params))
    tr = run(alg, adv.RingAdversary(params), params, alg.start, t)
    assert len(tr.steps) == t

    # every request was split at emission time: replay the configuration
    # the source saw, before that step's moves landed
    config = tr.initial
    for s in tr.steps:
        assert serve_cost(config, Request(s.u, s.v, s.t)) == 1
        config, _ = apply_moves(config, s.pre_moves, params.alpha)
        config, _ = apply_moves(config, s.post_moves, params.alpha)

    assert (tr.ledger.comm_total, tr.ledger.mig_total) == (1500, 750)
    offline_cap = t // params.k + params.alpha * params.n
    ratio = Fraction(tr.ledger.total, offline_cap)
    bound = Fraction(98 * params.k, 100)
    assert ratio >= bound
    _verdict(4, True, "all %d requests split at emission, %s >= %s"
             % (t, ratio, bound))


# -- criteria 5 and 7: the component grid -------------------------------------


GRID_STEPS = 10_000


@pytest.fixture(scope="module")
def component_grid():
    invariant_failures = []
    residual_failures = []
    cells = 0
    for k in (2, 3, 4):
        for ell in (2, 4):
            for alpha in (1, 3):
                for kind in ("random", "planted"):
                    n = k * ell
                    params = Params(n, k, ell, alpha=alpha, delta=4)
                    seed = 1000 * k + 100 * ell + 10 * alpha + (kind == "planted")
                    if kind == "random":
                        src = adv.RandomPairs(seed, n, GRID_STEPS)
                    else:
                        src = adv.PlantedPartition(seed, params, 0.9, 0.1,
                                                   steps=GRID_STEPS)
                    alg = ComponentRepartitioner(
                        params, contiguous_configuration(params))
                    cell = (k, ell, alpha, kind)

                    def observe(t, config, req, comm, mig,
                                alg=alg, cell=cell):
                        errs = alg.check_invariants(config)
                        if errs:
                            invariant_failures.append((cell, t, errs[:3]))
                        if alg.residual_merge_set():
                            residual_failures.append((cell, t))

                    tr = run(alg, src, params, alg.start, GRID_STEPS,
                             observer=observe)
                    assert len(tr.steps) == GRID_STEPS
                    cells += 1
    return cells, invariant_failures, residual_failures


def test_criterion_5_component_invariants_hold(component_grid):
    cells, invariant_failures, _ = component_grid
    _verdict(5, cells == 24 and not invariant_failures,
             "%d cells x %d steps, %d violations"
             % (cells, GRID_STEPS, len(invariant_failures)))


def test_criterion_7_no_qualifying_merge_survives(component_grid):
    cells, _, residual_failures = component_grid
    _verdict(7, cells == 24 and not residual_failures,
             "%d cells, %d leftover merge sets"
             % (cells, len(residual_failures)))


# -- criterion 6: oracle agreement --------------------------------------------


def test_criterion_6_oracles_agree():
    rng = random.Random(77)
    dp_checked = 0
    for alpha in (1, 2):
        params = Params(4, 2, 2, alpha=alpha)
        space = PartitionSpace(params)
        initial = contiguous_configuration(params)
        for _ in range(50):
            sigma = []
            for _ in range(rng.randint(0, 6)):
                u, v = rng.sample(range(4), 2)
                sigma.append(Request(min(u, v), max(u, v)))
            total, _ = optimal_cost(sigma, params, initial, space)
            assert total == exhaustive_optimal(sigma, params, initial, space)
            stat, _ = static_optimal(sigma, params, initial, space)
            assert total <= stat
            dp_checked += 1

    graphs_checked = 0
    for _ in range(1000):
        k = rng.randint(2, 5)
        alpha = rng.randint(1, 3)
        sizes, weights = random_component_graph(rng, k)
        assert find_merge_set(sizes, weights, k, alpha) == \
            naive_merge_set(sizes, weights, k, alpha)
        assert find_epoch_set(sizes, weights, k, alpha) == \
            naive_epoch_set(sizes, weights, k, alpha)
        graphs_checked += 1

    _verdict(6, dp_checked >= 100 and graphs_checked >= 1000,
             "%d schedules, %d search graphs" % (dp_checked, graphs_checked))


# -- criterion 8: the paging reduction emits the advertised stream ------------


def test_criterion_8_paging_reduction_structure():
    rng = random.Random(8)
    sequences = 0
    for alpha in (1, 2, 3):
        params = Params(8, 4, 2, alpha=alpha)
        dummy = params.k
        for _ in range(15):
            seq = [rng.randrange(params.k) for _ in range(rng.randint(1, 8))]
            src = adv.PagingStream(params, seq)
            tr = run(NullAlgorithm(), src, params,
                     adv.paging_initial(params), 10_000)
            m = len(seq)
            assert len(tr.steps) == (2 * alpha + 1) * m + alpha * (m - 1)
            assert all(dummy in (s.u, s.v) for s in tr.steps)
            sequences += 1
    _verdict(8, sequences == 45, "%d sequences with exact counts" % sequences)
