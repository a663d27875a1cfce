"""Offline oracles: state space, dynamic program, bracketing strategies.

The memoised rows of transition costs, the neighbour masks built from row 0
by relabeling nodes, the work function's bitmask sweep and the
pair-counting static optimum are checked against the pairwise, per-row and
full-scan references in oracles.py.
"""

import itertools
import operator
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    closed_vectors,
    exhaustive_optimal,
    full_scan_optimal_cost,
    pairwise_transitions,
    serve_scan_static_optimal,
    transition_matrix,
)
from repart.core import Params, Request, TooLarge, contiguous_configuration, \
    min_migration_cost, new_configuration, serve_cost
from repart import offline
from repart.offline import (
    PARTITION_CAP,
    MalformedProfile,
    PartitionSpace,
    WorkFunction,
    enumerate_partitions,
    optimal_cost,
    partition_count,
    partition_of_configuration,
    reference_strategies_k2,
    static_optimal,
)


def test_partition_counts():
    assert partition_count(4, 2, 2) == 3
    assert partition_count(6, 2, 3) == 15
    assert partition_count(6, 3, 2) == 10
    assert partition_count(4, 4, 1) == 1
    for n, k, ell in ((4, 2, 2), (6, 2, 3), (6, 3, 2), (4, 4, 1)):
        assert len(enumerate_partitions(n, k, ell)) == partition_count(n, k, ell)


def test_enumerate_partitions_shape():
    parts = enumerate_partitions(6, 3, 2)
    assert len(set(parts)) == 10
    for p in parts:
        flat = sorted(x for block in p for x in block)
        assert flat == list(range(6))
        assert all(block == tuple(sorted(block)) for block in p)
    with pytest.raises(TooLarge):
        enumerate_partitions(5, 2, 2)
    with pytest.raises(TooLarge):
        enumerate_partitions(16, 4, 4)  # above the state cap


def test_partition_of_configuration():
    config = new_configuration([1, 0, 1, 0], 2, 2)
    assert partition_of_configuration(config) == ((0, 2), (1, 3))


def test_state_of_rejects_unbalanced():
    space = PartitionSpace(Params(4, 2, 2))
    with pytest.raises(TooLarge):
        space.state_of(new_configuration([0, 0, 0, 1], 2, 3))


def _random_requests(rng, n, count):
    out = []
    for _ in range(count):
        u, v = rng.sample(range(n), 2)
        out.append(Request(min(u, v), max(u, v)))
    return out


def test_dp_matches_exhaustive():
    rng = random.Random(0)
    for alpha in (1, 2):
        p = Params(4, 2, 2, alpha=alpha)
        space = PartitionSpace(p)
        initial = contiguous_configuration(p)
        for _ in range(20):
            sigma = _random_requests(rng, 4, rng.randint(0, 6))
            total, _ = optimal_cost(sigma, p, initial, space)
            assert total == exhaustive_optimal(sigma, p, initial, space)


def test_dp_schedule_is_consistent():
    rng = random.Random(1)
    p = Params(6, 2, 3, alpha=2)
    space = PartitionSpace(p)
    initial = contiguous_configuration(p)
    for _ in range(10):
        sigma = _random_requests(rng, 6, 8)
        total, schedule = optimal_cost(sigma, p, initial, space)
        assert len(schedule) == len(sigma) + 1
        assert schedule[0] == partition_of_configuration(initial)
        # re-price the schedule independently
        cost = 0
        configs = [new_configuration(
            {x: c for c, block in enumerate(part) for x in block}, 3, 2)
            for part in schedule]
        for i, req in enumerate(sigma):
            cost += min_migration_cost(configs[i], configs[i + 1], p.alpha)
            cost += serve_cost(configs[i + 1], req)
        assert cost == total


def test_static_upper_bounds_dp():
    rng = random.Random(2)
    p = Params(6, 3, 2)
    space = PartitionSpace(p)
    initial = contiguous_configuration(p)
    for _ in range(15):
        sigma = _random_requests(rng, 6, 12)
        dyn, _ = optimal_cost(sigma, p, initial, space)
        stat, _ = static_optimal(sigma, p, initial, space)
        assert dyn <= stat


def test_dp_monotone_in_prefix():
    rng = random.Random(3)
    p = Params(4, 2, 2)
    space = PartitionSpace(p)
    initial = contiguous_configuration(p)
    sigma = _random_requests(rng, 4, 10)
    costs = [optimal_cost(sigma[:i], p, initial, space)[0]
             for i in range(len(sigma) + 1)]
    assert costs[0] == 0
    assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_empty_request_sequence():
    p = Params(4, 2, 2)
    initial = contiguous_configuration(p)
    total, schedule = optimal_cost([], p, initial)
    assert total == 0
    assert schedule == [partition_of_configuration(initial)]
    assert exhaustive_optimal([], p, initial) == 0


def test_exhaustive_caps():
    p = Params(4, 2, 2)
    initial = contiguous_configuration(p)
    with pytest.raises(TooLarge):
        exhaustive_optimal(_random_requests(random.Random(4), 4, 9), p, initial)
    p8 = Params(8, 2, 4)  # 105 partitions
    with pytest.raises(TooLarge):
        exhaustive_optimal([Request(0, 2)], p8, contiguous_configuration(p8))


def test_reference_strategies():
    # pays odd phases / even phases plus one swap / one swap per phase
    assert reference_strategies_k2([4, 4], 1) == (4, 6, 4)
    assert reference_strategies_k2([1], 1) == (1, 2, 2)
    assert reference_strategies_k2([1], 2) == (1, 4, 4)
    assert reference_strategies_k2([3] * 5, 1) == (9, 8, 10)
    with pytest.raises(MalformedProfile):
        reference_strategies_k2([], 1)
    with pytest.raises(MalformedProfile):
        reference_strategies_k2([2, 0, 2], 1)


# -- fast paths against the references ----------------------------------------

# every (n, k, ell) with n >= 2 whose space has at most 280 states
SMALL_SHAPES = [(n, k, n // k) for n in range(2, 10) for k in range(1, n + 1)
                if n % k == 0 and partition_count(n, k, n // k) <= 280]


@pytest.mark.parametrize("alpha", (1, 2, 3))
def test_memoised_matrix_matches_pairwise(alpha):
    assert (9, 3, 3) in SMALL_SHAPES and (4, 1, 4) in SMALL_SHAPES
    for n, k, ell in SMALL_SHAPES:
        space = PartitionSpace(Params(n, k, ell, alpha=alpha))
        trans = transition_matrix(space)
        assert trans == pairwise_transitions(space), (n, k, ell)


def test_matrix_is_a_metric():
    # the sweep's precondition: zero diagonal, symmetry, triangle inequality,
    # and distinct states at least two moves apart
    for n, k, ell in SMALL_SHAPES:
        alpha = 2
        trans = transition_matrix(PartitionSpace(Params(n, k, ell, alpha=alpha)))
        m = len(trans)
        for i, row in enumerate(trans):
            assert row[i] == 0
            assert all(row[j] == trans[j][i] for j in range(m))
            assert all(row[j] >= 2 * alpha for j in range(m) if j != i)
            for j, hop in enumerate(row):
                # row[l] <= row[j] + trans[j][l] for every l
                via = map(operator.add, itertools.repeat(hop), trans[j])
                assert all(map(operator.le, row, via)), (n, k, ell, i, j)


_SPACES = {}


def _space(n, k, ell, alpha):
    key = (n, k, ell, alpha)
    if key not in _SPACES:
        _SPACES[key] = PartitionSpace(Params(n, k, ell, alpha=alpha))
    return _SPACES[key]


@st.composite
def oracle_cases(draw):
    """A space of at most 126 states, a shuffled balanced start and a stream."""
    n, k, ell = draw(st.sampled_from(
        [shape for shape in SMALL_SHAPES if partition_count(*shape) <= 126]))
    space = _space(n, k, ell, draw(st.integers(1, 3)))
    slots = draw(st.permutations([v // k for v in range(n)]))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n))
    # a few hot pairs make moving pay, so schedules move and ties come up
    hot = st.sampled_from(draw(st.lists(pair, min_size=1, max_size=3)))
    requests = [Request(u, v) for u, v in draw(st.lists(hot | pair, max_size=30))]
    return space, new_configuration(slots, ell, k), requests


def _case(n, k, ell, alpha, pairs):
    return (_space(n, k, ell, alpha), contiguous_configuration(Params(n, k, ell)),
            [Request(u, v) for u, v in pairs])


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
@example(_case(4, 4, 1, 2, [(0, 3), (1, 2)]))      # ell = 1
@example(_case(4, 1, 4, 1, [(0, 3), (2, 1)]))      # k = 1
@example(_case(8, 2, 4, 3, []))                    # empty stream
def test_sweep_matches_full_scan(case):
    space, initial, requests = case
    params = space.params
    want = full_scan_optimal_cost(requests, params, initial, space)
    assert optimal_cost(requests, params, initial, space) == want
    fresh = PartitionSpace(params)   # the static optimum builds one row only
    assert static_optimal(requests, params, initial, fresh) == \
        serve_scan_static_optimal(requests, params, initial, space)
    assert fresh._near is None


def test_sweep_matches_full_scan_on_seeded_streams():
    # plain random streams at alpha 1 and 2 reach the witnesses two moves
    # away that shrunk examples rarely do
    rng = random.Random(6)
    for n, k, ell in SMALL_SHAPES:
        if partition_count(n, k, ell) > 126:
            continue
        for alpha in (1, 2):
            space = _space(n, k, ell, alpha)
            initial = contiguous_configuration(space.params)
            for _ in range(4):
                sigma = _random_requests(rng, n, rng.randint(0, 30))
                assert optimal_cost(sigma, space.params, initial, space) == \
                    full_scan_optimal_cost(sigma, space.params, initial, space)


def test_sweep_matches_full_scan_at_large_alpha():
    # at alpha 300 the values spread past 255 from the first vector on, so
    # no byte holds a value; on the smaller spaces one stream repeats a split
    # pair until moving pays
    rng = random.Random(9)
    for n, k, ell in SMALL_SHAPES:
        if not 1 < partition_count(n, k, ell) <= 126:
            continue
        for alpha in (7, 50, 300):
            space = _space(n, k, ell, alpha)
            params = space.params
            initial = contiguous_configuration(params)
            assert max(space.row(0)) > 255 or alpha < 300
            streams = [_random_requests(rng, n, rng.randint(0, 30))
                       for _ in range(3)]
            if len(space) <= 35:
                u, v = 0, n - 1         # split in the contiguous start
                streams.append([Request(u, v)] * (2 * alpha + 3) +
                               _random_requests(rng, n, 10))
            for sigma in streams:
                assert optimal_cost(sigma, params, initial, space) == \
                    full_scan_optimal_cost(sigma, params, initial, space), \
                    (n, k, ell, alpha, sigma)


@pytest.mark.parametrize("alpha", (1, 7, 300))
def test_state_masks_match_a_scan_of_the_matrix(alpha):
    # the masks built by relabeling against a scan of every row taken
    # through the overlap memo; the one-state shapes copy no code
    assert (4, 4, 1) in SMALL_SHAPES and (4, 1, 4) in SMALL_SHAPES
    for n, k, ell in SMALL_SHAPES:
        space = PartitionSpace(Params(n, k, ell, alpha=alpha))
        near = space.near()
        trans = transition_matrix(space)
        costs = sorted({c for row in trans for c in row} - {0})
        assert list(near) == costs, (n, k, ell)
        for d in costs:
            assert near[d] == [sum(1 << s for s, c in enumerate(row) if c == d)
                               for row in trans], (n, k, ell, d)
        assert space.near() is near
        for u, v in itertools.combinations(range(n), 2):
            collocated = [any(u in b and v in b for b in part)
                          for part in space.partitions]
            together, split = space.sides(v, u)
            assert together == [s for s, c in enumerate(collocated) if c], \
                (n, k, ell, u, v)
            assert split == sum(1 << s for s, c in enumerate(collocated)
                                if not c), (n, k, ell, u, v)


# every shape under the state cap with more than 280 states (for n above 16
# each space holds one state or is above the cap)
LARGE_SHAPES = [(n, k, n // k) for n in range(2, 17) for k in range(1, n + 1)
                if n % k == 0
                and 280 < partition_count(n, k, n // k) <= PARTITION_CAP]


@pytest.mark.parametrize("alpha", (1, 300))
def test_relabeled_matrix_matches_the_per_row_build(alpha):
    # a cold `near` builds the masks of all but row 0 by relabeling nodes;
    # rows taken through `row` come from the overlap memo alone. The
    # one-state shapes ell = 1 and k = 1 copy no code.
    assert LARGE_SHAPES == [(10, 2, 5), (12, 6, 2), (14, 7, 2)]
    rng = random.Random(1716)
    for n, k, ell in LARGE_SHAPES + [(4, 4, 1), (4, 1, 4)]:
        space = PartitionSpace(Params(n, k, ell, alpha=alpha))
        m = len(space)
        near = space.near()
        assert all(len(masks) == m for masks in near.values())
        states = range(m) if m < 1716 else \
            sorted({1, m - 1} | set(rng.sample(range(2, m - 1), 40)))
        for i in states:
            row = space.row(i)
            assert list(near) == sorted(set(row) - {0}), (n, k, ell, i)
            for d, masks in near.items():
                assert masks[i] == sum(1 << s for s, c in enumerate(row)
                                       if c == d), (n, k, ell, i, d)


def test_cold_matrix_solves_row_0_only(monkeypatch):
    # A guard without timings: cold neighbour masks take row 0, and only
    # row 0, through the overlap memo, and solve each distinct key of that
    # row once, a key being the overlap matrix up to the order of its columns.
    # Building every row from overlaps took 84, 34, 1060 and 7 solves, and
    # row 0 alone 26, 22, 146 and 7 with the columns in the target's order.
    rows, solves = [], []
    row, solve = PartitionSpace.row, offline.min_migration_cost

    def counted_row(space, i):
        rows.append(i)
        return row(space, i)

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(PartitionSpace, "row", counted_row)
    monkeypatch.setattr(offline, "min_migration_cost", counted_solve)
    for shape, want in (((8, 2, 4), 17), ((9, 3, 3), 10), ((10, 2, 5), 73),
                        ((14, 7, 2), 4)):
        rows.clear()
        solves.clear()
        space = PartitionSpace(Params(*shape, alpha=2))
        space.near()
        assert rows == [0], shape
        assert len(solves) == len(space._cost_by_overlap) == want, shape


def test_cold_optimal_cost_keeps_no_matrix(monkeypatch):
    # A guard without timings: a cold solve takes row 0 alone through
    # `row`, and its space holds nothing with m rows of m costs
    rows = []
    row = PartitionSpace.row

    def counted_row(space, i):
        rows.append((space, i))
        return row(space, i)

    monkeypatch.setattr(PartitionSpace, "row", counted_row)
    rng = random.Random(14)
    for shape in ((8, 2, 4), (9, 3, 3), (14, 7, 2)):
        rows.clear()
        params = Params(*shape, alpha=2)
        sigma = _random_requests(rng, shape[0], 100)
        optimal_cost(sigma, params, contiguous_configuration(params))
        assert [i for _, i in rows] == [0], shape
        space = rows[0][0]
        m = len(space)
        for name, value in vars(space).items():
            assert not (isinstance(value, list) and len(value) == m and all(
                isinstance(r, (list, tuple, bytes)) and len(r) == m
                for r in value)), (shape, name)


@pytest.mark.parametrize("alpha", (1, 7, 300))
def test_work_function_starts_at_the_row_of_its_start(alpha):
    # the first levels, read off the neighbour masks, are the start's row
    # grouped by value in ascending order, for every start state
    for n, k, ell in SMALL_SHAPES:
        space = PartitionSpace(Params(n, k, ell, alpha=alpha))
        for start, part in enumerate(space.partitions):
            initial = offline._configuration_of_partition(part, k, ell)
            levels = {}
            for s, c in enumerate(space.row(start)):
                levels[c] = levels.get(c, 0) | 1 << s
            work = WorkFunction(space.params, initial, space)
            assert work.start == start
            assert list(work.level.items()) == sorted(levels.items()), \
                (n, k, ell, start)


def test_work_function_value_is_the_optimum_of_each_prefix():
    rng = random.Random(10)
    for n, k, ell in ((4, 2, 2), (6, 2, 3), (6, 3, 2), (8, 4, 2)):
        for alpha in (1, 3):
            space = _space(n, k, ell, alpha)
            initial = contiguous_configuration(space.params)
            sigma = _random_requests(rng, n, 25)
            work = WorkFunction(space.params, initial, space)
            values = [work.value]
            for req in sigma:
                work.push(req)
                values.append(work.value)
            assert values == [
                full_scan_optimal_cost(sigma[:t], space.params, initial, space)[0]
                for t in range(len(sigma) + 1)], (n, k, ell, alpha)


@pytest.mark.parametrize("alpha", (1, 3, 300))
def test_work_function_levels_are_the_closed_vector(alpha):
    # level[v] holds exactly the states of closed value v after every push,
    # keys ascending; the repeated split pair makes moving pay at alpha 300
    rng = random.Random(alpha)
    for n, k, ell in SMALL_SHAPES:
        space = _space(n, k, ell, alpha)
        initial = contiguous_configuration(space.params)
        streams = [_random_requests(rng, n, 30 if len(space) <= 126 else 12)]
        if 1 < len(space) <= 35:
            streams.append([Request(0, n - 1)] * (2 * alpha + 3) +
                           _random_requests(rng, n, 10))
        for sigma in streams:
            work = WorkFunction(space.params, initial, space)
            levels = [list(work.level.items())]
            for req in sigma:
                work.push(req)
                levels.append(list(work.level.items()))
            assert levels == [
                [(v, sum(1 << s for s, c in enumerate(x) if c == v))
                 for v in sorted(set(x))]
                for x in closed_vectors(sigma, space, initial)], (n, k, ell)


def test_state_cap_fails_fast():
    # m=15400 would need about 1.9 GB of matrix; it is refused before
    # a single partition is enumerated
    assert partition_count(12, 3, 4) == 15400
    started = time.perf_counter()
    with pytest.raises(TooLarge):
        PartitionSpace(Params(12, 3, 4))
    assert time.perf_counter() - started < 1.0


def test_m945_optima_pinned():
    # totals and schedule from the full-scan DP and the per-request static
    # scan, computed once on this stream (about 70 s for them); n=10, k=2,
    # ell=5 is the largest k=2 space under the state cap
    rng = random.Random(945)
    hot = (((0, 2), (1, 3), (4, 6)), ((0, 9), (2, 7), (5, 8)))
    sigma = []
    for t in range(32):
        if rng.random() < 0.75:
            u, v = rng.choice(hot[t // 16])
        else:
            u, v = sorted(rng.sample(range(10), 2))
        sigma.append(Request(u, v))
    params = Params(10, 2, 5, alpha=2)
    space = PartitionSpace(params)
    assert len(space) == 945
    initial = contiguous_configuration(params)
    total, schedule = optimal_cost(sigma, params, initial, space)
    stat, part = static_optimal(sigma, params, initial, space)
    assert (total, stat) == (19, 20)
    # the schedule's moves: (first step in the state, state)
    moves = [(t, p) for t, p in enumerate(schedule)
             if t == 0 or p != schedule[t - 1]]
    assert len(schedule) == 33
    assert moves == [
        (0, ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))),
        (1, ((0, 1), (2, 3), (4, 6), (5, 8), (7, 9))),
        (2, ((0, 2), (1, 3), (4, 6), (5, 8), (7, 9))),
        (17, ((0, 9), (1, 3), (2, 7), (4, 6), (5, 8))),
    ]
    assert part == ((0, 9), (1, 3), (2, 7), (4, 6), (5, 8))


def test_a_space_for_other_params_is_refused():
    # priced at alpha=1, the swap that collocates 0 and 2 costs 2 instead of
    # 6, and the optimum of ten (0, 2) requests would read 2
    params = Params(4, 2, 2, alpha=3)
    initial = contiguous_configuration(params)
    sigma = [Request(0, 2, t) for t in range(1, 11)]
    wrong = PartitionSpace(Params(4, 2, 2, alpha=1))
    for oracle in (optimal_cost, static_optimal):
        with pytest.raises(ValueError):
            oracle(sigma, params, initial, wrong)
    right = PartitionSpace(Params(4, 2, 2, alpha=3, delta=4))
    assert optimal_cost(sigma, params, initial, right)[0] == 6
    assert static_optimal(sigma, params, initial, right)[0] == 6
