"""Cost model: geometry validation, batched moves, relabeling distance."""

import itertools
import pickle
import random
import time

import pytest

from oracles import permutation_min_migration_cost
from repart.core import (
    CapacityExceeded,
    Configuration,
    CostLedger,
    GeometryError,
    Params,
    Request,
    ShapeMismatch,
    UnknownCluster,
    UnknownNode,
    apply_moves,
    contiguous_configuration,
    min_migration_cost,
    new_configuration,
    serve_cost,
)


def test_params_geometry():
    p = Params(6, 2, 3)
    assert (p.n, p.k, p.ell, p.alpha, p.delta) == (6, 2, 3, 1, 1)
    with pytest.raises(GeometryError):
        Params(5, 2, 3)
    with pytest.raises(GeometryError):
        Params(0, 0, 0)
    with pytest.raises(GeometryError):
        Params(4, 2, 2, alpha=0)
    with pytest.raises(GeometryError):
        Params(4, 2, 2, delta=0)


def test_request_validation():
    r = Request(3, 1)
    assert (r.u, r.v) == (3, 1)
    with pytest.raises(GeometryError):
        Request(2, 2)
    with pytest.raises(UnknownNode):
        Request(-1, 2)


def test_request_is_an_immutable_validated_value():
    r = Request(1, 2, 3)
    assert repr(r) == "Request(u=1, v=2, t=3)"
    assert repr(Request(4, 0)) == "Request(u=4, v=0, t=0)"
    assert r == Request(u=1, v=2, t=3) == Request(1, v=2, t=3)
    assert r != Request(1, 2) and r != Request(2, 1, 3)
    assert hash(r) == hash((1, 2, 3))
    assert (r.u, r.v, r.t) == (1, 2, 3)
    with pytest.raises(AttributeError):
        r.u = 5
    with pytest.raises(AttributeError):
        r.w = 5
    assert (r.u, r.v, r.t) == (1, 2, 3)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(r, proto))
        assert type(back) is Request and back == r
    # unpickling builds through the validating constructor too
    with pytest.raises(GeometryError):
        pickle.loads(pickle.dumps(r).replace(b"K\x02", b"K\x01"))
    with pytest.raises(GeometryError, match="endpoints must differ, got 2"):
        Request(u=2, v=2, t=9)
    with pytest.raises(UnknownNode, match="negative node id"):
        Request(0, -3)


def test_contiguous_layout():
    config = contiguous_configuration(Params(6, 3, 2))
    assert tuple(config.assignment) == (0, 0, 0, 1, 1, 1)
    assert config.cluster_count == 2
    assert config.cluster_capacity == 3


def test_configuration_queries():
    config = new_configuration([0, 1, 0, 1], 2, 2)
    assert config.n == 4
    assert config.cluster_of(2) == 0
    assert config.nodes_in(1) == [1, 3]
    assert len(config.nodes_in(0)) == 2
    assert config.canonical() == "2/2:0,1,0,1"
    with pytest.raises(UnknownNode):
        config.cluster_of(4)
    with pytest.raises(UnknownCluster):
        config.nodes_in(2)
    with pytest.raises(UnknownCluster):
        config.nodes_in(-1)


def test_configuration_validation():
    with pytest.raises(CapacityExceeded):
        Configuration([0, 0, 0, 1], 2, 2)
    with pytest.raises(UnknownCluster):
        Configuration([0, 5], 2, 2)


def test_serve_cost():
    config = new_configuration([0, 0, 1, 1], 2, 2)
    assert serve_cost(config, Request(0, 1)) == 0
    assert serve_cost(config, Request(1, 2)) == 1
    assert serve_cost(config, Request(2, 1)) == 1


def test_apply_moves_charging():
    config = new_configuration([0, 0, 1, 1], 2, 2)
    same, cost = apply_moves(config, [], 3)
    assert same is config and cost == 0
    # moving onto the current cluster is free
    _, cost = apply_moves(config, [(0, 0)], 3)
    assert cost == 0
    # duplicate entries: last one wins, charging reflects the net change
    out, cost = apply_moves(config, [(0, 1), (0, 0)], 3)
    assert tuple(out.assignment) == (0, 0, 1, 1) and cost == 0


def test_apply_moves_atomic_capacity():
    config = new_configuration([0, 0, 1, 1], 2, 2)
    # a swap passes through a transiently full cluster; only the final
    # placement is validated
    out, cost = apply_moves(config, [(1, 1), (2, 0)], 2)
    assert tuple(out.assignment) == (0, 1, 0, 1)
    assert cost == 4
    # the swap moved config itself; a rejected batch moves nothing
    config = new_configuration([0, 0, 1, 1], 2, 2)
    with pytest.raises(CapacityExceeded):
        apply_moves(config, [(1, 1), (2, 0), (3, 0)], 1)
    with pytest.raises(UnknownNode):
        apply_moves(config, [(1, 1), (9, 0)], 1)
    with pytest.raises(UnknownCluster):
        apply_moves(config, [(1, 1), (0, 9)], 1)
    assert config.assignment == (0, 0, 1, 1)
    assert config.nodes_in(0) == [0, 1] and config.nodes_in(1) == [2, 3]


def test_a_placement_moves_in_place_and_does_not_hash():
    config = new_configuration([0, 0, 1, 1], 2, 2)
    members = config.nodes_in(0)
    out, cost = apply_moves(config, [(1, 1), (2, 0)], 1)
    assert out is config and cost == 2
    # a read hands out a copy, not the live member list
    assert members == [0, 1] and config.nodes_in(0) == [0, 2]
    config.nodes_in(1).append(0)
    assert config.nodes_in(1) == [1, 3]
    assert config == new_configuration([0, 1, 0, 1], 2, 2)
    with pytest.raises(TypeError):
        hash(config)


def test_min_migration_shape_mismatch():
    a = new_configuration([0, 0, 1, 1], 2, 2)
    b = new_configuration([0, 0, 0, 1, 1, 1], 2, 3)
    with pytest.raises(ShapeMismatch):
        min_migration_cost(a, b, 1)


def _partition_blocks(config):
    blocks = [tuple(config.nodes_in(c)) for c in range(config.cluster_count)]
    return sorted(b for b in blocks if b)


def _brute_min_migration(a, b, alpha):
    """Cheapest retargeting of `a` onto any configuration grouping the
    nodes exactly as `b` does, by full enumeration of assignments."""
    best = None
    want = _partition_blocks(b)
    for assign in itertools.product(range(a.cluster_count), repeat=a.n):
        try:
            cand = Configuration(list(assign), a.cluster_count,
                                 a.cluster_capacity)
        except CapacityExceeded:
            continue
        if _partition_blocks(cand) != want:
            continue
        cost = alpha * sum(1 for v in range(a.n)
                           if assign[v] != a.assignment[v])
        if best is None or cost < best:
            best = cost
    return best


def _all_balanced_configs(n, k, ell):
    out = []
    for assign in itertools.product(range(ell), repeat=n):
        counts = [0] * ell
        for c in assign:
            counts[c] += 1
        if all(x == k for x in counts):
            out.append(Configuration(list(assign), ell, k))
    return out


def test_min_migration_matches_brute_force():
    rng = random.Random(11)
    configs = _all_balanced_configs(6, 2, 3)
    for _ in range(25):
        a, b = rng.sample(configs, 2)
        for alpha in (1, 2):
            assert min_migration_cost(a, b, alpha) == _brute_min_migration(a, b, alpha)
    assert all(min_migration_cost(c, c, 5) == 0 for c in configs[:10])


def test_min_migration_label_invariance():
    a = new_configuration([0, 0, 1, 1, 2, 2], 3, 2)
    b = new_configuration([2, 2, 0, 0, 1, 1], 3, 2)
    assert min_migration_cost(a, b, 7) == 0


def test_min_migration_pseudometric():
    # one canonical config per grouping of 6 nodes into 3 pairs
    reps = {}
    for c in _all_balanced_configs(6, 2, 3):
        reps.setdefault(tuple(_partition_blocks(c)), c)
    reps = list(reps.values())
    assert len(reps) == 15
    d = {(i, j): min_migration_cost(a, b, 1)
         for i, a in enumerate(reps) for j, b in enumerate(reps)}
    for i in range(15):
        assert d[(i, i)] == 0
        for j in range(15):
            assert d[(i, j)] == d[(j, i)]
            for m in range(15):
                assert d[(i, j)] <= d[(i, m)] + d[(m, j)]


def test_min_migration_assignment_path():
    # nine clusters, where the reference's 9! relabelings are the slow side
    n, ell, k = 18, 9, 2
    a = new_configuration([v // 2 for v in range(n)], ell, k)
    perm = [3, 5, 7, 0, 8, 2, 1, 6, 4]
    b = new_configuration([perm[v // 2] for v in range(n)], ell, k)
    assert min_migration_cost(a, b, 2) == 0
    swapped = list(a.assignment)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    c = new_configuration(swapped, ell, k)
    assert min_migration_cost(a, c, 2) == 4

    # literal enumeration of all 9! relabelings agrees on a shuffled pair
    rng = random.Random(5)
    mixed = list(range(n))
    rng.shuffle(mixed)
    d = new_configuration([mixed[v] // 2 for v in range(n)], ell, k)
    got = min_migration_cost(a, d, 1)
    overlap = [[0] * ell for _ in range(ell)]
    for v in range(n):
        overlap[a.assignment[v]][d.assignment[v]] += 1
    best = max(sum(overlap[i][p[i]] for i in range(ell))
               for p in itertools.permutations(range(ell)))
    assert got == n - best


def _placement(rng, ell, k, n):
    """n of the ell*k slots filled, in a random order."""
    slots = [c for c in range(ell) for _ in range(k)]
    rng.shuffle(slots)
    return new_configuration(slots[:n], ell, k)


def test_min_migration_matches_the_permutation_scan():
    # full placements, and partly filled ones like the component
    # algorithm's doubled clusters, at every cluster count up to 7
    rng = random.Random(7)
    for _ in range(600):
        ell, k = rng.randint(1, 7), rng.randint(1, 4)
        n = rng.choice((ell * k, rng.randint(1, ell * k)))
        a, b = _placement(rng, ell, k, n), _placement(rng, ell, k, n)
        alpha = rng.randint(1, 3)
        assert min_migration_cost(a, b, alpha) == \
            permutation_min_migration_cost(a, b, alpha)


def test_min_migration_is_fast_with_one_node_per_cluster():
    # k=1 spaces have a single state, and pricing it solves a 30 x 30
    # assignment, which a scan of the 30! relabelings could not finish
    p = Params(30, 1, 30)
    shuffled = list(range(30))
    random.Random(3).shuffle(shuffled)
    started = time.perf_counter()
    assert min_migration_cost(contiguous_configuration(p),
                              new_configuration(shuffled, 30, 1), 5) == 0
    assert time.perf_counter() - started < 1.0


def test_cost_ledger():
    ledger = CostLedger()
    ledger.record(1, 0)
    ledger.record(0, 2)
    assert ledger.comm_total == 1
    assert ledger.mig_total == 2
    assert ledger.total == 3
    assert ledger.per_step == [(1, 0), (0, 2)]
