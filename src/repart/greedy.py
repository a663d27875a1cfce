"""Greedy rematcher for clusters of size two.

Every split request feeds an outgoing counter on both endpoint clusters
and a counter on the node pair. When a cluster's outgoing counter reaches
lam * alpha it picks the cluster it talked to most, collocates the hottest
pair across the two by one swap (cost 2 * alpha), and resets every counter
touching the four nodes involved. The swap lands after the triggering
request is served, so the full quantum of lam * alpha requests is paid
remotely between swaps touching a cluster. Pair counters are indexed by
node, so the choice and the reset read only the pairs of those nodes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .core import Configuration, GeometryError, PairCounts, Params, Request

DEFAULT_LAM = 3


class GreedyMatcher:
    def __init__(self, params: Params, lam: int = DEFAULT_LAM):
        if params.k != 2:
            raise GeometryError("greedy rematcher requires k=2, got k=%d" % params.k)
        if params.delta != 1:
            raise GeometryError("greedy rematcher is unaugmented (delta=1)")
        if lam < 1:
            raise GeometryError("lam must be >= 1")
        self.params = params
        self.lam = lam
        self.out_counts: Dict[int, int] = {}
        self.pairs = PairCounts()

    @property
    def pair_counts(self) -> Dict[Tuple[int, int], int]:
        return self.pairs.as_dict()

    def _partner(self, config: Configuration, c1: int, members: List[int]) -> int:
        """The cluster c != c1 with the most pair traffic to c1, ties to the
        lower id. Only the pairs of c1's own nodes are read; the request
        that tripped c1 is one of them, so some cluster has traffic.
        """
        sums: Dict[int, int] = {}
        for x in members:
            for y, count in self.pairs.nbrs.get(x, {}).items():
                c = config.cluster_of(y)
                if c != c1:
                    sums[c] = sums.get(c, 0) + count
        return max(sums, key=lambda c: (sums[c], -c))

    def step(self, config: Configuration, request: Request):
        u, v = request.u, request.v
        cu, cv = config.cluster_of(u), config.cluster_of(v)
        if cu == cv:
            return [], []
        self.pairs.add(u, v)
        self.out_counts[cu] = self.out_counts.get(cu, 0) + 1
        self.out_counts[cv] = self.out_counts.get(cv, 0) + 1
        threshold = self.lam * self.params.alpha
        hot = [c for c in (min(cu, cv), max(cu, cv))
               if self.out_counts.get(c, 0) >= threshold]
        if not hot:
            return [], []
        c1 = hot[0]
        in_c1 = config.nodes_in(c1)
        # when both endpoint clusters tripped, one swap must reset both
        c2 = hot[1] if len(hot) == 2 else self._partner(config, c1, in_c1)
        in_c2 = config.nodes_in(c2)
        best_pair = None
        best_count = -1
        for x in in_c1:
            for y in in_c2:
                cnt = self.pairs.get(x, y)
                if cnt > best_count:
                    best_count = cnt
                    best_pair = (x, y)
        x, y = best_pair
        mate = next(w for w in in_c1 if w != x)
        for w in in_c1 + in_c2:
            self.pairs.drop(w)
        self.out_counts.pop(c1, None)
        self.out_counts.pop(c2, None)
        # y joins x; x's mate takes y's slot. Applied after the serve.
        return [], [(y, c1), (mate, c2)]
