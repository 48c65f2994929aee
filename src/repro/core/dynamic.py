"""Incremental index maintenance under edge insertions and weight decreases.

ParaPLL (like PLL) builds a static index; the natural follow-up —
published for the unweighted case by Akiba, Iwata & Yoshida ("Dynamic
and historical shortest-path distance queries on large evolving
networks", WWW 2014) — maintains it under edge insertions without
rebuilding: when edge ``{a, b}`` (weight w) appears,

* for every label entry ``(h, d)`` in ``L(a)``, resume a pruned
  Dijkstra from hub *h* seeded at ``b`` with distance ``d + w``;
* symmetrically for every entry in ``L(b)``, seeded at ``a``.

A resumed search explores only the region the new edge improved,
pruning against the existing labels exactly like Algorithm 1.  The
resulting label set remains a correct 2-hop cover (every query still
returns the exact post-insertion distance); it may contain entries that
are *loose* for their hub (a shorter route via another hub exists) —
harmless, because QUERY takes a minimum and the exact cover is present.

Lowering the weight of an existing edge is the same repair: an
insertion is a decrease from infinity, and every stored distance stays
the length of a real path when weights only fall, so the old entries
remain valid upper bounds and the resumed searches add the improved
ones (the ``change_edge_weight`` of dynamic PLL implementations).

Deletions and weight increases invalidate labels globally and are
intentionally out of scope; :meth:`DynamicPLL.rebuild` is the escape
hatch.  Each repair appends to the label lists; the next query
re-finalizes only the label rows the repair touched (see
:mod:`repro.core.labels`).
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.core.labels import LabelStore
from repro.core.query import clear_tmp, load_tmp
from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.graph.order import ordering_rank
from repro.types import INF

__all__ = ["DynamicPLL"]


class DynamicPLL:
    """A PLL index that absorbs edge insertions incrementally.

    Args:
        index: a built :class:`~repro.core.index.PLLIndex` **with an
            attached graph**; the dynamic wrapper takes a mutable copy
            of its adjacency and extends its label store in place.

    Example:
        >>> from repro import PLLIndex, load_dataset
        >>> g = load_dataset("Gnutella", scale=0.25)
        >>> dyn = DynamicPLL(PLLIndex.build(g))
        >>> dyn.insert_edge(0, 5, 2.0)
        >>> dyn.distance(0, 5) <= 2.0
        True
    """

    def __init__(self, index) -> None:
        if index.graph is None:
            raise GraphError("DynamicPLL needs an index with attached graph")
        self.index = index
        self.store: LabelStore = index.store
        self.order = index.order
        self.rank = ordering_rank(self.order)
        self._rank_list: List[int] = self.rank.tolist()
        # Mutable adjacency copy; the original CSRGraph stays untouched.
        self._adj: List[List[Tuple[int, float]]] = [
            list(nbrs) for nbrs in index.graph.adjacency_lists()
        ]
        n = index.graph.num_vertices
        self._dist: List[float] = [INF] * n
        self._tmp: List[float] = [INF] * n
        self._inserted: List[Tuple[int, int, float]] = []

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (fixed; vertex insertion is not supported)."""
        return self.store.n

    def distance(self, s: int, t: int) -> float:
        """Exact current distance between *s* and *t*."""
        self.store.finalize()
        from repro.core.query import query_distance

        return query_distance(self.store, s, t)

    def current_graph(self) -> CSRGraph:
        """Materialise the updated graph (original + inserted edges, at
        their current weights)."""
        builder = GraphBuilder(num_vertices=self.num_vertices)
        for u in range(self.num_vertices):
            for v, w in self._adj[u]:
                if u < v:
                    builder.add_edge(u, v, w)
        return builder.build(name=f"{self.index.graph.name}+dyn")

    # ------------------------------------------------------------------
    def insert_edge(self, a: int, b: int, weight: float) -> int:
        """Insert undirected edge ``{a, b}``, or lower its weight, and
        repair the index.

        On an existing edge a strictly lower *weight* replaces the old
        one, and the index is repaired exactly as for an insertion.

        Args:
            a: first endpoint.
            b: second endpoint.
            weight: positive finite edge weight.

        Returns:
            The number of label entries added during the repair.

        Raises:
            GraphError: on invalid endpoints/weight, self loops, or an
                existing edge whose weight is not above *weight*.
        """
        n = self.num_vertices
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise GraphError("self loops are not allowed")
        if not (weight > 0) or weight == INF or weight != weight:
            raise GraphError(f"edge weight must be positive finite: {weight}")
        weight = float(weight)
        old = min((w for v, w in self._adj[a] if v == b), default=INF)
        if old <= weight:
            raise GraphError(
                f"edge ({a}, {b}) already exists with weight {old}; "
                f"only a lower weight can replace it"
            )
        for u, v in ((a, b), (b, a)):
            if old == INF:
                self._adj[u].append((v, weight))
            else:
                self._adj[u] = [
                    (x, weight if x == v else w) for x, w in self._adj[u]
                ]
        self._inserted.append((a, b, weight))

        added = 0
        # Snapshot the endpoint labels before repairs mutate them.
        seeds_a = list(zip(self.store.hubs_of(a), self.store.dists_of(a)))
        seeds_b = list(zip(self.store.hubs_of(b), self.store.dists_of(b)))
        for h_rank, d in seeds_a:
            added += self._resume(h_rank, b, d + weight)
        for h_rank, d in seeds_b:
            added += self._resume(h_rank, a, d + weight)
        return added

    @property
    def inserted_edges(self) -> List[Tuple[int, int, float]]:
        """Edges inserted or re-weighted since construction, in order."""
        return list(self._inserted)

    def rebuild(self) -> None:
        """Rebuild the index from scratch on the current graph.

        Restores canonical (minimal) labels after many insertions have
        accumulated loose entries.
        """
        from repro.core.index import PLLIndex
        from repro.graph.order import by_degree

        graph = self.current_graph()
        fresh = PLLIndex.build(graph, order=by_degree(graph))
        self.index = fresh
        self.store = fresh.store
        self.order = fresh.order
        self.rank = ordering_rank(self.order)
        self._rank_list = self.rank.tolist()
        self._adj = [list(nbrs) for nbrs in graph.adjacency_lists()]

    # ------------------------------------------------------------------
    def _resume(self, h_rank: int, seed: int, seed_dist: float) -> int:
        """Resume a pruned Dijkstra from hub rank *h_rank* at *seed*.

        Explores only vertices the new edge improved for this hub,
        committing new label entries immediately (they are used for
        pruning later repairs).  Returns entries added.
        """
        hub_vertex = int(self.order[h_rank])
        adj = self._adj
        dist = self._dist
        tmp = self._tmp
        store = self.store
        hubs_of = store.hubs_of
        dists_of = store.dists_of
        heappush = heapq.heappush
        heappop = heapq.heappop

        touched_tmp = load_tmp(tmp, store, hub_vertex, (h_rank, 0.0))
        touched_dist: List[int] = [seed]
        dist[seed] = seed_dist
        heap: List[Tuple[float, int]] = [(seed_dist, seed)]
        added = 0

        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            hu = hubs_of(u)
            du = dists_of(u)
            q = INF
            # zip beats an index loop by ~35% here (measured; see the
            # profiling notes in DESIGN.md section 4b).
            for h_, d_ in zip(hu, du):
                total = tmp[h_] + d_
                if total < q:
                    q = total
            if q <= d:
                continue
            store.add(u, h_rank, d)
            added += 1
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    if dist[v] == INF:
                        touched_dist.append(v)
                    dist[v] = nd
                    heappush(heap, (nd, v))

        for v in touched_dist:
            dist[v] = INF
        clear_tmp(tmp, touched_tmp)
        return added
