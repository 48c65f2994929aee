"""QUERY(s, t, L): 2-hop-cover distance evaluation.

Given labels ``L(s)`` and ``L(t)``, the distance is::

    min over common hubs u of  d(u, s) + d(u, t)

Three implementations with identical results:

* :func:`query_distance` — two-pointer merge join over finalized
  (sorted) labels; the production query path.
* :func:`query_via_tmp` — dense scratch-array join over *mutable*
  labels; this is what the pruning test inside Algorithm 1 uses, and it
  works mid-build when labels are unsorted.
* :func:`query_numpy` — vectorised ``np.intersect1d`` join, for the
  query-implementation ablation.

:func:`query_distance_batch` answers many pairs at once with a single
sort-merge over the flat CSR label arrays — the batch serving path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.labels import LabelStore
from repro.errors import GraphError
from repro.types import INF, QueryResult

__all__ = [
    "query_distance",
    "query_distance_batch",
    "query_via_tmp",
    "query_numpy",
    "query_result",
    "query_candidates",
]

# Below this many pairs the numpy setup cost exceeds the scalar loop.
# Measured on a 2-vCPU x86-64 host (CPython 3.11, numpy 2.4), µs per
# pair scalar vs vectorised: Gnutella x4 (29 entries per label) 8.7 vs
# 9.5 at 8 pairs, 8.7 vs 6.9 at 12; DE-USA x2 (77 per label) 21 vs 22
# at 4 pairs, 18 vs 14 at 8.
_BATCH_FALLBACK_PAIRS = 8


def _label_lists(
    store: LabelStore, s: int, t: int
) -> Tuple[List[int], List[float], List[int], List[float]]:
    """``L(s)`` and ``L(t)`` as plain Python lists ``(hs, ds, ht, dt)``.

    A merge join over lists runs on Python ints and floats; walking the
    numpy arrays would box one numpy scalar per element read, which
    costs ~3x the join itself.  Slicing an ``np.memmap`` (an
    mmap-loaded store) also builds a memmap object per slice, so the
    slices are taken from plain ndarray views of the same buffers.
    """
    indptr, hubs, dists = store.finalized_arrays()
    if type(hubs) is not np.ndarray:
        indptr = indptr.view(np.ndarray)
        hubs = hubs.view(np.ndarray)
        dists = dists.view(np.ndarray)
    a0, a1 = indptr[s : s + 2].tolist()
    b0, b1 = indptr[t : t + 2].tolist()
    return (
        hubs[a0:a1].tolist(),
        dists[a0:a1].tolist(),
        hubs[b0:b1].tolist(),
        dists[b0:b1].tolist(),
    )


def query_distance(store: LabelStore, s: int, t: int) -> float:
    """Distance between *s* and *t* by sorted merge join.

    Finalizes the store first if needed.  ``s == t`` returns 0 (the
    trivial path), matching Dijkstra.  The join forms the same float64
    sums ``d(u, s) + d(u, t)`` as :func:`query_distance_batch`, so the
    two agree bit for bit.
    """
    if s == t:
        return 0.0
    hs, ds, ht, dt = _label_lists(store, s, t)
    i = j = 0
    ls, lt = len(hs), len(ht)
    best = INF
    while i < ls and j < lt:
        a, b = hs[i], ht[j]
        if a == b:
            total = ds[i] + dt[j]
            if total < best:
                best = total
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return best


def _label_runs(
    indptr: np.ndarray, verts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat-array positions of the label runs of *verts*, concatenated.

    Returns ``(positions, sizes)`` where ``positions`` indexes the flat
    hub/dist arrays and ``sizes[k]`` is the label size of ``verts[k]``.
    """
    starts = np.asarray(indptr[verts], dtype=np.int64)
    sizes = np.asarray(indptr[verts + 1], dtype=np.int64) - starts
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), sizes
    excl = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(sizes[:-1], out=excl[1:])
    positions = np.repeat(starts - excl, sizes) + np.arange(
        total, dtype=np.int64
    )
    return positions, sizes


def query_distance_batch(store: LabelStore, pairs) -> np.ndarray:
    """Distances for many ``(s, t)`` pairs in one vectorised merge join.

    Bit-identical to calling :func:`query_distance` per pair: both paths
    form the same float64 sums ``d(u, s) + d(u, t)`` and take an exact
    minimum.  The join tags every label entry with a composite key
    ``pair_id * n + hub`` — globally sorted and unique because hubs
    strictly increase within each finalized label — intersects the two
    sides with one ``np.searchsorted`` membership probe (both key
    arrays are already sorted, so no re-sort is needed), and min-reduces
    per pair with ``np.minimum.reduceat``.  Below
    :data:`_BATCH_FALLBACK_PAIRS` pairs the numpy setup cost dominates,
    so small batches run the scalar loop.

    Args:
        store: a finalized (or finalizable) label store.
        pairs: ``(m, 2)`` array-like of vertex ids.

    Returns:
        float64 array of length *m*; unreachable pairs get ``inf``.

    Raises:
        GraphError: for malformed *pairs* or out-of-range vertex ids.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or (pairs.size and pairs.shape[1] != 2):
        raise GraphError("pairs must be an (m, 2) array of vertex ids")
    m = len(pairs)
    if m == 0:
        return np.empty(0, dtype=np.float64)
    n = store.n
    if int(pairs.min()) < 0 or int(pairs.max()) >= n:
        bad = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)][0]
        raise GraphError(
            f"pair ({int(bad[0])}, {int(bad[1])}) out of range [0, {n})"
        )
    if m < _BATCH_FALLBACK_PAIRS or m * max(n, 1) > 2**62:
        return np.array(
            [query_distance(store, int(s), int(t)) for s, t in pairs],
            dtype=np.float64,
        )
    indptr, hubs, dists = store.finalized_arrays()
    pos_s, sizes_s = _label_runs(indptr, pairs[:, 0])
    pos_t, sizes_t = _label_runs(indptr, pairs[:, 1])
    keys_s = np.repeat(np.arange(m, dtype=np.int64), sizes_s) * n + hubs[pos_s]
    keys_t = np.repeat(np.arange(m, dtype=np.int64), sizes_t) * n + hubs[pos_t]
    out = np.full(m, INF, dtype=np.float64)
    if len(keys_s) and len(keys_t):
        # Probe the (sorted, unique) s-side keys into the t-side.
        loc = np.searchsorted(keys_t, keys_s)
        loc_safe = np.minimum(loc, len(keys_t) - 1)
        hit = keys_t[loc_safe] == keys_s
        if hit.any():
            sums = dists[pos_s[hit]] + dists[pos_t[loc_safe[hit]]]
            pair_of = keys_s[hit] // n
            heads = np.flatnonzero(np.diff(pair_of, prepend=-1))
            out[pair_of[heads]] = np.minimum.reduceat(sums, heads)
    out[pairs[:, 0] == pairs[:, 1]] = 0.0
    return out


def query_result(store: LabelStore, s: int, t: int) -> QueryResult:
    """Like :func:`query_distance` but reporting the meeting hub and cost.

    The returned hub is a *rank* (position in the indexing order); map it
    back to a vertex id with the index's ordering if needed.
    ``entries_scanned`` counts label entries *consumed* across both
    sides (``i + j``), the same accounting :func:`query_candidates`
    reports to EXPLAIN.
    """
    if s == t:
        return QueryResult(distance=0.0, hub=None, entries_scanned=0)
    hs, ds, ht, dt = _label_lists(store, s, t)
    i = j = 0
    ls, lt = len(hs), len(ht)
    best = INF
    best_hub: Optional[int] = None
    while i < ls and j < lt:
        a, b = hs[i], ht[j]
        if a == b:
            total = ds[i] + dt[j]
            if total < best:
                best = total
                best_hub = a
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return QueryResult(distance=best, hub=best_hub, entries_scanned=i + j)


def query_candidates(
    store: LabelStore, s: int, t: int
) -> Tuple[List[Tuple[int, float, float]], int, int]:
    """Every common hub of ``L(s)``/``L(t)`` with both-side distances.

    The diagnostic sibling of :func:`query_distance`: a separate merge
    join that *keeps* every meeting hub instead of reducing to the
    minimum, so EXPLAIN (:mod:`repro.obs.explain`) can attribute the
    answer.  Deliberately a distinct code path — the production query
    loop above carries no instrumentation and no branches for this.

    Returns:
        ``(candidates, scanned_s, scanned_t)``: candidates is a list of
        ``(hub_rank, d_hub_s, d_hub_t)`` in hub-rank order; the scan
        counts are how many label entries the join consumed on each
        side (the query-cost attribution).
    """
    if s == t:
        return [], 0, 0
    hs = store.finalized_hubs(s)
    ds = store.finalized_dists(s)
    ht = store.finalized_hubs(t)
    dt = store.finalized_dists(t)
    i = j = 0
    ls, lt = len(hs), len(ht)
    candidates: List[Tuple[int, float, float]] = []
    while i < ls and j < lt:
        a, b = hs[i], ht[j]
        if a == b:
            candidates.append((int(a), float(ds[i]), float(dt[j])))
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return candidates, i, j


def query_via_tmp(
    tmp: List[float],
    hubs_t: List[int],
    dists_t: List[float],
) -> float:
    """Join one side's label (preloaded into *tmp*) against the other's.

    ``tmp`` is a dense array indexed by hub rank holding ``d(hub, s)``
    for every hub in ``L(s)`` and ``inf`` elsewhere.  This form needs no
    sorting, so it works on live labels during indexing; it is the exact
    QUERY of the paper's Algorithm 1 line 6.

    Args:
        tmp: dense scratch array (length = number of vertices).
        hubs_t: hub ranks of the other endpoint's label.
        dists_t: distances parallel to *hubs_t*.

    Returns:
        The minimum hub sum, ``inf`` if the labels share no hub.
    """
    best = INF
    for i in range(len(hubs_t)):
        total = tmp[hubs_t[i]] + dists_t[i]
        if total < best:
            best = total
    return best


def query_numpy(store: LabelStore, s: int, t: int) -> float:
    """Vectorised join via ``np.intersect1d`` (ablation variant)."""
    if s == t:
        return 0.0
    hs = store.finalized_hubs(s)
    ht = store.finalized_hubs(t)
    common, is_, it_ = np.intersect1d(
        hs, ht, assume_unique=True, return_indices=True
    )
    if len(common) == 0:
        return INF
    ds = store.finalized_dists(s)[is_]
    dt = store.finalized_dists(t)[it_]
    return float(np.min(ds + dt))


def load_tmp(
    tmp: List[float], store: LabelStore, v: int, extra: Tuple[int, float] | None
) -> List[int]:
    """Fill *tmp* with ``L(v)`` (and one extra entry); return touched ranks.

    Used by the pruned search to prepare the root side of the query.  The
    caller must later pass the returned rank list to :func:`clear_tmp`.
    When the same hub occurs twice (delayed-sync duplicates) the smaller
    distance wins.
    """
    touched: List[int] = []
    hubs = store.hubs_of(v)
    dists = store.dists_of(v)
    for i in range(len(hubs)):
        h = hubs[i]
        d = dists[i]
        if d < tmp[h]:
            tmp[h] = d
        touched.append(h)
    if extra is not None:
        h, d = extra
        if d < tmp[h]:
            tmp[h] = d
        touched.append(h)
    return touched


def clear_tmp(tmp: List[float], touched: List[int]) -> None:
    """Reset the scratch array positions recorded by :func:`load_tmp`."""
    for h in touched:
        tmp[h] = INF
