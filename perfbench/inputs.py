"""Every input of a run, made from ``--seed``.

The graphs are the repo's fixed dataset stand-ins (like a dataset file
on disk); the seed relabels their vertices and drives every stream:
request pairs, batches, inserted edges, reads and checked sources.
Served point requests come from the repo's own traffic model,
``repro.service.replay.generate_requests`` (vertex-popularity Zipf).
Regenerating the graph itself from the seed was tried and rejected: it
moved index size by up to 15% from seed to seed, and build time with
it, which would swamp the benchmark's bounds.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.generators.paper import load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.ops import relabel
from repro.service.replay import ReplayConfig, generate_requests

#: Graph kinds: (dataset stand-in, scale).  Gnutella x4 is a power-law
#: P2P graph (n=2359); DE-USA x2 a perturbed road lattice (n=2401).
GRAPHS = {"social": ("Gnutella", 4.0), "road": ("DE-USA", 2.0)}

# Sub-stream ids, so each input is independent of how much of the
# others a run consumed.
_RELABEL = {"social": 0, "road": 1}
_CHECK_SOURCES = 2
_BATCHES = 4
_READS = 3
_ARRIVALS = 5
_INSERTS = 100  # + epoch


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def make_graph(kind: str, seed: int) -> CSRGraph:
    """The *kind* stand-in with its vertices relabeled by *seed*.

    ``by_degree`` breaks degree ties by vertex id, and the road lattice is
    almost all ties: a free relabeling reorders the build and moved its
    label count by 8% from seed to seed.  So each degree class hands out
    its new ids in the order of its old ids, and every seed builds the
    same index up to renaming.
    """
    name, scale = GRAPHS[kind]
    base = load_dataset(name, scale=scale)
    new_ids = rng(seed, _RELABEL[kind]).permutation(base.num_vertices)
    degrees = base.degrees
    for d in np.unique(degrees):
        members = np.flatnonzero(degrees == d)
        new_ids[members] = np.sort(new_ids[members])
    return relabel(base, new_ids)


def check_sources(n: int, seed: int, k: int = 3) -> List[int]:
    """Sources whose distances to every vertex are checked against Dijkstra."""
    return [int(v) for v in rng(seed, _CHECK_SOURCES).choice(n, k, replace=False)]


def point_requests(n: int, seed: int, count: int) -> np.ndarray:
    """``count`` point requests from the replay model's ``zipf`` source.

    Both endpoints are drawn from a Zipf(1.1) vertex popularity over a
    seeded ranking of the *n* vertices (``ReplayConfig`` defaults; see
    DESIGN.md section 13), shape ``(count, 2)``.
    """
    config = ReplayConfig(source="zipf", seed=seed, requests=count)
    return np.array(generate_requests(config, n), dtype=np.int64)


def arrival_gaps(seed: int, count: int, rate: float) -> np.ndarray:
    """``count`` open-loop inter-arrival gaps (s): Poisson arrivals at
    *rate*/s, as in the replay model's open loop."""
    return rng(seed, _ARRIVALS).exponential(1.0 / rate, size=count)


def uniform_batches(n: int, seed: int, count: int, size: int = 256) -> np.ndarray:
    """``count`` batches of *size* uniform pairs, shape ``(count, size, 2)``."""
    return rng(seed, _BATCHES).integers(0, n, size=(count, size, 2))


def read_pairs(n: int, seed: int, count: int) -> np.ndarray:
    """Uniform point reads issued after each insert."""
    return rng(seed, _READS).integers(0, n, size=(count, 2))


def insert_plan(
    graph: CSRGraph, seed: int, epoch: int, k: int
) -> List[Tuple[int, int, float]]:
    """*k* distinct non-edges of *graph*, weights drawn from its own edges."""
    r = rng(seed, _INSERTS + epoch)
    n = graph.num_vertices
    plan: List[Tuple[int, int, float]] = []
    seen = set()
    while len(plan) < k:
        a, b = (int(x) for x in r.integers(0, n, size=2))
        key = (min(a, b), max(a, b))
        if a == b or key in seen or graph.has_edge(a, b):
            continue
        seen.add(key)
        plan.append((a, b, float(r.choice(graph.weights))))
    return plan
