"""The host's speed during a run, from a fixed reference task.

The measuring host is a shared VM whose speed changes by up to 2x from
second to second and from minute to minute, and every time metric of a
run moves with it (see README.md, "Host-speed normalization").  The
benchmark times a reference task before and after every CPU-bound
timed unit (a build, an update replay, a ``batch`` slice, a set-up) and
scales each sample by ``REFERENCE_S`` over the mean of the two reference
times:
the time the sample would have taken on a host that runs the reference
in ``REFERENCE_S``.  The samples as measured are kept beside them.

The reference is the benchmark's own code and never changes with the
program: pruned landmark labeling in plain Python (heap Dijkstra per
root, pruned by a dict-based label scan) over a fixed seeded graph,
then a stable ``argsort`` of a fixed array, the same mix of interpreter
work and memory-bound numpy work as the program's builds, queries and
re-finalizes.  It imports nothing from the program.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List

import numpy as np

#: Seconds the reference takes on the 2-vCPU Xeon VM of README.md at
#: its full speed (Python 3.11); the unit of the normalized times.
REFERENCE_S = 0.020


class Reference:
    """Pruned landmark labeling of a fixed seeded graph, in plain Python."""

    def __init__(self, n: int = 150, m: int = 600, seed: int = 12345) -> None:
        rng = np.random.default_rng(seed)
        self.adj: List[List[tuple]] = [[] for _ in range(n)]
        ends = rng.integers(0, n, size=(m, 2)).tolist()
        weights = rng.integers(1, 20, size=m).tolist()
        for (a, b), w in zip(ends, weights):
            if a != b:
                self.adj[a].append((b, float(w)))
                self.adj[b].append((a, float(w)))
        self.order = sorted(range(n), key=lambda v: (-len(self.adj[v]), v))
        self.keys = rng.random(40_000)

    def run(self) -> int:
        """Build the labels once; returns the number of label entries."""
        labels: List[Dict[int, float]] = [{} for _ in self.adj]
        for root in self.order:
            root_label = labels[root]
            dist = {root: 0.0}
            heap = [(0.0, root)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                label = labels[u]
                if any(hub in label and dh + label[hub] <= d
                       for hub, dh in root_label.items()):
                    continue
                label[root] = d
                for v, w in self.adj[u]:
                    nd = d + w
                    if nd < dist.get(v, float("inf")):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        np.argsort(self.keys, kind="stable")
        return sum(len(label) for label in labels)


class HostSpeed:
    """Reference timings taken through a run, and the factors they give."""

    def __init__(self) -> None:
        self.reference = Reference()
        self.entries = self.reference.run()  # warm-up, untimed
        self.times: List[float] = []

    def probe(self) -> float:
        """Time the reference now; how much slower than ``REFERENCE_S`` it ran."""
        t0 = time.perf_counter()
        entries = self.reference.run()
        self.times.append(time.perf_counter() - t0)
        if entries != self.entries:
            raise RuntimeError(
                f"reference built {entries} label entries, not {self.entries}")
        return self.times[-1] / REFERENCE_S

    def factor(self) -> float:
        """The run's median factor (reported in ``detail``)."""
        return float(np.median(self.times)) / REFERENCE_S


class SteadyHost:
    """A host taken to run at ``REFERENCE_S`` speed throughout (tests)."""

    def probe(self) -> float:
        return 1.0

    def factor(self) -> float:
        return 1.0


class Timings:
    """Times as measured, each with the host's factor while it ran.

    ``get(True)`` gives them at ``REFERENCE_S`` host speed: each divided
    by its factor.
    """

    def __init__(self) -> None:
        self.values: List[float] = []
        self.factors: List[float] = []

    def __len__(self) -> int:
        return len(self.values)

    def add(self, value: float, factor: float) -> None:
        self.values.append(value)
        self.factors.append(factor)

    def extend(self, values: List[float], factor: float) -> None:
        self.values.extend(values)
        self.factors.extend([factor] * len(values))

    def get(self, normalized: bool) -> np.ndarray:
        values = np.asarray(self.values, dtype=np.float64)
        if not normalized:
            return values
        return values / np.asarray(self.factors, dtype=np.float64)
