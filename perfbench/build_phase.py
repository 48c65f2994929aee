"""Build phase: serial ``PLLIndex.build`` beside ``build_parallel_procs(p=2)``.

Each step is one round.  Untraced, a round is a serial build and a p=2
procs build.  Traced, a round also runs the serial build recomposed
from its public layers (ordering, engine init, per-root search and
commit, finalize) with a span around each call, a p=1 procs build and
shared-graph exports, so every layer metric comes from the same rounds.
The search counters come from one more, untimed, serial build that
collects them.  Every built index is checked against Dijkstra, and the
recomposed build against ``PLLIndex.build`` label for label.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from hostspeed import SteadyHost, Timings
from measure import (
    BUILD_LAYER_TOLERANCE,
    Tally,
    Tracer,
    count_mismatches,
    median,
    procs_overhead_s,
    residual_share,
    worker_share,
)
from repro.baselines.dijkstra import dijkstra_sssp
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.core.pruned_dijkstra import PrunedDijkstra
from repro.core.serial import build_serial
from repro.graph.csr import CSRGraph
from repro.graph.order import by_degree
from repro.obs import instruments
from repro.parallel.procs import build_parallel_procs
from repro.parallel.shm import SharedGraph
from repro.types import SearchStats

pc = time.perf_counter

MIN_ROUNDS = 3
LAYERS = ("graph.order", "core.pruned_dijkstra.init", "core.pruned_dijkstra.run",
          "core.labels.commit", "core.labels.finalize")


class Checker:
    """Distances from a few sources to every vertex, from Dijkstra."""

    def __init__(self, graph: CSRGraph, sources: List[int]) -> None:
        n = graph.num_vertices
        self.pairs = np.array(
            [(s, t) for s in sources for t in range(n)], dtype=np.int64
        )
        self.want = np.concatenate(
            [np.asarray(dijkstra_sssp(graph, s)) for s in sources]
        )

    def check(self, index: PLLIndex, tally: Tally, what: str) -> None:
        bad = count_mismatches(index.distance_batch(self.pairs), self.want)
        tally.record(bad == 0, f"{what}: {bad} distances differ from Dijkstra")


def traced_serial_build(graph: CSRGraph, tracer: Tracer) -> Tuple[PLLIndex, int]:
    """``PLLIndex.build`` recomposed from its layers, one span per call.

    Like ``build_serial`` (and unlike :func:`search_counts`), the searches
    run without counters.  Returns the index and the id of the enclosing
    ``build.layers`` span.
    """
    t0 = pc()
    build = tracer.add("build.layers", t0, t0)
    order = by_degree(graph)
    t1 = pc()
    tracer.add("graph.order", t0, t1, build)
    engine = PrunedDijkstra(graph, order)
    t2 = pc()
    tracer.add("core.pruned_dijkstra.init", t1, t2, build)
    store = LabelStore(graph.num_vertices)
    for root in engine.order.tolist():
        a = pc()
        delta = engine.run(root, store)
        b = pc()
        engine.commit(root, delta, store)
        c = pc()
        tracer.add("core.pruned_dijkstra.run", a, b, build, root=root)
        tracer.add("core.labels.commit", b, c, build, root=root)
    f0 = pc()
    store.finalize()
    f1 = pc()
    tracer.add("core.labels.finalize", f0, f1, build)
    index = PLLIndex(store, order, graph=graph)
    tracer.close(build)
    return index, build


def search_counts(graph: CSRGraph) -> SearchStats:
    """The serial build's search counters, summed over roots (untimed)."""
    _store, stats = build_serial(graph, collect_per_root=True)
    totals = SearchStats()
    for per_root in stats.per_root:
        totals.merge(per_root)
    return totals


class BuildPhase:
    def __init__(self, graph: CSRGraph, checker: Checker, tally: Tally,
                 tracer: Optional[Tracer] = None, host=None) -> None:
        self.graph = graph
        self.checker = checker
        self.tally = tally
        self.tracer = tracer
        self.host = host or SteadyHost()
        self.serial = Timings()
        self.p2 = Timings()
        self.entries = 0
        self.label_overhead: List[float] = []
        self.shares: List[float] = []
        # Traced rounds only.
        self.layer_sums: Dict[str, Timings] = {name: Timings() for name in LAYERS}
        self.p1 = Timings()
        self.export = Timings()
        self.totals: Optional[SearchStats] = None
        self.label_bytes = 0

    def ready(self) -> bool:
        return len(self.serial) >= MIN_ROUNDS

    def _build(self, what: str, fn, *args) -> Tuple[Optional[PLLIndex], float]:
        t0 = pc()
        try:
            index = fn(*args)
        except Exception as exc:  # a failed build is a failed operation
            self.tally.fail(f"{what} raised {exc!r}")
            return None, 0.0
        secs = pc() - t0
        if self.tracer is not None:
            self.tracer.add(f"build.{what}", t0, t0 + secs)
        self.checker.check(index, self.tally, what)
        return index, secs

    def step(self) -> None:
        """A serial build, then a p=2 build, each between two host probes."""
        # Forked procs workers inherit the parent's heap: collect the
        # benchmark's own garbage first so it does not ride along.
        gc.collect()
        before = self.host.probe()
        index, secs = self._build("serial", PLLIndex.build, self.graph)
        if index is None:
            raise RuntimeError("serial build failed; see the failure notes")
        after = self.host.probe()
        self.serial.add(secs, (before + after) / 2)
        self.entries = index.store.total_entries
        if self.tracer is not None:
            after = self._traced_round(index, after)
        instruments.WORKER_ROOTS.reset()
        index, secs = self._build("p2", build_parallel_procs, self.graph, 2)
        if index is not None:
            self.p2.add(secs, (after + self.host.probe()) / 2)
            self.label_overhead.append(index.store.total_entries / self.entries)
            self.shares.append(worker_share(
                [s.value() for _k, s in instruments.WORKER_ROOTS.series_items()]))

    def _traced_round(self, serial: PLLIndex, before: float) -> float:
        """The traced builds and exports, each between two host probes
        (*before* is the last one taken); returns the last probe."""
        tracer = self.tracer
        if self.totals is None:
            self.totals = search_counts(self.graph)
        traced, build = traced_serial_build(self.graph, tracer)
        after = self.host.probe()
        self.tally.record(
            traced.store == serial.store,
            "traced serial build's labels differ from PLLIndex.build's",
        )
        self.label_bytes = traced.store.memory_breakdown()["total_bytes"]
        for name in LAYERS:
            self.layer_sums[name].add(tracer.total(name, build), (before + after) / 2)
        before = after
        index, secs = self._build("p1", build_parallel_procs, self.graph, 1)
        after = self.host.probe()
        if index is not None:
            self.p1.add(secs, (before + after) / 2)
        before, exports = after, []
        for _ in range(5):
            t0 = pc()
            SharedGraph.export(self.graph).close(unlink=True)
            exports.append(pc() - t0)
            tracer.add("parallel.shm.export", t0, t0 + exports[-1])
        after = self.host.probe()
        self.export.extend(exports, (before + after) / 2)
        return after

    def metrics(self, normalized: bool = True) -> Dict[str, float]:
        if self.tracer is None:
            return {
                "build_s": median(self.serial.get(normalized)),
                "build_p2_s": median(self.p2.get(normalized)),
                "index_entries": self.entries,
            }
        return self._layer_metrics()[0]

    def _layer_metrics(self) -> Tuple[Dict[str, float], Dict[str, object]]:
        build_s = median(self.serial.get(True))
        layers = {name: median(v.get(True)) for name, v in self.layer_sums.items()}
        residual = residual_share(build_s, layers.values())
        totals = self.totals
        settled = totals.settled
        metrics = {
            "graph.order.s": layers["graph.order"],
            "core.pruned_dijkstra.init_s": layers["core.pruned_dijkstra.init"],
            "core.pruned_dijkstra.run_s": layers["core.pruned_dijkstra.run"],
            "core.pruned_dijkstra.scan_entries": totals.query_entries_scanned,
            "core.pruned_dijkstra.heap_pops": totals.heap_pops,
            "core.pruned_dijkstra.relaxations": totals.relaxations,
            "core.pruned_dijkstra.settled": settled,
            "core.pruned_dijkstra.prune_ratio": totals.pruned / settled,
            "core.labels.commit_s": layers["core.labels.commit"],
            "core.labels.finalize_s": layers["core.labels.finalize"],
            "core.labels.bytes": self.label_bytes,
            "parallel.shm.export_s": median(self.export.get(True)),
            "parallel.procs.p1_s": median(self.p1.get(True)),
            "parallel.procs.overhead_s": procs_overhead_s(
                median(self.p1.get(True)), build_s),
            "parallel.procs.label_overhead": median(self.label_overhead),
            "parallel.procs.max_worker_share": median(self.shares),
            "build.residual_share": residual,
        }
        summary = {
            "build_s": build_s,
            "rounds": len(self.serial),
            "layer_share": {name: v / build_s for name, v in layers.items()},
            "residual_share": residual,
            "tolerance": BUILD_LAYER_TOLERANCE,
        }
        return metrics, summary

    def layer_sum_check(self) -> Dict[str, object]:
        """Fail the run when the layers do not add up to ``build_s``."""
        _metrics, summary = self._layer_metrics()
        ok = abs(summary["residual_share"]) <= BUILD_LAYER_TOLERANCE
        self.tally.record(
            ok,
            f"build layers leave {summary['residual_share']:.1%} of build_s "
            f"unexplained (tolerance {BUILD_LAYER_TOLERANCE:.0%})",
        )
        return summary
