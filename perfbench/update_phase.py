"""Update phase: ``DynamicPLL`` inserts beside point reads.

Each phase step is one epoch: ``EPOCH_INSERTS`` fresh non-edges, each
followed by ``READS_PER_STEP`` point reads.  The update latency runs
from the ``insert_edge`` call until the first read returns (it pays the
re-finalize); the other reads are the read samples.

The epoch is replayed ``REPLAYS`` times, one after the other, each on a
fresh ``DynamicPLL`` over a copy of the serial index, so every replay
does exactly the same work on exactly the same states.  An insert's
latency (and a read's) is the fastest of its replays, each scaled to
the reference host speed by the host probes around its replay
(hostspeed.py): the host's speed changes from second to second, and the
replays are far enough apart that it rarely slows all of them.  No epoch state
outlives its step, so the work of an insert does not depend on how many
came before it in the run.  At the end of the epoch every copy is
checked against Dijkstra on ``current_graph()``.

Traced, one more copy replays the epoch with the re-finalize split out
of the first read, so the layers of each step are measured on exactly
the states the untraced replays saw.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from build_phase import Checker
from hostspeed import SteadyHost, Timings
from inputs import insert_plan
from measure import (
    UPDATE_LAYER_TOLERANCE,
    Tally,
    Tracer,
    median,
    quantile,
    residual_share,
)
from repro.core.dynamic import DynamicPLL
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.errors import GraphError

pc = time.perf_counter

EPOCH_INSERTS = 25
READS_PER_STEP = 8
#: Replays of each epoch; a sample is the fastest of its replays.
REPLAYS = 2
#: Enough inserts that the p90 has 15 samples beyond it.
MIN_INSERTS = 150


def fresh_dynamic(index: PLLIndex) -> DynamicPLL:
    """A ``DynamicPLL`` over a private copy of *index*, already thawed."""
    indptr, hubs, dists = index.store.finalized_arrays()
    store = LabelStore.from_arrays(indptr.copy(), hubs.copy(), dists.copy())
    dyn = DynamicPLL(PLLIndex(store, index.order, graph=index.graph))
    dyn.store.add_delta([])  # thaw outside the timed steps
    return dyn


def _check_epoch(dyns: List[DynamicPLL], sources: List[int], tally: Tally) -> None:
    """Each copy's finalized labels against Dijkstra on the updated graph."""
    checker = Checker(dyns[0].current_graph(), sources)
    for dyn in dyns:
        dyn.store.finalize()
        checker.check(dyn.index, tally, "dynamic index")


class UpdatePhase:
    def __init__(self, index: PLLIndex, reads: np.ndarray, sources: List[int],
                 seed: int, tally: Tally, tracer: Optional[Tracer] = None,
                 host=None) -> None:
        self.index = index
        self.reads = reads
        self.sources = sources
        self.seed = seed
        self.tally = tally
        self.tracer = tracer
        self.host = host or SteadyHost()
        self.update = Timings()
        self.read = Timings()
        self.layers: Dict[str, List[float]] = {
            "insert": [], "refinalize": [], "read": [], "added": [],
        }
        self.epoch = 0
        self.next_read = 0

    def ready(self) -> bool:
        return len(self.update) >= MIN_INSERTS

    def step(self) -> None:
        """One epoch, replayed; then every copy's check against Dijkstra."""
        plan = insert_plan(self.index.graph, self.seed, self.epoch, EPOCH_INSERTS)
        pairs = [
            self.reads[(self.next_read + k) % len(self.reads)].tolist()
            for k in range(len(plan) * READS_PER_STEP)
        ]
        dyns = [fresh_dynamic(self.index) for _ in range(REPLAYS)]
        replays, factors = [], []
        probe = self.host.probe()
        for dyn in dyns:
            replays.append(self._replay(dyn, plan, pairs))
            before, probe = probe, self.host.probe()
            factors.append((before + probe) / 2)
        if self.tracer is not None:
            dyns.append(fresh_dynamic(self.index))
            steps = [
                _traced_step(dyns[-1], a, b, w, pairs[i * READS_PER_STEP],
                             self.tracer, self.epoch)
                for i, (a, b, w) in enumerate(plan)
            ]
            before, probe = probe, self.host.probe()
            factor = (before + probe) / 2
            for insert, refinalize, read, added in steps:
                self.layers["insert"].append(insert / factor)
                self.layers["refinalize"].append(refinalize / factor)
                self.layers["read"].append(read / factor)
                self.layers["added"].append(added)
        for timings, k in ((self.update, 0), (self.read, 1)):
            samples = [replay[k] for replay in replays]
            if len({len(x) for x in samples}) != 1:
                self.tally.fail(f"epoch {self.epoch}: replays took different steps")
                break
            _add_fastest(timings, np.array(samples), np.array(factors))
        _check_epoch(dyns, self.sources, self.tally)
        self.next_read += len(pairs)
        self.epoch += 1

    def _replay(self, dyn: DynamicPLL, plan, pairs) -> Tuple[List[float], List[float]]:
        """Run the epoch's inserts and reads on *dyn*; (update, read) times."""
        update: List[float] = []
        read: List[float] = []
        for i, (a, b, w) in enumerate(plan):
            steps = pairs[i * READS_PER_STEP:(i + 1) * READS_PER_STEP]
            t0 = pc()
            try:
                dyn.insert_edge(a, b, w)
            except GraphError as exc:
                # Every replay rejects the same insert, so the replays'
                # samples still line up without this step's.
                self.tally.fail(f"insert ({a}, {b}) rejected: {exc}")
                continue
            dyn.distance(*steps[0])
            update.append(pc() - t0)
            for s, t in steps[1:]:
                t0 = pc()
                dyn.distance(s, t)
                read.append(pc() - t0)
            self.tally.add(1 + READS_PER_STEP, 0)
        return update, read

    def metrics(self, normalized: bool = True) -> Dict[str, float]:
        update = self.update.get(normalized)
        return {
            "update_p50_ms": median(update) * 1e3,
            "update_p90_ms": quantile(update, 0.90) * 1e3,
            "read_p50_us": median(self.read.get(normalized)) * 1e6,
        }


def _add_fastest(timings: Timings, samples: np.ndarray, factors: np.ndarray) -> None:
    """Per column of *samples* (replays x steps), the replay fastest at
    reference host speed, as measured and with its host factor."""
    best = np.argmin(samples / factors[:, None], axis=0)
    for step, replay in enumerate(best.tolist()):
        timings.add(float(samples[replay, step]), float(factors[replay]))


def _traced_step(dyn: DynamicPLL, a: int, b: int, w: float, pair, tracer: Tracer,
                 epoch: int) -> Tuple[float, float, float, int]:
    """One insert with the re-finalize split out of the read; returns the
    insert, refinalize and read times and the entries the insert added."""
    t0 = pc()
    step = tracer.add("update.step", t0, t0, epoch=epoch)
    added = dyn.insert_edge(a, b, w)
    t1 = pc()
    dyn.store.finalize()
    t2 = pc()
    dyn.distance(*pair)
    t3 = pc()
    tracer.add("core.dynamic.insert", t0, t1, step, added=added)
    tracer.add("core.labels.refinalize", t1, t2, step)
    tracer.add("core.query.read", t2, t3, step)
    tracer.close(step)
    return t1 - t0, t2 - t1, t3 - t2, added


def layer_metrics(update: List[float], layers: Dict[str, List[float]], tally: Tally):
    """Per-layer metrics and the layer-sum check of a traced update phase.

    *update* holds the untraced update latencies, *layers* the traced
    copy's per-step insert, refinalize and read times (and entries
    added), all at reference host speed.
    """
    update_p50 = median(update)
    parts = [median(layers[k]) for k in ("insert", "refinalize", "read")]
    residual = residual_share(update_p50, parts)
    ok = abs(residual) <= UPDATE_LAYER_TOLERANCE
    tally.record(
        ok,
        f"update layers sum to {sum(parts) * 1e3:.2f}ms vs update p50 "
        f"{update_p50 * 1e3:.2f}ms (tolerance {UPDATE_LAYER_TOLERANCE:.0%})",
    )
    metrics = {
        "core.dynamic.insert_p50_us": quantile(layers["insert"], 0.5) * 1e6,
        "core.dynamic.insert_p99_us": quantile(layers["insert"], 0.99) * 1e6,
        "core.dynamic.entries_added": float(np.mean(layers["added"])),
        "core.labels.refinalize_us": median(layers["refinalize"]) * 1e6,
        "core.query.read_us": median(layers["read"]) * 1e6,
        "update.residual_share": residual,
    }
    summary = {
        "update_p50_s": update_p50,
        "steps": len(update),
        "layer_share": {
            k: v / update_p50
            for k, v in zip(("insert", "refinalize", "read"), parts)
        },
        "residual_share": residual,
        "tolerance": UPDATE_LAYER_TOLERANCE,
        "layer_sum_ok": ok,
    }
    return metrics, summary
