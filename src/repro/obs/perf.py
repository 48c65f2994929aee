"""The performance suite: small deterministic workloads, recorded runs.

One ``BENCH_<tag>.json`` file captures everything needed to compare two
revisions of this codebase: per-workload wall/simulated times and the
key operation counters (heap pops, prune hits, labels, sync bytes),
each run ``repeats`` times with the median and extremes recorded, plus
environment metadata so numbers from different machines are never
silently conflated.  :mod:`repro.obs.regression` consumes two such
files and classifies every metric as improved / unchanged / regressed.

Three metric kinds, with different noise characteristics:

* ``"time"`` — wall-clock seconds; machine- and load-dependent, gated
  with a generous default tolerance and skippable across machines.
* ``"sim"`` — simulated seconds from the discrete-event executor;
  deterministic for a fixed seed, gated tightly.
* ``"counter"`` — operation counts; deterministic except where noted
  (threaded-build label counts depend on commit interleaving), gated
  exactly by default with per-metric overrides.

The workload set covers every execution mode: serial build, threaded
build at p ∈ {1, 4}, multi-process build, simulated build, cluster
build with one sync, a query batch, a TCP server round-trip, a seeded
closed-loop traffic replay with an SLO verdict, and one overhead gate
per diagnostic hook (explain, audit, qlog, check, telemetry).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.env import environment_metadata

__all__ = [
    "BENCH_SCHEMA",
    "PerfError",
    "Workload",
    "default_workloads",
    "run_suite",
    "read_bench",
    "write_bench",
    "render_bench",
    "DEFAULT_TOLERANCES",
]

BENCH_SCHEMA = "parapll-bench/1"

#: Default relative tolerances per metric kind (see module docstring).
DEFAULT_TOLERANCES: Dict[str, float] = {
    "time": 0.35,
    "sim": 0.02,
    "counter": 0.0,
}

#: Absolute slack per kind: differences below this never count as a
#: change (guards tiny-workload timing noise and float drift).
ABS_EPSILON: Dict[str, float] = {
    "time": 0.005,
    "sim": 1e-9,
    "counter": 0.5,
}


class PerfError(ReproError):
    """Raised for invalid perf-suite configuration or result files."""


def _metric(
    value: float, kind: str, unit: str, tol: Optional[float] = None
) -> Dict[str, Any]:
    if kind not in DEFAULT_TOLERANCES:
        raise PerfError(f"unknown metric kind {kind!r}")
    return {
        "value": float(value),
        "kind": kind,
        "unit": unit,
        "tol": DEFAULT_TOLERANCES[kind] if tol is None else float(tol),
    }


def _counter_value(name: str) -> float:
    from repro.obs.metrics import get_registry

    metric = get_registry().get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for _key, series in metric.series_items():
        value = series.value()  # type: ignore[attr-defined]
        if isinstance(value, dict):
            total += float(value["sum"])
        else:
            total += float(value)
    return total


class PerfContext:
    """Shared state for one suite run: the workload graph and knobs."""

    def __init__(self, scale: float, seed: int, dataset: str) -> None:
        from repro.generators.paper import load_dataset

        self.scale = scale
        self.seed = seed
        self.dataset = dataset
        self.graph = load_dataset(dataset, scale=scale, seed=seed)


class Workload:
    """One named, repeatable measurement.

    Args:
        name: stable identifier (a key of the BENCH file).
        fn: callable taking a :class:`PerfContext` and returning the
            metric dict for one run; called once per repeat with the
            obs registry freshly reset.
        timeline: optional callable producing a JSON-safe timeline
            summary (per-worker fractions) recorded once per suite run.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[PerfContext], Dict[str, Dict[str, Any]]],
        timeline: Optional[Callable[[PerfContext], Dict[str, Any]]] = None,
    ) -> None:
        self.name = name
        self.fn = fn
        self.timeline = timeline


# ----------------------------------------------------------------------
# Workload implementations
# ----------------------------------------------------------------------
def _build_counters(tol_labels: float = 0.0) -> Dict[str, Dict[str, Any]]:
    """The build-side operation counters, read from the registry."""
    return {
        "heap_pops": _metric(
            _counter_value("parapll_build_heap_pops_total"), "counter", "ops"
        ),
        "prune_hits": _metric(
            _counter_value("parapll_build_prune_hits_total"),
            "counter",
            "ops",
            tol=tol_labels,
        ),
        "labels": _metric(
            _counter_value("parapll_build_labels_total"),
            "counter",
            "entries",
            tol=tol_labels,
        ),
    }


def _wl_serial_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    from repro.core.serial import build_serial

    t0 = time.perf_counter()
    build_serial(ctx.graph)
    wall = time.perf_counter() - t0
    out = {"wall_seconds": _metric(wall, "time", "s")}
    out.update(_build_counters())
    return out


def _wl_thread_build(p: int):
    def run(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
        from repro.parallel.threads import build_parallel_threads

        t0 = time.perf_counter()
        build_parallel_threads(ctx.graph, p, policy="dynamic")
        wall = time.perf_counter() - t0
        out = {"wall_seconds": _metric(wall, "time", "s")}
        # With p > 1, prune effectiveness depends on commit
        # interleaving, so label/pop counts are noisy by nature.
        out.update(_build_counters(tol_labels=0.0 if p == 1 else 0.5))
        if p > 1:
            out["heap_pops"]["tol"] = 0.5
        out["roots"] = _metric(
            _counter_value("parapll_build_roots_total"), "counter", "roots"
        )
        return out

    return run


def _wl_multicore_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Serial vs. 4-process shared-memory build on the perf graph.

    The wall clocks and the derived speedup are kind ``time`` (machine-
    dependent: the speedup only materialises with >= 4 real cores, so
    CI compares with ``--ignore-kinds time``); the gating metrics are
    the deterministic ones — every root committed exactly once and the
    procs index answering a query sample identically to serial.
    """
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.parallel.procs import build_parallel_procs

    t0 = time.perf_counter()
    serial = PLLIndex.build(ctx.graph)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    procs = build_parallel_procs(ctx.graph, 4, policy="dynamic")
    procs_wall = time.perf_counter() - t0
    rng = np.random.default_rng(ctx.seed)
    n = ctx.graph.num_vertices
    pairs = rng.integers(0, n, size=(256, 2))
    exact = bool(
        np.allclose(
            serial.distance_batch(pairs),
            procs.distance_batch(pairs),
            equal_nan=True,
        )
    )
    return {
        "serial_wall_seconds": _metric(serial_wall, "time", "s"),
        "procs_wall_seconds": _metric(procs_wall, "time", "s"),
        "speedup_x": _metric(
            serial_wall / procs_wall if procs_wall else 0.0, "time", "x"
        ),
        "roots_committed": _metric(
            _counter_value("parapll_worker_roots_total"), "counter", "roots"
        ),
        "query_exact": _metric(1.0 if exact else 0.0, "counter", "bool"),
    }


def _run_sim(ctx: PerfContext):
    from repro.sim.executor import simulate_intra_node

    return simulate_intra_node(
        ctx.graph,
        4,
        policy="dynamic",
        jitter=0.15,
        worker_jitter=0.25,
        seed=ctx.seed + 4,
    )


def _wl_sim_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    _index, run = _run_sim(ctx)
    out = {
        "makespan_sim_seconds": _metric(run.makespan, "sim", "s"),
        "computation_sim_seconds": _metric(
            run.computation_time, "sim", "s"
        ),
    }
    out.update(_build_counters())
    return out


def _wl_sim_build_timeline(ctx: PerfContext) -> Dict[str, Any]:
    """Traced sim build reduced to per-worker fractions (JSON-safe)."""
    from repro import obs
    from repro.obs.timeline import analyze_critical_path

    previous = obs.current_config()
    obs.get_tracer().clear()
    obs.configure(tracing=True)
    try:
        _run_sim(ctx)
        report = analyze_critical_path(task_names=("root_search",))
    finally:
        obs.configure(tracing=previous.tracing)
        obs.get_tracer().clear()
    return {
        "makespan_sim_seconds": report.makespan,
        "chain_tasks": len(report.chain),
        "chain_seconds": report.chain_seconds,
        "chain_coverage": report.chain_coverage,
        "workers": [
            {
                "lane": lane.lane,
                "tasks": lane.tasks,
                "busy": lane.busy,
                "lock_wait": lane.lock_wait,
                "idle": lane.idle,
            }
            for lane in report.lanes
        ],
    }


def _wl_cluster_build(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    from repro.cluster.parapll import simulate_cluster

    _index, run = simulate_cluster(
        ctx.graph,
        2,
        threads_per_node=2,
        policy="dynamic",
        syncs=1,
        jitter=0.15,
        worker_jitter=0.25,
        seed=ctx.seed + 9,
    )
    return {
        "makespan_sim_seconds": _metric(run.makespan, "sim", "s"),
        "communication_sim_seconds": _metric(
            run.communication_time, "sim", "s"
        ),
        "sync_entries": _metric(
            _counter_value("parapll_cluster_sync_entries"),
            "counter",
            "entries",
        ),
        "sync_bytes": _metric(
            _counter_value("parapll_cluster_bytes_total"), "counter", "B"
        ),
        "redundant_labels": _metric(
            _counter_value("parapll_cluster_redundant_labels_total"),
            "counter",
            "entries",
        ),
    }


def _wl_query_batch(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    import numpy as np

    from repro.core.index import PLLIndex

    index = PLLIndex.build(ctx.graph)
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed)
    pairs = rng.integers(0, n, size=(2000, 2))
    t0 = time.perf_counter()
    for s, t in pairs:
        index.query(int(s), int(t))
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": _metric(wall, "time", "s"),
        "queries": _metric(len(pairs), "counter", "queries"),
    }


def _wl_batch_query(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """The vectorised batch kernel vs the per-pair Python loop.

    Times ``query_distance_batch`` on 10k pairs against the equivalent
    scalar ``query_distance`` loop over the same pairs, and counts how
    many answers agree bit-for-bit (``batch_matches`` must equal
    ``pairs`` — the kernel is exact, not approximate).  The
    ``batch_over_scalar`` ratio is the batch wall divided by the scalar
    wall: lower is better.  The scalar join merges plain Python lists,
    so the kernel's lead over it is ~2.5x on this graph, not the ~4x
    it had over the old numpy-scalar loop; a ratio near 1 would mean
    the kernel no longer pays.
    """
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.core.query import query_distance, query_distance_batch

    index = PLLIndex.build(ctx.graph)
    store = index.store
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed + 23)
    pairs = rng.integers(0, n, size=(10_000, 2))

    t0 = time.perf_counter()
    batch_out = query_distance_batch(store, pairs)
    batch_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar_out = np.array(
        [query_distance(store, int(s), int(t)) for s, t in pairs]
    )
    scalar_wall = time.perf_counter() - t0

    matches = int(np.sum(batch_out == scalar_out))
    return {
        "batch_seconds": _metric(batch_wall, "time", "s"),
        "scalar_seconds": _metric(scalar_wall, "time", "s"),
        # Dimensionless wall ratio; generous tol — both walls jitter.
        "batch_over_scalar": _metric(
            batch_wall / scalar_wall, "time", "x", tol=1.0
        ),
        "batch_matches": _metric(float(matches), "counter", "pairs"),
        "pairs": _metric(float(len(pairs)), "counter", "pairs"),
    }


def _wl_server_roundtrip(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    import numpy as np

    from repro.core.index import PLLIndex
    from repro.service.oracle import DistanceOracle
    from repro.service.server import DistanceClient, DistanceServer

    index = PLLIndex.build(ctx.graph)
    oracle = DistanceOracle(index)
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed)
    pairs = rng.integers(0, n, size=(100, 2))
    with DistanceServer(oracle) as server:
        with DistanceClient("127.0.0.1", server.port) as client:
            client.ping()  # connection warm-up, excluded from timing
            t0 = time.perf_counter()
            for s, t in pairs:
                client.distance(int(s), int(t))
            wall = time.perf_counter() - t0
    return {
        "wall_seconds": _metric(wall, "time", "s"),
        "requests": _metric(len(pairs), "counter", "requests"),
    }


def _wl_index_invariants(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """``parapll check index`` smoke: every BENCH file records whether a
    threaded build of the suite graph passes the label-invariant
    verifier, plus the violation/redundancy counts — so a concurrency
    regression that corrupts labels (rather than slowing them down)
    still fails the perf gate."""
    from repro.check.invariants import verify_index
    from repro.parallel.threads import build_parallel_threads

    index = build_parallel_threads(ctx.graph, 4, policy="dynamic")
    t0 = time.perf_counter()
    report = verify_index(index, samples=32, seed=ctx.seed)
    wall = time.perf_counter() - t0
    return {
        "verify_seconds": _metric(wall, "time", "s"),
        "invariants_ok": _metric(
            1.0 if report.ok else 0.0, "counter", "bool"
        ),
        "invariant_violations": _metric(
            float(len(report.violations)), "counter", "violations"
        ),
        # Redundant labels are legal but worth watching: a sustained
        # order-of-magnitude jump means pruning got much less
        # effective.  Commit interleaving makes the count swing ~2.5x
        # run to run, hence the very loose tolerance.
        "redundant_labels": _metric(
            float(report.redundant_labels), "counter", "entries", tol=3.0
        ),
        "sampled_pairs": _metric(
            float(report.sampled_pairs), "counter", "pairs"
        ),
    }


def _wl_serve_replay(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Seeded closed-loop replay against a live server, gated.

    This is the measurement ROADMAP item 2's sharded tier will be
    accepted against: a deterministic Zipf-skewed request sequence
    (same seed ⇒ same pairs, every run) pushed through the real TCP
    stack by concurrent clients, reporting throughput and tail
    latencies.  ``throughput_rps`` is recorded for the baseline but
    carries a huge tolerance — the regression gate is lower-is-better,
    so the gated forms are ``us_per_request`` and the p50/p99 walls.
    ``errors`` and ``breached_targets`` are exact: replaying a healthy
    index through a healthy server must produce neither.
    """
    from repro.core.index import PLLIndex
    from repro.obs.slo import SLOTracker
    from repro.service.oracle import DistanceOracle
    from repro.service.replay import ReplayConfig, run_replay
    from repro.service.server import DistanceServer

    index = PLLIndex.build(ctx.graph)
    oracle = DistanceOracle(index)
    config = ReplayConfig(
        mode="closed",
        source="zipf",
        requests=600,
        clients=4,
        seed=ctx.seed,
    )
    # A private tracker keeps the replay's SLO windows out of the
    # process-wide one (and vice versa).
    with DistanceServer(oracle, slo_tracker=SLOTracker()) as server:
        report = run_replay(config, host="127.0.0.1", port=server.port)
    lat = report["latency_us"]
    outcomes = report["outcomes"]
    return {
        "wall_seconds": _metric(report["wall_seconds"], "time", "s"),
        "us_per_request": _metric(
            report["wall_seconds"] * 1e6 / report["requests"], "time", "us"
        ),
        "p50_us": _metric(lat["p50"], "time", "us"),
        "p99_us": _metric(lat["p99"], "time", "us", tol=1.0),
        "throughput_rps": _metric(
            report["throughput_rps"], "time", "req/s", tol=5.0
        ),
        "requests": _metric(float(report["requests"]), "counter", "requests"),
        "errors": _metric(float(outcomes.get("error", 0)), "counter", "requests"),
        "breached_targets": _metric(
            float(len(report["verdict"]["breached"])), "counter", "targets"
        ),
    }


def _wall(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> float:
    """Seconds one call ``fn(*args, **kwargs)`` takes."""
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def _min_of(n: int, fn: Callable[[], float]) -> float:
    """The smallest of *n* calls of *fn*, a function returning seconds."""
    return min(fn() for _ in range(n))


def _gate(fraction: float, bound: float) -> Dict[str, Any]:
    """The hard gate: exact counter, 1.0 iff *fraction* <= *bound*."""
    return _metric(1.0 if fraction <= bound else 0.0, "counter", "bool")


def _wl_hook_overhead(ctx: PerfContext) -> Dict[str, Dict[str, Any]]:
    """Each diagnostic hook must cost the path it rides (nearly) nothing.

    A 5% or 10% bound cannot be asserted by differencing two whole
    walls: on the sub-100ms suite graph, run-to-run wall noise is ±10%,
    larger than the bound, so that gate would fail on noise, not on
    regressions.  Instead each hook's *added work* is timed directly
    and divided by the plain wall of the path it rides, both min-of-3.
    The true fractions are a few percent, so the noise multiplies a
    small number and the gates hold deterministically.
    ``<hook>_within_gate`` (exact counter) fails the comparison outright
    when a fraction exceeds its bound; each end-to-end hooked/plain wall
    ratio is kept as an informational time metric.

    The plain walls are measured once and shared: ``serial_build_seconds``
    (``build_serial``), ``thread_build_seconds``
    (``build_parallel_threads``, p=4, dynamic) and ``served_seconds``
    (1000 distance requests over the loopback TCP stack).  The hooks
    and their added work:

    * **explain** runs on its own code path
      (:func:`repro.core.query.query_candidates`), not inside the merge
      join, so its gate is the plain ``query_distance`` loop's own time
      metric; every explained distance must equal the plain query.
    * **audit** (build monitor, <= 5% of the serial build): one
      ``root_done`` per root on the sampling schedule a monitored build
      drives, which ``audit_progress_events`` pins.  A full
      ``audit_index`` pass is timed too; its dominated count must be
      zero, as a serial build is canonical by construction.
    * **qlog** (query log + SLO tracker, <= 5% of a served request at
      the recommended 5% sampling): one ``record_query`` and one
      ``SLOTracker.record`` per request.  Full capture is reported
      informationally; ``qlog_records`` pins the seeded sampler.
    * **check** (vector-clock sanitizer, <= 10% of the threaded build):
      the hook schedule one sanitized build observed, replayed against a
      fresh engine.  That build must be race-free.
    * **telemetry** (relay producer, <= 5% of the threaded build): one
      ``publish_event`` per committed root against an installed bus.
      One build with the relay plane live pins the collector's merge
      exact, with zero drops, malformed frames and merge errors.

    With no sanitizer or bus installed the hooks must dispatch to
    nothing: ``check_hooks_active_when_off`` and
    ``telemetry_bus_active_when_off`` pin the off-paths to zero.  The
    garbage collector is off for the whole workload, since automatic
    gen2 passes over the heap the suite has built would make the
    fractions track heap size rather than the hooks; the caller's GC
    state and sanitizer are restored on exit.
    """
    import gc

    import numpy as np

    from repro.check import hooks as _check_hooks
    from repro.core.index import PLLIndex
    from repro.core.serial import build_serial
    from repro.parallel.threads import build_parallel_threads

    gc_was_enabled = gc.isenabled()
    ambient = _check_hooks.get_active()
    gc.disable()
    _check_hooks.set_active(None)
    try:
        index = PLLIndex.build(ctx.graph)
        serial = _min_of(3, lambda: _wall(build_serial, ctx.graph))
        threads = _min_of(
            3,
            lambda: _wall(
                build_parallel_threads, ctx.graph, 4, policy="dynamic"
            ),
        )
        rng = np.random.default_rng(ctx.seed + 31)
        n = ctx.graph.num_vertices
        pairs = [
            (int(s), int(t)) for s, t in rng.integers(0, n, size=(1000, 2))
        ]
        served = _served_seconds(index, pairs)
        out = {
            "serial_build_seconds": _metric(serial, "time", "s"),
            "thread_build_seconds": _metric(threads, "time", "s"),
            "served_seconds": _metric(served, "time", "s"),
        }
        out.update(_explain_cost(ctx, index))
        out.update(_audit_cost(ctx, index, serial))
        out.update(_qlog_cost(ctx, pairs, served))
        out.update(_check_cost(ctx, threads))
        out.update(_telemetry_cost(ctx, threads))
        return out
    finally:
        _check_hooks.set_active(ambient)
        if gc_was_enabled:
            gc.enable()


def _served_seconds(index: Any, pairs: List[Any]) -> float:
    """Min-of-3 wall of *pairs* sent as plain distance requests."""
    from repro.obs.slo import SLOTracker
    from repro.service.oracle import DistanceOracle
    from repro.service.server import DistanceClient, DistanceServer

    def loop(client: DistanceClient) -> None:
        for s, t in pairs:
            client.distance(s, t)

    oracle = DistanceOracle(index, cache_size=1024)
    with DistanceServer(oracle, slo_tracker=SLOTracker()) as server:
        with DistanceClient("127.0.0.1", server.port) as client:
            return _min_of(3, lambda: _wall(loop, client))


def _explain_cost(ctx: PerfContext, index: Any) -> Dict[str, Dict[str, Any]]:
    import numpy as np

    from repro.core.paths import isclose_distance
    from repro.core.query import query_distance

    store = index.store
    n = ctx.graph.num_vertices
    rng = np.random.default_rng(ctx.seed + 17)
    pairs = [(int(s), int(t)) for s, t in rng.integers(0, n, size=(100, 2))]

    t0 = time.perf_counter()
    plain = [query_distance(store, s, t) for s, t in pairs]
    plain_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    explanations = [index.explain(s, t) for s, t in pairs]
    explain_wall = time.perf_counter() - t0

    # atol=0.0 makes isclose_distance an exact-equality test (with the
    # INF sentinel handled): EXPLAIN must reproduce the query verbatim.
    matches = sum(
        1
        for d, e in zip(plain, explanations)
        if isclose_distance(d, e.distance, atol=0.0)
    )
    return {
        "explain_plain_query_seconds": _metric(plain_wall, "time", "s"),
        "explain_seconds": _metric(explain_wall, "time", "s"),
        "explain_matches": _metric(float(matches), "counter", "pairs"),
        "explain_pairs": _metric(float(len(pairs)), "counter", "pairs"),
    }


def _audit_cost(
    ctx: PerfContext, index: Any, serial: float
) -> Dict[str, Dict[str, Any]]:
    from repro.core.serial import build_serial
    from repro.obs import buildmon as _buildmon
    from repro.obs.audit import audit_index
    from repro.obs.buildmon import BuildMonitor
    from repro.types import SearchStats

    n = ctx.graph.num_vertices

    def _monitor() -> BuildMonitor:
        return BuildMonitor(
            total_roots=n,
            sample_every=max(1, n // 20),
            interval_seconds=None,
            keep_per_root=False,
        )

    events = [0]

    def monitored_wall() -> float:
        monitor = _monitor()
        with _buildmon.monitored(monitor):
            wall = _wall(build_serial, ctx.graph)
        events[0] = len(monitor.events)
        return wall

    monitored = _min_of(3, monitored_wall)

    # The monitor's entire footprint in a serial build: one root_done
    # per root, same sampling schedule, same stats bookkeeping.
    hook_monitor = _monitor()
    stats = SearchStats(root=0, settled=20, pruned=8, labels_added=12)
    t0 = time.perf_counter()
    for root in range(n):
        hook_monitor.root_done(0, root, stats=stats)
    fraction = (time.perf_counter() - t0) / serial

    t0 = time.perf_counter()
    report = audit_index(index, source="perf")
    audit_wall = time.perf_counter() - t0

    return {
        "audit_monitored_build_seconds": _metric(monitored, "time", "s"),
        "audit_monitor_overhead_ratio": _metric(
            monitored / serial, "time", "x", tol=0.5
        ),
        "audit_monitor_hook_fraction": _metric(
            fraction, "time", "x", tol=1.0
        ),
        "audit_within_gate": _gate(fraction, 0.05),
        "audit_progress_events": _metric(
            float(events[0]), "counter", "events"
        ),
        "audit_seconds": _metric(audit_wall, "time", "s"),
        "audit_dominated_entries": _metric(
            float(report["dominated"]["count"]), "counter", "entries"
        ),
        "audit_label_entries": _metric(
            float(report["total_entries"]), "counter", "entries"
        ),
    }


def _qlog_cost(
    ctx: PerfContext, pairs: List[Any], served: float
) -> Dict[str, Dict[str, Any]]:
    from repro.obs import qlog as _qlog
    from repro.obs.slo import SLOTracker

    def hook_wall(sample: float) -> tuple:
        recorder = _qlog.QueryLogRecorder(sample=sample, seed=ctx.seed)
        tracker = SLOTracker()

        def loop() -> float:
            recorder.clear()
            t0 = time.perf_counter()
            for s, t in pairs:
                _qlog.record_query("distance", s, t, 10.0)
                tracker.record(1e-5, ok=True)
            return time.perf_counter() - t0

        _qlog.install(recorder)
        try:
            return _min_of(3, loop), recorder.sampled
        finally:
            _qlog.uninstall()

    sampled_wall, records = hook_wall(0.05)
    full_wall, _ = hook_wall(1.0)
    fraction = sampled_wall / served
    return {
        "qlog_hook_fraction": _metric(fraction, "time", "x", tol=1.0),
        "qlog_full_sample_fraction": _metric(
            full_wall / served, "time", "x", tol=1.0
        ),
        "qlog_within_gate": _gate(fraction, 0.05),
        "qlog_records": _metric(float(records), "counter", "records"),
        "qlog_pairs": _metric(float(len(pairs)), "counter", "pairs"),
    }


def _check_cost(ctx: PerfContext, threads: float) -> Dict[str, Dict[str, Any]]:
    from repro.check import hooks as _check_hooks
    from repro.check.vectorclock import VectorClockSanitizer
    from repro.parallel.threads import build_parallel_threads

    hooks_active = 1.0 if _check_hooks.get_active() is not None else 0.0
    build_vc = VectorClockSanitizer()
    with build_vc:
        sanitized = _wall(
            build_parallel_threads, ctx.graph, 4, policy="dynamic"
        )

    # Replay the observed hook schedule against a fresh engine: that
    # loop IS the sanitizer's entire footprint in the build.  The
    # instrumented build splits its accesses into two measured
    # populations — same-owner re-writes riding the FastTrack same-epoch
    # fast path (the overwhelming majority: commits to a vertex's label
    # streak from one worker) and full epoch-allocating, stack-capturing
    # slow-path accesses — and the replay reproduces that observed mix
    # exactly: a fresh location per slow-path access (a one-location
    # replay would ride the fast path and dodge the conflict checks),
    # then the fast-path population as repeated writes to one hot
    # location.
    slow = build_vc.accesses_tracked - build_vc.fastpath_hits
    names = [f"perf.store.{i}" for i in range(slow)]
    syncs = build_vc.sync_events // 2

    def replay_wall() -> float:
        replay = VectorClockSanitizer()
        lock = replay.make_lock("perf.commit")
        t0 = time.perf_counter()
        for name in names:
            with lock:
                replay.record_access(name, write=True)
        for _ in range(build_vc.fastpath_hits):
            with lock:
                replay.record_access("perf.store.hot", write=True)
        for i in range(syncs):
            replay.thread_fork(f"perf-w{i}")
            replay.thread_join(f"perf-w{i}")
        return time.perf_counter() - t0

    fraction = _min_of(3, replay_wall) / threads
    return {
        "check_sanitized_build_seconds": _metric(sanitized, "time", "s"),
        "check_sanitizer_overhead_ratio": _metric(
            sanitized / threads, "time", "x", tol=0.5
        ),
        "check_sanitizer_hook_fraction": _metric(
            fraction, "time", "x", tol=1.0
        ),
        "check_within_gate": _gate(fraction, 0.10),
        "check_vc_races": _metric(
            float(len(build_vc.reports)), "counter", "races"
        ),
        # Commit traffic tracks labels-added, which is interleaving-
        # dependent at p=4 (same reason thread_build_p4 widens labels).
        "check_vc_accesses": _metric(
            float(build_vc.accesses_tracked), "counter", "accesses",
            tol=0.5,
        ),
        "check_vc_fastpath_hits": _metric(
            float(build_vc.fastpath_hits), "counter", "accesses",
            tol=0.5,
        ),
        "check_vc_sync_events": _metric(
            float(build_vc.sync_events), "counter", "events"
        ),
        "check_hooks_active_when_off": _metric(
            hooks_active, "counter", "bool"
        ),
    }


def _telemetry_cost(
    ctx: PerfContext, threads: float
) -> Dict[str, Dict[str, Any]]:
    from repro.obs import bus as _bus
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.relay import Collector, RelayClient
    from repro.parallel.threads import build_parallel_threads

    n = ctx.graph.num_vertices
    bus_active = 1.0 if _bus.active() is not None else 0.0

    # End-to-end: one build with the relay plane fully live.  The
    # collector merges into a *private* registry (merging into the one
    # the client diffs would re-ship every merged increment forever)
    # and the bus is sized to the build, so backpressure, not capacity,
    # is under test.
    collector = Collector("127.0.0.1", 0, registry=MetricsRegistry()).start()
    try:
        client = RelayClient(
            collector.host,
            collector.port,
            rank=0,
            bus=_bus.TelemetryBus(capacity=4 * n + 1024),
            flush_interval=0.05,
        )
        try:
            relayed = _wall(
                build_parallel_threads, ctx.graph, 4, policy="dynamic"
            )
        finally:
            client.close()
        # close() flushed synchronously; wait for the collector's
        # reader thread to drain the socket and see EOF.
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            sources = collector.stats()["sources"]
            if sources and not any(s["connected"] for s in sources.values()):
                break
            time.sleep(0.01)
        stats = collector.stats()
        # Shipped deltas always sum to the source registry's cumulative
        # total (see repro.obs.bus.MetricsDelta), so the merged counter
        # must equal it exactly.
        expected_roots = _counter_value("parapll_build_roots_total")
        merged_roots = 0.0
        for metric in collector.registry.snapshot():
            if metric["name"] == "parapll_build_roots_total":
                merged_roots = sum(float(s["value"]) for s in metric["series"])
        event_frames = sum(
            src["by_kind"].get("events", 0)
            for src in stats["sources"].values()
        )
    finally:
        collector.close()

    # The hooks' added work: the exact per-root producer cost, the
    # observed number of times, against an installed bus.
    def hook_wall() -> float:
        _bus.install(_bus.TelemetryBus(capacity=n + 16))
        try:
            t0 = time.perf_counter()
            for root in range(n):
                _bus.publish_event("root_commit", worker=0, root=root, labels=8)
            return time.perf_counter() - t0
        finally:
            _bus.uninstall()

    fraction = _min_of(3, hook_wall) / threads
    return {
        "telemetry_relay_build_seconds": _metric(relayed, "time", "s"),
        "telemetry_relay_overhead_ratio": _metric(
            relayed / threads, "time", "x", tol=0.5
        ),
        "telemetry_relay_hook_fraction": _metric(
            fraction, "time", "x", tol=1.0
        ),
        "telemetry_within_gate": _gate(fraction, 0.05),
        "telemetry_merge_exact": _metric(
            1.0 if merged_roots == expected_roots else 0.0, "counter", "bool"
        ),
        # Every root committed with the bus installed arrives as one
        # event frame.
        "telemetry_event_frames": _metric(
            float(event_frames), "counter", "frames"
        ),
        "telemetry_relay_drops": _metric(
            float(stats["dropped"]), "counter", "frames"
        ),
        "telemetry_malformed_frames": _metric(
            float(stats["malformed"]), "counter", "frames"
        ),
        "telemetry_merge_errors": _metric(
            float(stats["merge_errors"]), "counter", "errors"
        ),
        "telemetry_bus_active_when_off": _metric(
            bus_active, "counter", "bool"
        ),
    }


def default_workloads() -> List[Workload]:
    """The standard PerfSuite (one Workload per execution mode)."""
    return [
        Workload("serial_build", _wl_serial_build),
        Workload("thread_build_p1", _wl_thread_build(1)),
        Workload("thread_build_p4", _wl_thread_build(4)),
        Workload("build_multicore", _wl_multicore_build),
        Workload("sim_build_p4", _wl_sim_build, timeline=_wl_sim_build_timeline),
        Workload("cluster_build_q2c1", _wl_cluster_build),
        Workload("query_batch", _wl_query_batch),
        Workload("batch_query", _wl_batch_query),
        Workload("server_roundtrip", _wl_server_roundtrip),
        Workload("index_invariants", _wl_index_invariants),
        Workload("serve_replay", _wl_serve_replay),
        Workload("hook_overhead", _wl_hook_overhead),
    ]


# ----------------------------------------------------------------------
# Suite runner
# ----------------------------------------------------------------------
def run_suite(
    repeats: int = 3,
    scale: float = 1.0,
    seed: int = 42,
    dataset: str = "Gnutella",
    tag: str = "dev",
    workloads: Optional[Sequence[Workload]] = None,
    include_timeline: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the PerfSuite and return the BENCH document.

    Each workload runs *repeats* times with the metrics registry reset
    per run; per-metric medians and extremes are recorded.  Counters are
    deterministic, so their median doubles as an exact fingerprint of
    the algorithmic work done.

    Raises:
        PerfError: for a non-positive repeat count.
    """
    from repro import obs

    if repeats < 1:
        raise PerfError("repeats must be >= 1")
    ctx = PerfContext(scale=scale, seed=seed, dataset=dataset)
    workloads = list(workloads) if workloads is not None else default_workloads()

    results: Dict[str, Any] = {}
    for wl in workloads:
        if progress:
            progress(f"running {wl.name} x{repeats}")
        runs: List[Dict[str, Dict[str, Any]]] = []
        for _ in range(repeats):
            obs.reset()
            runs.append(wl.fn(ctx))
        obs.reset()
        metrics: Dict[str, Any] = {}
        for name in runs[0]:
            samples = [run[name]["value"] for run in runs if name in run]
            meta = runs[0][name]
            metrics[name] = {
                "median": statistics.median(samples),
                "min": min(samples),
                "max": max(samples),
                "runs": samples,
                "kind": meta["kind"],
                "unit": meta["unit"],
                "tol": meta["tol"],
            }
        entry: Dict[str, Any] = {"metrics": metrics}
        if include_timeline and wl.timeline is not None:
            entry["timeline"] = wl.timeline(ctx)
        results[wl.name] = entry

    return {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "environment": environment_metadata(),
        "config": {
            "repeats": repeats,
            "scale": scale,
            "seed": seed,
            "dataset": dataset,
        },
        "workloads": results,
    }


# ----------------------------------------------------------------------
# BENCH file IO
# ----------------------------------------------------------------------
def write_bench(doc: Dict[str, Any], path: str) -> None:
    """Write a BENCH document as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_bench(path: str) -> Dict[str, Any]:
    """Read and validate a BENCH document.

    Raises:
        PerfError: for unreadable files or unknown schema versions.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PerfError(f"cannot read benchmark file {path!r}: {exc}")
    if not isinstance(doc, dict) or "schema" not in doc:
        raise PerfError(f"{path!r} is not a BENCH file (no schema key)")
    if doc["schema"] != BENCH_SCHEMA:
        raise PerfError(
            f"{path!r} has schema {doc['schema']!r}; this build reads "
            f"{BENCH_SCHEMA!r}"
        )
    if "workloads" not in doc:
        raise PerfError(f"{path!r} has no workloads section")
    return doc


def render_bench(doc: Dict[str, Any]) -> str:
    """Terminal summary of one BENCH document (``parapll perf report``)."""
    env = doc.get("environment", {})
    cfg = doc.get("config", {})
    sha = env.get("git_sha") or "unknown"
    lines = [
        f"benchmark {doc.get('tag', '?')}  ({doc.get('schema')})",
        f"  recorded {env.get('timestamp_utc', '?')}  git {sha[:12]}",
        f"  python {env.get('python', '?')} on {env.get('platform', '?')}"
        f"  ({env.get('cpu_count', '?')} cpus)",
        f"  repeats={cfg.get('repeats', '?')} scale={cfg.get('scale', '?')}"
        f" dataset={cfg.get('dataset', '?')}",
    ]
    for name in sorted(doc.get("workloads", {})):
        entry = doc["workloads"][name]
        lines.append(f"{name}:")
        for metric in sorted(entry.get("metrics", {})):
            m = entry["metrics"][metric]
            value = m["median"]
            shown = (
                f"{value:.5f}" if isinstance(value, float) and value < 1e4
                else f"{value:.0f}"
            )
            lines.append(
                f"  {metric:<26} {shown:>14} {m['unit']:<7} "
                f"[{m['kind']}, tol {m['tol']:.0%}]"
            )
        timeline = entry.get("timeline")
        if timeline:
            lines.append(
                f"  timeline: chain {timeline['chain_tasks']} tasks "
                f"covering {timeline['chain_coverage']:.0%} of "
                f"{timeline['makespan_sim_seconds']:.4f} sim-s"
            )
            for w in timeline.get("workers", []):
                lines.append(
                    f"    {w['lane']:<10} busy {w['busy']:6.1%}  "
                    f"lock-wait {w['lock_wait']:6.1%}  idle {w['idle']:6.1%}"
                )
    return "\n".join(lines)
