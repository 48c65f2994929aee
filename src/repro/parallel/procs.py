"""Process-based ParaPLL: true multi-core builds over shared memory.

:mod:`repro.parallel.threads` proves ParaPLL's concurrent correctness
but is GIL-bound; this module is the paper's actual speedup story.
Each worker is an OS process with its own Python interpreter running
pruned Dijkstra roots on a real core.  What crosses the process
boundary is kept to the minimum the algorithm needs:

* **The graph CSR** lives in one ``multiprocessing.shared_memory``
  segment (:class:`~repro.parallel.shm.SharedGraph`), attached
  zero-copy by every worker — ``p`` processes, one physical graph.
* **Committed labels** live in an append-only shared log
  (:class:`~repro.parallel.shm.LabelLog`).  The parent is the *single
  writer* — Algorithm 2's ``Lock(L)`` critical section collapses into
  one process — and workers sync a local mirror from the log at task
  boundaries, lock-free.
* **Label deltas** ship back over per-worker pipes as numpy arrays;
  the parent commits them with commit-on-completion visibility and
  only then dispatches the next root to that worker, so a worker
  always prunes against a label set that includes everything it has
  produced itself.

Visibility is *coarser* than the thread backend's (a worker sees peer
labels committed up to its own task grab, not mid-search), which by
Proposition 1 costs only redundant entries, never wrong distances —
exactly the delayed-synchronisation regime the paper's Proposition 1
covers, and the reason finalized labels stay query-exact vs. serial.

Task assignment reuses :mod:`repro.parallel.task_manager` unchanged:
the policies run in the parent, and the pipes form the process-safe
dispatch channel.  Failures keep the thread backend's shape — the
first failing worker's exception is re-raised ``from`` a
:class:`~repro.errors.TaskError` naming worker and root — and the
build fail-fasts: the first failing worker raises a shared
cancellation event before it reports, so surviving workers stop at
their next task boundary instead of waiting on the parent's round trip.  A worker that dies without a
goodbye (SIGKILL, OOM) is detected through its process sentinel and
reported the same way instead of hanging the build.

Telemetry crosses the fork boundary via the PR-10 relay plane: pass
``relay=(host, port)`` of a running
:class:`~repro.obs.relay.Collector` and each worker opens a
:class:`~repro.obs.relay.RelayClient` with its worker id as rank, so
child-side search metrics, spans and flight-recorder events stitch
into the parent's registry.  The parent itself reports the commit
plane (buildmon progress, commit counters, bus events) directly.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.check import hooks as _check_hooks
from repro.core.index import PLLIndex
from repro.core.labels import LabelStore
from repro.errors import TaskError
from repro.graph.csr import CSRGraph
from repro.graph.order import by_degree
from repro.obs import buildmon as _buildmon
from repro.obs import bus as _bus
from repro.obs import config as _obs_config
from repro.obs import flightrec as _flightrec
from repro.obs import instruments as _inst
from repro.obs import trace as _trace
from repro.parallel.shm import GrowableLabelLog, LabelLog, SharedGraph
from repro.parallel.task_manager import make_assignment
from repro.parallel.threads import WorkerFailure
from repro.types import IndexStats, SearchStats

__all__ = ["build_parallel_procs"]

#: Fields shipped for one root's SearchStats (order matters: the parent
#: reconstructs by position).
_STATS_FIELDS = (
    "root",
    "settled",
    "pruned",
    "labels_added",
    "relaxations",
    "heap_pushes",
    "heap_pops",
    "query_entries_scanned",
)


def _pack_stats(stats: Optional[SearchStats]) -> Optional[Tuple[int, ...]]:
    if stats is None:
        return None
    return tuple(int(getattr(stats, f)) for f in _STATS_FIELDS)


def _unpack_stats(packed: Optional[Sequence[int]]) -> Optional[SearchStats]:
    if packed is None:
        return None
    return SearchStats(**dict(zip(_STATS_FIELDS, packed)))


def _sync_mirror(
    store: LabelStore,
    log: Optional[LabelLog],
    meta: Dict[str, Any],
    synced: int,
) -> Tuple[LabelLog, int]:
    """Catch the worker's local mirror up with the shared label log.

    Re-attaches when the dispatch message names a newer log generation
    (entry indices are stable across generations, so *synced* carries
    over), then appends every entry in ``[synced, committed)``.
    """
    if log is None or log.meta["segment"] != meta["segment"]:
        if log is not None:
            log.close()
        log = LabelLog.attach(meta)
    committed = log.committed
    if committed > synced:
        verts, hubs, dists = log.read(synced, committed)
        store.extend_from_arrays(verts, hubs, dists)
        synced = committed
    return log, synced


def _worker_main(
    worker_id: int,
    graph_meta: Dict[str, Any],
    order: Sequence[int],
    engine: str,
    conn: Any,
    monitored: bool,
    relay: Optional[Tuple[str, int]],
    cancel: Any,
) -> None:
    """One worker process: attach shared state, loop on dispatched roots.

    The mirror :class:`LabelStore` is process-local — pruning reads
    need no lock — and is fed exclusively from the shared log, never
    from this worker's own deltas directly: the parent commits a delta
    to the log *before* dispatching this worker's next root, so the
    sync at the next task boundary always includes our own labels.

    *cancel* is the build's shared fail-fast event: a task received
    after it is set is handed back unrun (``"cancelled"``), and a
    failing worker sets it before anything else so the fleet stops
    without waiting for the error report to reach the parent.
    """
    from repro.core.engines import make_engine

    relay_client = None
    shared_graph = None
    log: Optional[LabelLog] = None
    try:
        if relay is not None:
            try:
                from repro.obs.relay import RelayClient

                relay_client = RelayClient(
                    relay[0], relay[1], rank=worker_id
                )
            except OSError as exc:
                # Telemetry is best-effort: a dead collector must not
                # take the build down.
                _flightrec.record(
                    "relay_connect_failed",
                    worker=worker_id,
                    error=repr(exc),
                )
        shared_graph = SharedGraph.attach(graph_meta)
        search = make_engine(engine, shared_graph.graph, order)
        store = LabelStore(shared_graph.graph.num_vertices)
        synced = 0
        root: Optional[int] = None
        while True:
            root = None
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _tag, root, log_meta = msg
            if cancel.is_set():
                conn.send(("cancelled", root))
                continue
            _flightrec.record("task_grab", worker=worker_id, root=root)
            log, synced = _sync_mirror(store, log, log_meta, synced)
            with _trace.span(
                "root_search", worker=worker_id, root=root
            ) as sp:
                if monitored:
                    root_stats: Optional[SearchStats] = SearchStats()
                    delta = search.run(root, store, root_stats)
                else:
                    root_stats = None
                    delta = search.run(root, store)
                sp.set(labels=len(delta))
            verts = np.fromiter(
                (v for v, _d in delta), dtype=np.int64, count=len(delta)
            )
            dists = np.fromiter(
                (d for _v, d in delta), dtype=np.float64, count=len(delta)
            )
            conn.send(("done", root, verts, dists, _pack_stats(root_stats)))
    except EOFError:
        # The parent went away (its pipe end closed): nothing to report
        # to, just exit quietly.
        return
    except BaseException as exc:  # shipped to the parent below
        cancel.set()
        _flightrec.record(
            "worker_failure", worker=worker_id, root=root, error=repr(exc)
        )
        try:
            payload: Optional[bytes] = pickle.dumps(exc)
        except Exception as pickle_exc:
            payload = None  # unpicklable exception: parent wraps the repr
            _flightrec.record(
                "worker_exc_unpicklable",
                worker=worker_id,
                error=repr(pickle_exc),
            )
        try:
            conn.send(
                ("error", root, payload, repr(exc), traceback.format_exc())
            )
        except (OSError, BrokenPipeError):
            pass  # parent already gone; exception was flight-recorded
    finally:
        if relay_client is not None:
            relay_client.close()
        if log is not None:
            log.close()
        if shared_graph is not None:
            shared_graph.close()
        conn.close()


def _decode_error(worker: int, msg: Tuple[Any, ...]) -> WorkerFailure:
    """The failure a worker's ``("error", root, payload, repr, tb)`` reply
    reports: its original exception when *payload* unpickles, else a
    :class:`~repro.errors.TaskError` carrying the repr and traceback."""
    _tag, root, payload, exc_repr, tb = msg
    if payload is not None:
        try:
            exc = pickle.loads(payload)
        except Exception as unpickle_exc:
            exc_repr = f"{exc_repr} (unpicklable: {unpickle_exc!r})"
        else:
            return WorkerFailure(worker=worker, root=root, exc=exc)
    return WorkerFailure(
        worker=worker,
        root=root,
        exc=TaskError(
            f"worker {worker} failed on root {root}: {exc_repr}\n{tb}",
            worker=worker,
            root=root,
        ),
    )


def _reraise_first(errors: List[WorkerFailure]) -> None:
    """Re-raise the first failure with the thread backend's shape."""
    failure = errors[0]
    where = (
        f"while indexing root {failure.root}"
        if failure.root is not None
        else "before taking a task"
    )
    _flightrec.auto_dump("worker_failure")
    raise failure.exc from TaskError(
        f"worker {failure.worker} failed {where} "
        f"({len(errors)} worker(s) failed in total)",
        worker=failure.worker,
        root=failure.root,
        failures=len(errors),
    )


def build_parallel_procs(
    graph: CSRGraph,
    num_procs: int,
    policy: str = "dynamic",
    order: Optional[Sequence[int]] = None,
    chunk: int = 1,
    engine: str = "dijkstra",
    start_method: Optional[str] = None,
    relay: Optional[Tuple[str, int]] = None,
    timeout: Optional[float] = None,
) -> PLLIndex:
    """Build a PLL index with *num_procs* worker processes on real cores.

    Args:
        graph: the graph to index.
        num_procs: worker count ``p`` (>= 1).
        policy: ``"static"`` or ``"dynamic"`` task assignment (the
            policies run in the parent; pipes are the dispatch channel).
        order: vertex ordering (defaults to descending degree).
        chunk: dynamic-policy grab size (ignored for static).
        engine: ``"dijkstra"`` (weighted) or ``"bfs"`` (hop counts).
        start_method: ``multiprocessing`` start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``; default: the platform's,
            which is what lets tests monkeypatch the engine registry
            pre-fork on Linux).
        relay: optional ``(host, port)`` of a running
            :class:`~repro.obs.relay.Collector`; each worker relays its
            telemetry there with its worker id as rank.
        timeout: optional stall guard in seconds — if *no* worker makes
            progress for this long the build terminates the fleet and
            raises, instead of hanging on a wedged child.

    Returns:
        A finalized :class:`~repro.core.index.PLLIndex`; queries are
        exact vs. a serial build (Proposition 1), though the label set
        may contain redundant entries.

    Raises:
        TaskError: for invalid parameters, a stalled build, or (as the
            ``__cause__`` of the re-raised original) a worker failure;
            a worker killed outright surfaces as a plain ``TaskError``
            naming the worker and its exit code.
    """
    if num_procs < 1:
        raise TaskError("num_procs must be >= 1")
    if order is None:
        order = by_degree(graph)
    order = np.asarray(order, dtype=np.int64)
    n = graph.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    assignment = make_assignment(policy, order, num_procs, chunk=chunk)

    ctx = mp.get_context(start_method)
    shared_graph = SharedGraph.export(graph)
    log = GrowableLabelLog(capacity=max(1024, 4 * n))
    store = _check_hooks.wrap_store(LabelStore(n))
    commit_lock = _check_hooks.make_lock("parapll.commit_lock")
    monitor = _buildmon.active()
    errors: List[WorkerFailure] = []
    cancel = ctx.Event()

    # Worker states: "busy" (owes us a message), "stopping" (stop sent,
    # waiting for a clean exit), "done" (exited cleanly), "dead".
    state: Dict[int, str] = {}
    parent_conns: Dict[int, Any] = {}
    procs: Dict[int, Any] = {}
    roots_in_flight: Dict[int, Optional[int]] = {}
    stopping = False

    def send_next(worker_id: int) -> None:
        """Dispatch the next root to *worker_id*, or stop it."""
        nonlocal stopping
        if cancel.is_set():
            stopping = True
        root = None if stopping else assignment.next_task(worker_id)
        if root is None:
            parent_conns[worker_id].send(("stop",))
            state[worker_id] = "stopping"
            roots_in_flight[worker_id] = None
            return
        roots_in_flight[worker_id] = root
        parent_conns[worker_id].send(("task", int(root), log.meta))
        state[worker_id] = "busy"

    def commit(worker_id: int, msg: Tuple[Any, ...]) -> None:
        """Commit one worker's delta: store, shared log, telemetry."""
        _tag, root, verts, dists, packed = msg
        root_rank = int(rank[root])
        hubs = np.full(len(verts), root_rank, dtype=np.int64)
        with commit_lock:
            store.add_delta(
                zip(verts.tolist(), hubs.tolist(), dists.tolist())
            )
            log.append(verts, hubs, dists)
        _flightrec.record(
            "label_commit", worker=worker_id, root=root, labels=len(verts)
        )
        _bus.publish_event(
            "root_commit", worker=worker_id, root=root, labels=len(verts)
        )
        if monitor is not None:
            monitor.root_done(
                worker_id, root, stats=_unpack_stats(packed),
                labels=len(verts),
            )
        if _obs_config.METRICS:
            _inst.WORKER_ROOTS.labels(worker=str(worker_id)).inc()
            _inst.COMMITS.inc()

    t0 = time.perf_counter()
    try:
        with _trace.span(
            "build_parallel_procs",
            procs=num_procs,
            policy=policy,
            n=n,
        ):
            for k in range(num_procs):
                parent_end, child_end = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        k,
                        shared_graph.meta,
                        order,
                        engine,
                        child_end,
                        monitor is not None,
                        relay,
                        cancel,
                    ),
                    name=f"parapll-proc-{k}",
                    daemon=True,
                )
                proc.start()
                child_end.close()  # the worker holds the only copy now
                parent_conns[k] = parent_end
                procs[k] = proc
                send_next(k)

            last_progress = time.monotonic()
            while any(s in ("busy", "stopping") for s in state.values()):
                waitable: List[Any] = []
                conn_of: Dict[Any, int] = {}
                sentinel_of: Dict[Any, int] = {}
                for k, s in state.items():
                    if s == "busy":
                        waitable.append(parent_conns[k])
                        conn_of[parent_conns[k]] = k
                    if s in ("busy", "stopping"):
                        waitable.append(procs[k].sentinel)
                        sentinel_of[procs[k].sentinel] = k
                ready = mp_connection.wait(waitable, timeout=1.0)
                if not ready:
                    if (
                        timeout is not None
                        and time.monotonic() - last_progress > timeout
                    ):
                        raise TaskError(
                            f"parallel build stalled: no worker progress "
                            f"for {timeout:.1f}s "
                            f"(roots in flight: {roots_in_flight})"
                        )
                    continue
                last_progress = time.monotonic()
                # Messages first: a worker that sent its goodbye and
                # exited has both its pipe and its sentinel ready, and
                # the pipe carries the truth.
                for obj in ready:
                    k = conn_of.get(obj)
                    if k is None or state[k] != "busy":
                        continue
                    try:
                        msg = parent_conns[k].recv()
                    except (EOFError, OSError):
                        continue  # resolved via the sentinel below
                    if msg[0] == "done":
                        commit(k, msg)
                        send_next(k)
                    elif msg[0] == "cancelled":
                        send_next(k)  # the event is set: this stops k
                    elif msg[0] == "error":
                        errors.append(_decode_error(k, msg))
                        stopping = True
                        state[k] = "stopping"  # it exits after sending
                        roots_in_flight[k] = None
                for obj in ready:
                    k = sentinel_of.get(obj)
                    if k is None or state[k] not in ("busy", "stopping"):
                        continue
                    # Drain any goodbye that raced the exit.
                    while state[k] == "busy" and parent_conns[k].poll():
                        try:
                            msg = parent_conns[k].recv()
                        except (EOFError, OSError):
                            break
                        if msg[0] == "done":
                            commit(k, msg)
                            state[k] = "stopping"
                            roots_in_flight[k] = None
                        elif msg[0] == "cancelled":
                            state[k] = "stopping"
                            roots_in_flight[k] = None
                        elif msg[0] == "error":
                            errors.append(_decode_error(k, msg))
                            stopping = True
                            state[k] = "stopping"
                            roots_in_flight[k] = None
                    procs[k].join()
                    if state[k] == "busy":
                        # Died without a goodbye: SIGKILL, OOM, hard
                        # crash.  Report it and fail-fast the rest.
                        root = roots_in_flight[k]
                        code = procs[k].exitcode
                        _flightrec.record(
                            "worker_failure",
                            worker=k,
                            root=root,
                            error=f"process died (exitcode {code})",
                        )
                        errors.append(
                            WorkerFailure(
                                worker=k,
                                root=root,
                                exc=TaskError(
                                    f"worker {k} died while indexing "
                                    f"root {root} (exitcode {code})",
                                    worker=k,
                                    root=root,
                                    exitcode=code,
                                ),
                            )
                        )
                        stopping = True
                    state[k] = "dead" if errors and state[k] == "busy" \
                        else "done"
    finally:
        for k, proc in procs.items():
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        for conn in parent_conns.values():
            conn.close()
        shared_graph.close(unlink=True)
        log.close_all()
    elapsed = time.perf_counter() - t0
    if errors:
        _reraise_first(errors)

    store = _check_hooks.unwrap_store(store)
    store.finalize()
    stats = IndexStats.from_sizes(store.label_sizes(), elapsed)
    return PLLIndex(store, order, graph=graph, stats=stats)
