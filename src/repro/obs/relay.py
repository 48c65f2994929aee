"""Cross-process telemetry relay: child exporter + parent collector.

:mod:`repro.obs.bus` defines the frames; this module moves them.  A
worker process creates a :class:`RelayClient` pointing at the parent's
:class:`Collector` and from then on its metrics, spans, flight-recorder
events, build-monitor snapshots and explicit bus events stream over a
TCP connection as ``parapll-telemetry/1`` JSONL — one JSON object per
line, header first.  The collector merges everything into the parent's
registry and trace state with defined semantics:

* **counters sum** — children ship deltas (:class:`~repro.obs.bus
  .MetricsDelta`), the collector ``inc()``\\ s the same-named series, so
  the merged total is exactly the sum over sources plus the parent's
  own increments;
* **gauges are last-write-wins, tagged by source** — the merged series
  holds the most recently shipped value and
  :meth:`Collector.gauge_attribution` says which source wrote it;
* **histograms bucket-merge** — per-bucket counts, sum and count add
  via :func:`~repro.obs.metrics.merge_histogram_snapshot`, refusing
  mismatched bucket layouts;
* **spans and flightrec events stitch** — records gain ``pid``/``rank``
  attrs and a ``<source>:`` thread prefix so every process gets its own
  lanes in one Chrome trace (:meth:`Collector.write_chrome_trace`).

Failure modes (exercised in ``tests/test_telemetry.py``):

* **slow collector** — the child's bus is bounded; producers never
  block, excess frames are dropped and counted, and every shipped frame
  carries the cumulative per-kind drop counters so the collector can
  tell "quiet" from "overloaded";
* **dead collector** — a send failure marks the client dead, stops the
  flush thread and uninstalls the bus; the instrumented process keeps
  running, minus telemetry;
* **dead child / partial frame** — a connection that closes mid-line
  leaves a truncated JSON object; the collector counts it as malformed
  and keeps every complete frame received before it.

Clock discipline: frames carry wall ``ts`` (event timestamps only) and
monotonic ``mono``.  Queue lag, flush ages and stitched span times all
come from the monotonic clock — on Linux ``time.monotonic`` is
``CLOCK_MONOTONIC``, shared across local processes, which is what makes
cross-process span stitching line up.

In-process use (tests, demos): give the collector its *own* registry or
run it in a different process than the client.  Pointing a client's
delta collector at the same registry the collector merges into would
re-ship merged increments forever.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import socket
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.check import hooks as _hooks
from repro.obs import buildmon as _buildmon
from repro.obs import bus as _bus
from repro.obs import flightrec as _flightrec
from repro.obs.bus import TELEMETRY_SCHEMA, MetricsDelta, TelemetryBus
from repro.obs.metrics import (
    MetricsRegistry,
    ObsError,
    get_registry,
    merge_histogram_snapshot,
)
from repro.obs.trace import TraceRecord, get_tracer

__all__ = [
    "DEFAULT_FLUSH_INTERVAL",
    "RelayClient",
    "Collector",
    "render_fleet",
]

DEFAULT_FLUSH_INTERVAL = 0.25

#: Stitched trace records and event lists are bounded so a chatty fleet
#: cannot grow the parent without limit.
DEFAULT_MAX_RECORDS = 65_536
DEFAULT_MAX_EVENTS = 8_192

#: Telemetry-health instrument names (declared in
#: :mod:`repro.obs.instruments` for the README table; the collector
#: registers them idempotently on whatever registry it merges into).
FRAMES_METRIC = "parapll_telemetry_frames_total"
DROPPED_METRIC = "parapll_telemetry_dropped_total"
LAG_METRIC = "parapll_telemetry_queue_lag_seconds"


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
class RelayClient:
    """Ships this process's telemetry to a :class:`Collector`.

    On construction the client connects, writes the stream header and
    starts a daemon flush thread; from then on every
    ``flush_interval`` seconds (and once more at exit, via ``atexit``)
    it gathers

    * metric deltas from *registry* (counters/histograms as increments,
      gauges as current values),
    * trace records not yet shipped (tracked by ``span_id`` against the
      ring content, so re-flushes never duplicate),
    * flight-recorder events with ``seq`` beyond the last shipped,
    * the active build monitor's progress snapshot, and
    * everything queued on the bus by :func:`repro.obs.bus.publish_event`

    and sends them as one JSONL batch.  A send failure marks the client
    dead and uninstalls the bus — telemetry degrades, the workload
    does not.

    Args:
        host / port: the collector's listen address.
        rank: optional rank id stamped into the stream header (and onto
            stitched spans at the collector).
        registry: registry to collect deltas from (default process-wide).
        bus: the event bus to drain (default: a fresh one, installed
            process-wide unless *install_bus* is false).
        flush_interval: seconds between periodic flushes.
        connect_timeout: seconds to wait for the collector to accept.
        install_bus: install *bus* via :func:`repro.obs.bus.install` so
            module-level :func:`~repro.obs.bus.publish_event` feeds it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        rank: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        bus: Optional[TelemetryBus] = None,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        connect_timeout: float = 5.0,
        install_bus: bool = True,
    ) -> None:
        if flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        self.rank = rank
        self.flush_interval = flush_interval
        self.bus = bus if bus is not None else TelemetryBus()
        self._delta = MetricsDelta(registry)
        self._shipped_spans: set = set()
        self._last_flight_seq = 0
        self._final_shipped: Optional[_buildmon.BuildMonitor] = None
        self.frames_sent = 0
        self.flushes = 0
        self.send_failures = 0
        self.dead = False
        self._closed = False
        self._installed = False
        self._lock = _hooks.make_lock("obs.relay.client")

        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._sock.settimeout(connect_timeout)
        self._send_line(json.dumps(self.bus.header(rank=rank)))

        if install_bus:
            _bus.install(self.bus)
            self._installed = True
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-relay", daemon=True
        )
        _hooks.fork(self._thread.name)
        self._thread.start()
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def _send_line(self, line: str) -> None:
        self._sock.sendall(line.encode("utf-8") + b"\n")

    def _run(self) -> None:
        while not self._stop.wait(self.flush_interval):
            self.flush()
            if self.dead:
                return

    def _gather_locked(self) -> List[Dict[str, Any]]:
        """Queue fresh telemetry on the bus, then drain everything."""
        deltas = self._delta.collect()
        if deltas:
            self.bus.publish("metrics", deltas)
        records = get_tracer().records()
        fresh = [r for r in records if r.span_id not in self._shipped_spans]
        # Reset to the ring's current content: evicted ids fall out, so
        # the set stays bounded by the tracer capacity.
        self._shipped_spans = {r.span_id for r in records}
        if fresh:
            self.bus.publish("spans", [r.to_dict() for r in fresh])
        events = [
            e
            for e in _flightrec.get_recorder().snapshot()
            if e["seq"] > self._last_flight_seq
        ]
        if events:
            self._last_flight_seq = events[-1]["seq"]
            self.bus.publish("flightrec", events)
        monitor = _buildmon.active()
        if monitor is None:
            # A fast build can start and finish entirely between two
            # periodic flushes; ship the finished monitor's final
            # snapshot once so the collector still sees it.
            finished = _buildmon.last_finished()
            if finished is not None and finished is not self._final_shipped:
                monitor = self._final_shipped = finished
        if monitor is not None:
            self.bus.publish("buildmon", monitor.snapshot())
        frames = self.bus.drain()
        dropped = dict(self.bus.dropped)
        lag = round(self.bus.max_lag_seconds, 6)
        for frame in frames:
            frame["dropped"] = dropped
            frame["lag"] = lag
        return frames

    def flush(self) -> int:
        """Gather and ship one batch; returns frames sent (0 if dead)."""
        with self._lock:
            if self.dead:
                return 0
            frames = self._gather_locked()
            if not frames:
                return 0
            try:
                self._send_line(
                    "\n".join(json.dumps(f, default=str) for f in frames)
                )
            except OSError:
                self.send_failures += 1
                self.dead = True
                if self._installed:
                    _bus.uninstall()
                    self._installed = False
                return 0
            self.frames_sent += len(frames)
            self.flushes += 1
            return len(frames)

    def close(self) -> None:
        """Final flush and shutdown (idempotent; runs at exit)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            _hooks.join(self._thread.name)
        self.flush()
        if self._installed:
            _bus.uninstall()
            self._installed = False
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        atexit.unregister(self.close)

    def __enter__(self) -> "RelayClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _delta_to_snapshot(delta: Dict[str, Any]) -> Dict[str, Any]:
    """Re-encode a shipped histogram delta as a ``value()`` snapshot."""
    cumulative: List[List[Any]] = []
    running = 0
    bounds: List[Any] = list(delta["bounds"]) + ["+Inf"]
    for bound, count in zip(bounds, delta["counts"]):
        running += int(count)
        cumulative.append([bound, running])
    return {
        "buckets": cumulative,
        "sum": delta["sum"],
        "count": delta["count"],
    }


class Collector:
    """Accepts relay connections and merges the fleet's telemetry.

    One daemon thread accepts connections; each connection gets a
    reader thread that parses JSONL frames and merges them under one
    lock.  Start with :meth:`start` (or as a context manager); bind to
    ``port=0`` to let the OS pick (see :attr:`port`).

    Args:
        host / port: listen address (port 0 = ephemeral).
        registry: registry merged into (default process-wide).  Give
            the collector a private registry when a :class:`RelayClient`
            runs in the same process.
        max_records: cap on stitched trace records (oldest evicted).
        max_events: cap on retained flightrec/producer events.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: Optional[MetricsRegistry] = None,
        max_records: int = DEFAULT_MAX_RECORDS,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = _hooks.make_lock("obs.relay.collector")
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._readers: List[threading.Thread] = []
        self._conn_ids = itertools.count(1)
        self._event_ids = itertools.count(1)
        #: source id -> health/stats dict (see :meth:`stats`).
        self.sources: Dict[str, Dict[str, Any]] = {}
        #: source id -> most recent buildmon snapshot.
        self.buildmon: Dict[str, Dict[str, Any]] = {}
        self.gauge_sources: Dict[Tuple[str, Tuple[str, ...]], str] = {}
        self._records: deque = deque(maxlen=max_records)
        self._events: deque = deque(maxlen=max_events)
        self.malformed = 0
        self.merge_errors = 0
        self._frames_ctr = self.registry.counter(
            FRAMES_METRIC,
            "Telemetry frames received per relay source",
            labels=("source",),
        )
        self._dropped_ctr = self.registry.counter(
            DROPPED_METRIC,
            "Frames dropped at the source's bounded bus, per relay source",
            labels=("source",),
        )
        self._lag_gauge = self.registry.gauge(
            LAG_METRIC,
            "Max bus queue lag observed at the source, seconds",
            labels=("source",),
        )

    # ------------------------------------------------------------------
    def start(self) -> "Collector":
        """Start the accept thread; returns self for chaining."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                name="telemetry-collector",
                daemon=True,
            )
            _hooks.fork(self._accept_thread.name)
            self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed
                return
            reader = threading.Thread(
                target=self._read_conn,
                args=(conn, next(self._conn_ids)),
                name=f"telemetry-reader-{len(self._readers) + 1}",
                daemon=True,
            )
            self._readers.append(reader)
            reader.start()

    def _read_conn(self, conn: socket.socket, conn_id: int) -> None:
        source: Optional[str] = None
        try:
            with conn, conn.makefile("r", encoding="utf-8") as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        doc = json.loads(line)
                    except ValueError:
                        # Partial frame: a child died mid-write.  Count
                        # it, keep everything already merged.
                        with self._lock:
                            self.malformed += 1
                        continue
                    if doc.get("kind") == "header":
                        source = self._register_source(doc, conn_id)
                    elif source is None:
                        with self._lock:
                            self.malformed += 1
                    else:
                        self._ingest(source, doc)
        except OSError:  # pragma: no cover - abrupt disconnect
            pass
        finally:
            if source is not None:
                with self._lock:
                    self.sources[source]["connected"] = False

    def _register_source(self, header: Dict[str, Any], conn_id: int) -> str:
        if header.get("schema") != TELEMETRY_SCHEMA:
            with self._lock:
                self.malformed += 1
        pid = header.get("pid", f"conn{conn_id}")
        rank = header.get("rank")
        source = f"r{rank}/pid{pid}" if rank is not None else f"pid{pid}"
        with self._lock:
            self.sources[source] = {
                "pid": pid,
                "rank": rank,
                "frames": 0,
                "by_kind": {},
                "dropped": {},
                "max_lag_seconds": 0.0,
                "connected": True,
                "last_mono": time.monotonic(),
            }
        return source

    # ------------------------------------------------------------------
    def _ingest(self, source: str, frame: Dict[str, Any]) -> None:
        kind = frame.get("kind")
        payload = frame.get("payload")
        with self._lock:
            stats = self.sources[source]
            stats["frames"] += 1
            stats["by_kind"][kind] = stats["by_kind"].get(kind, 0) + 1
            stats["last_mono"] = time.monotonic()
            prev_dropped = sum(stats["dropped"].values())
            dropped = frame.get("dropped")
            if isinstance(dropped, dict):
                stats["dropped"] = dropped
            drop_delta = max(0, sum(stats["dropped"].values()) - prev_dropped)
            lag = frame.get("lag")
            if isinstance(lag, (int, float)):
                stats["max_lag_seconds"] = max(
                    stats["max_lag_seconds"], float(lag)
                )
            self._frames_ctr.labels(source=source).inc()
            if drop_delta:
                self._dropped_ctr.labels(source=source).inc(drop_delta)
            self._lag_gauge.labels(source=source).set(
                stats["max_lag_seconds"]
            )
            if kind == "metrics":
                self._merge_metrics(source, payload or [])
            elif kind == "spans":
                self._stitch_spans(stats, source, payload or [])
            elif kind == "flightrec":
                self._stitch_flightrec(stats, source, payload or [])
            elif kind == "buildmon":
                if isinstance(payload, dict):
                    self.buildmon[source] = payload
            elif kind == "events":
                if isinstance(payload, dict):
                    self._stitch_event(stats, source, frame, payload)
            else:
                self.malformed += 1

    def _merge_metrics(
        self, source: str, deltas: List[Dict[str, Any]]
    ) -> None:
        for entry in deltas:
            try:
                name = entry["name"]
                labels = entry.get("labels") or {}
                label_names = tuple(labels.keys())
                help_ = entry.get("help", "")
                kind = entry.get("kind")
                if kind == "counter":
                    metric = self.registry.counter(
                        name, help_, labels=label_names
                    )
                    series = metric.labels(**labels) if labels else metric
                    series.inc(entry["delta"])
                elif kind == "gauge":
                    metric = self.registry.gauge(
                        name, help_, labels=label_names
                    )
                    series = metric.labels(**labels) if labels else metric
                    series.set(entry["value"])
                    key = tuple(str(labels[k]) for k in label_names)
                    self.gauge_sources[(name, key)] = source
                elif kind == "histogram":
                    delta = entry["delta"]
                    metric = self.registry.histogram(
                        name,
                        help_,
                        buckets=tuple(delta["bounds"]),
                        labels=label_names,
                    )
                    target = metric.labels(**labels) if labels else metric
                    merge_histogram_snapshot(
                        target, _delta_to_snapshot(delta)
                    )
                else:
                    self.merge_errors += 1
            except (ObsError, KeyError, TypeError, ValueError):
                # A malformed or conflicting series must not take the
                # collector down; it is counted and skipped.
                self.merge_errors += 1

    def _stitch_spans(
        self,
        stats: Dict[str, Any],
        source: str,
        payload: List[Dict[str, Any]],
    ) -> None:
        for doc in payload:
            try:
                rec = TraceRecord.from_dict(doc)
            except (KeyError, TypeError):
                self.malformed += 1
                continue
            rec.attrs.setdefault("pid", stats["pid"])
            if stats["rank"] is not None:
                rec.attrs.setdefault("rank", stats["rank"])
            # Re-home the lane: both the thread name and any worker id
            # are namespaced so two processes' "worker 0" stay separate
            # lanes in the stitched trace.
            if "worker" in rec.attrs:
                rec.attrs["worker"] = f"{source}:{rec.attrs['worker']}"
            rec.thread = f"{source}:{rec.thread}"
            self._records.append(rec)

    def _stitch_flightrec(
        self,
        stats: Dict[str, Any],
        source: str,
        payload: List[Dict[str, Any]],
    ) -> None:
        for event in payload:
            if not isinstance(event, dict) or "kind" not in event:
                self.malformed += 1
                continue
            tagged = dict(event)
            tagged["source"] = source
            self._events.append(tagged)
            attrs = dict(event.get("attrs") or {})
            attrs["pid"] = stats["pid"]
            if stats["rank"] is not None:
                attrs["rank"] = stats["rank"]
            self._records.append(
                TraceRecord(
                    name=str(event["kind"]),
                    kind="event",
                    ts=float(event.get("mono", 0.0)),
                    dur=None,
                    span_id=next(self._event_ids),
                    parent_id=None,
                    thread=f"{source}:{event.get('thread', 'main')}",
                    attrs=attrs,
                )
            )

    def _stitch_event(
        self,
        stats: Dict[str, Any],
        source: str,
        frame: Dict[str, Any],
        payload: Dict[str, Any],
    ) -> None:
        tagged = dict(payload)
        tagged["source"] = source
        tagged["ts"] = frame.get("ts")
        tagged["mono"] = frame.get("mono")
        self._events.append(tagged)
        attrs = dict(payload.get("attrs") or {})
        attrs["pid"] = stats["pid"]
        if stats["rank"] is not None:
            attrs["rank"] = stats["rank"]
        if "worker" in attrs:
            attrs["worker"] = f"{source}:{attrs['worker']}"
        self._records.append(
            TraceRecord(
                name=str(payload.get("name", "event")),
                kind="event",
                ts=float(frame.get("mono", 0.0)),
                dur=None,
                span_id=next(self._event_ids),
                parent_id=None,
                thread=f"{source}:{payload.get('thread', 'main')}",
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------
    def stitched_records(self) -> List[TraceRecord]:
        """Merged spans + events from every source, arrival order."""
        with self._lock:
            return list(self._records)

    def events(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained flightrec/producer events, oldest first."""
        with self._lock:
            out = list(self._events)
        if last is not None and last >= 0:
            out = out[-last:] if last else []
        return out

    def write_chrome_trace(self, path_or_file: Any) -> int:
        """One Chrome trace of the whole fleet; returns event count."""
        from repro.obs.timeline import write_chrome_trace

        return write_chrome_trace(path_or_file, self.stitched_records())

    def stats(self) -> Dict[str, Any]:
        """JSON-safe health summary (feeds ``parapll obs`` and the dash)."""
        with self._lock:
            sources = {
                name: {
                    "pid": s["pid"],
                    "rank": s["rank"],
                    "frames": s["frames"],
                    "by_kind": dict(s["by_kind"]),
                    "dropped": sum(s["dropped"].values()),
                    "max_lag_seconds": s["max_lag_seconds"],
                    "connected": s["connected"],
                }
                for name, s in sorted(self.sources.items())
            }
            return {
                "address": f"{self.host}:{self.port}",
                "sources": sources,
                "frames": sum(s["frames"] for s in sources.values()),
                "dropped": sum(s["dropped"] for s in sources.values()),
                "records": len(self._records),
                "events": len(self._events),
                "malformed": self.malformed,
                "merge_errors": self.merge_errors,
            }

    def gauge_attribution(self) -> Dict[str, str]:
        """``metric{labels}`` -> source that last wrote it (LWW tag)."""
        with self._lock:
            out = {}
            for (name, key), source in sorted(self.gauge_sources.items()):
                label = name if not key else f"{name}{{{','.join(key)}}}"
                out[label] = source
            return out

    def close(self) -> None:
        """Stop accepting, close the listener, join reader threads."""
        self._stop.set()
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down does (accept fails with
        # EINVAL), so the accept thread exits at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - not every OS allows it
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best effort
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            if not self._accept_thread.is_alive():
                _hooks.join(self._accept_thread.name)
            self._accept_thread = None
        for reader in self._readers:
            reader.join(timeout=1.0)

    def __enter__(self) -> "Collector":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Fleet dashboard frame
# ----------------------------------------------------------------------
def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds:.0f}s"


def render_fleet(collector: Collector) -> str:
    """One ``parapll dash`` text frame of the fleet's state.

    Per source: connection state, frames/drops/queue lag from the
    relay, and — when the source runs a monitored build — progress,
    roots/sec and prune ratio from its latest buildmon snapshot.  SLO
    burn rates come from the merged registry (gauge
    ``parapll_slo_burn_rate``), i.e. serve-side sources report their
    burn and the dash shows the last write per target.
    """
    stats = collector.stats()
    lines = [
        "parapll fleet",
        "=============",
        f"collector  {stats['address']}    sources "
        f"{len(stats['sources'])}    frames {stats['frames']}    "
        f"drops {stats['dropped']}    malformed {stats['malformed']}",
    ]
    if not stats["sources"]:
        lines.append("(no sources connected)")
    else:
        lines.append(
            f"{'source':<16} {'state':<6} {'frames':>6} {'drops':>6} "
            f"{'lag(s)':>8}  build"
        )
        for name, src in stats["sources"].items():
            state = "live" if src["connected"] else "gone"
            mon = collector.buildmon.get(name)
            if mon:
                total = mon.get("total_roots")
                done = mon.get("roots_done", 0)
                progress = f"{done}/{total}" if total else f"{done}"
                build = (
                    f"{progress} roots  "
                    f"{mon.get('roots_per_second', 0.0):.1f}/s  "
                    f"prune {mon.get('prune_ratio', 0.0):.1%}  "
                    f"eta {_fmt_eta(mon.get('eta_seconds'))}"
                )
                if mon.get("final"):
                    build += "  done"
            else:
                build = "-"
            lines.append(
                f"{name:<16} {state:<6} {src['frames']:>6} "
                f"{src['dropped']:>6} {src['max_lag_seconds']:>8.3f}  "
                f"{build}"
            )
    burn = collector.registry.get("parapll_slo_burn_rate")
    if burn is not None:
        parts = []
        for key, series in burn.series_items():
            target = key[0] if key else "default"
            parts.append(f"{target} {series.value():.2f}")  # type: ignore[attr-defined]
        if parts:
            lines.append("slo burn   " + " | ".join(parts))
    drops = stats["dropped"]
    if drops:
        lines.append(f"WARNING    {drops} frame(s) dropped at source buses")
    return "\n".join(lines)
