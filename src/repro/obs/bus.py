"""The telemetry bus: a process-local, non-blocking event queue.

Every observability layer so far (metrics, traces, flightrec, buildmon,
qlog) lives in module-level in-process state that goes dark across a
``fork``/``spawn`` boundary — exactly the boundary ParaPLL's
rank×thread story is about.  The bus is the first half of the fix: a
bounded, lock-light queue that producers append *frames* to without
ever blocking, and that an exporter (:mod:`repro.obs.relay`) drains and
ships to a collector in another process.

Design rules, in priority order:

* **Never block or slow the instrumented path.**  ``publish`` is one
  lock acquisition around a deque append; when the queue is full the
  frame is *dropped and counted*, never waited on.  With no bus
  installed the module-level :func:`publish_event` hook costs one
  global load and an ``is None`` test — the same discipline as
  :mod:`repro.obs.buildmon` and :mod:`repro.obs.qlog`.
* **Drops are explicit.**  Per-kind drop counters ride along in every
  shipped frame batch, so the collector (and ``parapll obs``) can
  always distinguish "quiet" from "overloaded".
* **Clock discipline.**  Every frame carries both ``ts`` (wall, for
  event timestamps in merged output) and ``mono`` (monotonic, for every
  *interval* computation: queue lag, flush age).  Lag is never derived
  from wall clocks — a stepped clock must not fake a telemetry stall.

Wire schema (``parapll-telemetry/1``): a stream of JSON objects.  The
first is a header identifying the source process::

    {"kind": "header", "schema": "parapll-telemetry/1",
     "pid": 4242, "rank": 1, "capacity": 4096}

Every following object is one frame::

    {"kind": "metrics" | "spans" | "flightrec" | "buildmon" | "events",
     "seq": 17, "ts": 1754650000.1, "mono": 12.482,
     "dropped": {"events": 0},            # cumulative per-kind drops
     "payload": ...}

* ``metrics`` — a batch of per-series *deltas* since the previous
  metrics frame (see :class:`MetricsDelta`); counters and histograms
  ship increments so the collector can merge by summing, gauges ship
  current values for last-write-wins.
* ``spans`` — a batch of :class:`~repro.obs.trace.TraceRecord` dicts.
* ``flightrec`` — a batch of flight-recorder events.
* ``buildmon`` — one build-monitor progress snapshot.
* ``events`` — explicit producer events published by the instrumented
  build/serve paths via :func:`publish_event`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    histogram_bucket_counts,
)

__all__ = [
    "TELEMETRY_SCHEMA",
    "FRAME_KINDS",
    "DEFAULT_CAPACITY",
    "TelemetryBus",
    "MetricsDelta",
    "active",
    "install",
    "uninstall",
    "publish_event",
]

TELEMETRY_SCHEMA = "parapll-telemetry/1"

#: The frame kinds the wire schema carries.
FRAME_KINDS = ("metrics", "spans", "flightrec", "buildmon", "events")

DEFAULT_CAPACITY = 4096


class TelemetryBus:
    """A bounded, non-blocking frame queue with explicit drop counters.

    Args:
        capacity: maximum queued frames; further publishes are dropped
            (and counted per kind) until the exporter drains.

    Thread safety: ``publish`` and ``drain`` share one small lock held
    only for the queue operation itself, so any number of producer
    threads can publish while one exporter drains.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._queue: deque = deque()
        self._seq = itertools.count(1)
        self.published = 0
        #: Cumulative drops per frame kind (never reset).
        self.dropped: Dict[str, int] = {}
        #: High watermark of queue lag seen at drain time, seconds
        #: (monotonic age of the oldest queued frame).
        self.max_lag_seconds = 0.0

    # ------------------------------------------------------------------
    def publish(self, kind: str, payload: Any) -> bool:
        """Queue one frame; returns ``False`` (and counts) when full.

        Never blocks: a slow or absent exporter costs dropped frames,
        not producer latency.
        """
        frame = {
            "kind": kind,
            "seq": next(self._seq),
            "ts": time.time(),
            "mono": time.monotonic(),
            "payload": payload,
        }
        with self._lock:
            if len(self._queue) >= self.capacity:
                self.dropped[kind] = self.dropped.get(kind, 0) + 1
                return False
            self._queue.append(frame)
            self.published += 1
        return True

    def drain(self, max_frames: Optional[int] = None) -> List[Dict[str, Any]]:
        """Remove and return queued frames, oldest first.

        Updates :attr:`max_lag_seconds` with the age of the oldest
        frame being drained (monotonic — wall-clock steps cannot fake
        a stall).
        """
        now = time.monotonic()
        out: List[Dict[str, Any]] = []
        with self._lock:
            while self._queue and (
                max_frames is None or len(out) < max_frames
            ):
                out.append(self._queue.popleft())
        if out:
            lag = max(0.0, now - out[0]["mono"])
            if lag > self.max_lag_seconds:
                self.max_lag_seconds = lag
        return out

    def depth(self) -> int:
        """Frames currently queued."""
        with self._lock:
            return len(self._queue)

    def total_dropped(self) -> int:
        """Total frames dropped across all kinds."""
        with self._lock:
            return sum(self.dropped.values())

    def header(self, rank: Optional[int] = None) -> Dict[str, Any]:
        """The ``parapll-telemetry/1`` stream header for this process."""
        return {
            "kind": "header",
            "schema": TELEMETRY_SCHEMA,
            "pid": os.getpid(),
            "rank": rank,
            "capacity": self.capacity,
        }


class MetricsDelta:
    """Per-series registry deltas between successive collections.

    The relay ships metric *deltas*, not cumulative snapshots, so the
    collector's merge is a plain sum for counters and histograms — two
    children and the parent can all bump the same counter and the
    merged total is exact, with no per-source bookkeeping in the parent
    registry.  Gauges are the exception: they ship current values and
    merge last-write-wins (tagged by source at the collector).

    A registry ``reset()`` between collections makes a cumulative value
    go backwards; that is detected per series and the post-reset value
    is shipped as the delta (the pre-reset increments were already
    shipped).

    The first collection ships each series' full cumulative value: a
    client attaching mid-process relays the story so far, so after any
    sequence of collections the shipped deltas sum to the source
    registry's cumulative total — the invariant the collector's merge
    relies on.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else get_registry()
        self._last: Dict[Tuple[str, Tuple[str, ...]], Any] = {}

    def collect(self) -> List[Dict[str, Any]]:
        """Deltas since the previous call (empty series are skipped)."""
        out: List[Dict[str, Any]] = []
        for metric in self._registry.collect():
            for key, series in metric.series_items():
                value = series.value()  # type: ignore[attr-defined]
                k = (metric.name, key)
                entry = {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "labels": dict(zip(metric.label_names, key)),
                }
                if metric.kind == "histogram":
                    counts = histogram_bucket_counts(value)
                    last = self._last.get(k)
                    if last is not None and all(
                        c >= l for c, l in zip(counts, last["counts"])
                    ):
                        dcounts = [
                            c - l for c, l in zip(counts, last["counts"])
                        ]
                        dsum = value["sum"] - last["sum"]
                        dcount = value["count"] - last["count"]
                    else:  # first sight or reset
                        dcounts = counts
                        dsum = value["sum"]
                        dcount = value["count"]
                    self._last[k] = {
                        "counts": counts,
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                    if dcount == 0:
                        continue
                    entry["delta"] = {
                        "bounds": [
                            b for b, _c in value["buckets"] if b != "+Inf"
                        ],
                        "counts": dcounts,
                        "sum": dsum,
                        "count": dcount,
                    }
                elif metric.kind == "counter":
                    last = self._last.get(k, 0.0)
                    delta = value - last if value >= last else value
                    self._last[k] = value
                    if delta == 0:
                        continue
                    entry["delta"] = delta
                else:  # gauge: ship the current value when it changed
                    last = self._last.get(k)
                    self._last[k] = value
                    if last is not None and value == last:
                        continue
                    entry["value"] = value
                out.append(entry)
        return out


# ----------------------------------------------------------------------
# Module-level installation (what the producers see)
# ----------------------------------------------------------------------
_active: Optional[TelemetryBus] = None


def active() -> Optional[TelemetryBus]:
    """The currently installed bus, or ``None``."""
    return _active


def install(bus: TelemetryBus) -> TelemetryBus:
    """Install *bus* as the process-wide telemetry bus."""
    global _active
    _active = bus
    return bus


def uninstall() -> None:
    """Remove the installed bus (no-op when none is installed)."""
    global _active
    _active = None


def publish_event(name: str, **attrs: Any) -> None:
    """Publish one producer event to the installed bus (if any).

    This is the instrumented paths' hook; it costs one global load and
    an ``is None`` test when no bus is installed, gated by the
    ``hook_overhead`` perf workload when one is.
    """
    bus = _active
    if bus is not None:
        bus.publish(
            "events",
            {
                "name": name,
                "thread": threading.current_thread().name,
                "attrs": attrs,
            },
        )
