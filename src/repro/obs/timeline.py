"""Timeline export and critical-path analysis of trace buffers.

Two consumers of the same :class:`~repro.obs.trace.TraceRecord` stream:

* :func:`chrome_trace` converts it into the Chrome Trace Event Format
  (the ``{"traceEvents": [...]}`` JSON that Perfetto and
  ``chrome://tracing`` load), one track per worker thread or simulated
  core.  Real and simulated records share one schema but run on
  different clocks, so they are separated into two trace *processes*
  (``pid`` 1 = wall clock, ``pid`` 2 = simulated seconds) and each
  process's timestamps are rebased to its own origin.

* :func:`analyze_critical_path` reduces the same records to the
  quantities that explain a parallel build's makespan: per-worker
  busy / lock-wait / idle fractions, the longest dependency chain of
  tasks (walking span parentage and commit ordering backwards from the
  last task to finish), and the top-k slowest root searches.

Task extraction understands both record shapes the builders emit:
span records (``kind == "span"``, wall clock, nested via ``parent_id``)
and the simulator's ``root_search`` events (``kind == "event"`` with
``start`` / ``finish`` / ``worker`` attributes and ``clock == "sim"``).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.export import write_text
from repro.obs.trace import TraceRecord, get_tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "TimelineTask",
    "LaneBreakdown",
    "CriticalPathReport",
    "analyze_critical_path",
    "render_critical_path",
]

#: Trace "process" ids for the two clock domains.
PID_WALL = 1
PID_SIM = 2

_US = 1_000_000.0  # seconds -> microseconds


def _is_sim(record: TraceRecord) -> bool:
    return record.attrs.get("clock") == "sim"


def _sim_bounds(record: TraceRecord) -> Tuple[float, float]:
    """(start, end) seconds of a simulator event record."""
    end = float(record.ts)
    start = float(record.attrs.get("start", end))
    if "finish" in record.attrs:
        end = float(record.attrs["finish"])
    return min(start, end), max(start, end)


@dataclass
class TimelineTask:
    """One unit of timed work on one lane (worker thread / virtual core).

    Attributes:
        name: record name (``"root_search"``, ``"cluster_sync"``, ...).
        lane: display lane, e.g. ``"worker 3"`` or a thread name.
        start: start time, seconds (domain clock).
        end: end time, seconds.
        lock_wait: seconds of the task spent waiting for the commit
            lock (0 when the producer did not record it).
        sim: whether the timestamps are simulated seconds.
        span_id: originating trace record id.
        parent_id: enclosing span id, if any.
        attrs: the record's attributes (shared, do not mutate).
    """

    name: str
    lane: str
    start: float
    end: float
    lock_wait: float = 0.0
    sim: bool = False
    span_id: int = 0
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Task length in seconds."""
        return self.end - self.start


def _lane_of(record: TraceRecord) -> str:
    worker = record.attrs.get("worker")
    if worker is not None:
        return f"worker {worker}"
    return record.thread or "main"


def extract_tasks(records: Iterable[TraceRecord]) -> List[TimelineTask]:
    """Normalise trace records into :class:`TimelineTask` intervals.

    Spans become tasks directly; simulator ``event`` records carrying
    ``start``/``finish`` attributes (the sim's task-completion marks)
    become tasks on their virtual worker's lane.  Instant events without
    an extent are skipped — they have no duration to account.
    """
    tasks: List[TimelineTask] = []
    for rec in records:
        sim = _is_sim(rec)
        if rec.kind == "span" and rec.dur is not None:
            start, end = float(rec.ts), float(rec.ts) + float(rec.dur)
        elif rec.kind == "event" and "start" in rec.attrs:
            start, end = _sim_bounds(rec)
        else:
            continue
        tasks.append(
            TimelineTask(
                name=rec.name,
                lane=_lane_of(rec),
                start=start,
                end=end,
                lock_wait=float(rec.attrs.get("lock_wait", 0.0)),
                sim=sim,
                span_id=rec.span_id,
                parent_id=rec.parent_id,
                attrs=rec.attrs,
            )
        )
    return tasks


# ----------------------------------------------------------------------
# Chrome Trace Event Format
# ----------------------------------------------------------------------
def chrome_trace(
    records: Optional[Iterable[TraceRecord]] = None,
) -> Dict[str, Any]:
    """Convert trace records to a Chrome Trace Event Format document.

    Defaults to the global tracer's buffer.  The result is a JSON-safe
    dict with ``traceEvents`` sorted by timestamp: complete (``"X"``)
    events for everything with an extent, instant (``"i"``) events for
    point marks, plus ``"M"`` metadata naming the processes (wall / sim
    clock domains) and per-lane threads.  Timestamps and durations are
    microseconds, rebased per clock domain so both start near 0.
    """
    if records is None:
        records = get_tracer().records()
    records = list(records)

    # Rebase each clock domain to its own earliest timestamp.
    origins: Dict[int, float] = {}
    for rec in records:
        pid = PID_SIM if _is_sim(rec) else PID_WALL
        ts = float(rec.ts)
        if rec.kind == "event" and "start" in rec.attrs:
            ts = _sim_bounds(rec)[0]
        origins[pid] = min(origins.get(pid, ts), ts)

    # Stable lane -> tid assignment per process, in first-seen order.
    tids: Dict[Tuple[int, str], int] = {}

    def tid_for(pid: int, lane: str) -> int:
        key = (pid, lane)
        if key not in tids:
            tids[key] = sum(1 for p, _l in tids if p == pid)
        return tids[key]

    events: List[Dict[str, Any]] = []
    # Cross-rank message stitching: comm_send ("flow": "out") and
    # comm_recv ("flow": "in") records sharing a flow_id become a
    # Chrome flow-event arrow from the send point to the recv point.
    flow_sends: Dict[str, Tuple[int, int, float]] = {}
    flow_recvs: List[Tuple[str, int, int, float, int]] = []
    for rec in records:
        pid = PID_SIM if _is_sim(rec) else PID_WALL
        lane = _lane_of(rec)
        tid = tid_for(pid, lane)
        args = {
            k: v
            for k, v in rec.attrs.items()
            if isinstance(v, (str, int, float, bool)) or v is None
        }
        args["span_id"] = rec.span_id
        if rec.parent_id is not None:
            args["parent_id"] = rec.parent_id
        if rec.kind == "span" and rec.dur is not None:
            ts, dur = float(rec.ts), float(rec.dur)
            ph = "X"
        elif rec.kind == "event" and "start" in rec.attrs:
            start, end = _sim_bounds(rec)
            ts, dur = start, end - start
            ph = "X"
        else:
            ts, dur = float(rec.ts), 0.0
            ph = "i"
        event: Dict[str, Any] = {
            "name": rec.name,
            "ph": ph,
            "ts": round((ts - origins[pid]) * _US, 3),
            "dur": round(dur * _US, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        }
        if ph == "i":
            event["s"] = "t"  # thread-scoped instant
        events.append(event)
        flow = rec.attrs.get("flow")
        flow_id = rec.attrs.get("flow_id")
        if flow_id is not None:
            if flow == "out":
                flow_sends[flow_id] = (pid, tid, event["ts"])
            elif flow == "in":
                flow_recvs.append(
                    (flow_id, pid, tid, event["ts"], rec.span_id)
                )
    # Emit one flow arrow per delivered message.  Broadcast/allgather
    # sends fan out to several receivers, so the edge id is
    # flow_id + receiver (Chrome flow ids must be unique per arrow).
    for flow_id, pid, tid, ts, span_id in flow_recvs:
        send = flow_sends.get(flow_id)
        if send is None:
            continue
        s_pid, s_tid, s_ts = send
        edge = f"{flow_id}>{span_id}"
        events.append(
            {
                "name": "comm",
                "cat": "comm",
                "ph": "s",
                "id": edge,
                "ts": s_ts,
                "dur": 0,
                "pid": s_pid,
                "tid": s_tid,
                "args": {"flow_id": flow_id},
            }
        )
        events.append(
            {
                "name": "comm",
                "cat": "comm",
                "ph": "f",
                "bp": "e",
                "id": edge,
                "ts": max(ts, s_ts),
                "dur": 0,
                "pid": pid,
                "tid": tid,
                "args": {"flow_id": flow_id},
            }
        )
    events.sort(key=lambda e: (e["pid"], e["ts"], e["tid"]))

    meta: List[Dict[str, Any]] = []
    names = {PID_WALL: "parapll (wall clock)", PID_SIM: "parapll (simulated)"}
    for pid in sorted({p for p, _l in tids}):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "dur": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": names[pid]},
            }
        )
    for (pid, lane), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "dur": 0,
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.timeline", "schema": "chrome-trace/1"},
    }


def write_chrome_trace(
    path_or_file: Union[str, IO[str]],
    records: Optional[Iterable[TraceRecord]] = None,
) -> int:
    """Write a Chrome trace JSON file; returns the trace-event count."""
    doc = chrome_trace(records)
    write_text(path_or_file, json.dumps(doc, indent=1))
    return len(doc["traceEvents"])


# ----------------------------------------------------------------------
# Critical-path analysis
# ----------------------------------------------------------------------
@dataclass
class LaneBreakdown:
    """Where one worker's share of the makespan went.

    ``busy + lock_wait + idle == 1`` (fractions of the makespan).
    """

    lane: str
    tasks: int
    busy_seconds: float
    lock_wait_seconds: float
    idle_seconds: float
    busy: float
    lock_wait: float
    idle: float


@dataclass
class CriticalPathReport:
    """The analysed timeline of one build.

    Attributes:
        makespan: window covered by the tasks, seconds.
        sim: whether the timestamps are simulated seconds.
        lanes: per-worker breakdowns, lane-name order.
        chain: the longest dependency chain, in execution order.
        chain_seconds: summed task time along the chain.
        chain_coverage: ``chain_seconds / makespan`` — how much of the
            end-to-end time the chain explains (1.0 means the makespan
            is fully serialised on this chain).
        slowest: the top-k slowest tasks, slowest first.
    """

    makespan: float
    sim: bool
    lanes: List[LaneBreakdown]
    chain: List[TimelineTask]
    chain_seconds: float
    chain_coverage: float
    slowest: List[TimelineTask]


def _dependency_chain(tasks: List[TimelineTask]) -> List[TimelineTask]:
    """The longest dependency chain, walked backwards from the end.

    The dependency structure is implicit: a task could not start before
    (a) its predecessor on the same lane finished, or (b) the task whose
    commit most recently preceded its start finished (the label store /
    commit-lock ordering, and span parentage for nested spans).  Walking
    from the last task to finish, each step picks the latest-finishing
    task that ended at or before the current task's start — preferring a
    same-lane predecessor on (near-)ties, and following ``parent_id``
    upward when the chain reaches the start of a nested span.
    """
    if not tasks:
        return []
    by_id = {t.span_id: t for t in tasks}
    by_end = sorted(tasks, key=lambda t: t.end)
    ends = [t.end for t in by_end]
    current = max(tasks, key=lambda t: t.end)
    chain = [current]
    seen = {id(current)}
    eps = 1e-9
    while True:
        hi = bisect_right(ends, current.start + eps)
        nxt = None
        if hi > 0:
            best_end = ends[hi - 1]
            # Among the latest finishers (ties within eps), prefer the
            # same-lane predecessor; otherwise take any latest one.
            k = hi - 1
            while k >= 0 and ends[k] >= best_end - eps:
                cand = by_end[k]
                if id(cand) not in seen:
                    if nxt is None:
                        nxt = cand
                    if cand.lane == current.lane:
                        nxt = cand
                        break
                k -= 1
        if nxt is None:
            parent = (
                by_id.get(current.parent_id) if current.parent_id else None
            )
            if parent is not None and id(parent) not in seen:
                nxt = parent
            else:
                break
        chain.append(nxt)
        seen.add(id(nxt))
        current = nxt
    chain.reverse()
    return chain


def _drop_containers(tasks: List[TimelineTask]) -> List[TimelineTask]:
    """Filter out enclosing spans, keeping only leaf work items.

    A span is a container when another task nests under it via
    ``parent_id`` (serial builds: same-thread nesting), or when it is
    alone on its lane, covers essentially the whole makespan, and
    temporally encloses most other tasks (threaded builds: the
    whole-build span wraps every worker's root searches but is never
    their ``parent_id`` — span nesting is thread-local).  Counting a
    container as work would report its lane as 100% busy and hand it
    the critical path.  Ordinary tasks that merely overlap smaller
    tasks on other lanes are kept.
    """
    ids_with_children = {
        t.parent_id for t in tasks if t.parent_id is not None
    }
    lane_counts: Dict[str, int] = {}
    for t in tasks:
        lane_counts[t.lane] = lane_counts.get(t.lane, 0) + 1
    t0 = min(t.start for t in tasks)
    t1 = max(t.end for t in tasks)
    span_floor = 0.98 * (t1 - t0)
    by_start = sorted(tasks, key=lambda t: t.start)
    starts = [t.start for t in by_start]

    def is_container(t: TimelineTask) -> bool:
        if t.span_id in ids_with_children:
            return True
        if lane_counts[t.lane] != 1 or t.duration < span_floor:
            return False
        others = len(tasks) - 1
        if others == 0:
            return False
        lo = bisect_left(starts, t.start)
        hi = bisect_right(starts, t.end)
        enclosed = sum(
            1
            for other in by_start[lo:hi]
            if other is not t and other.end <= t.end
        )
        return 2 * enclosed >= others

    return [t for t in tasks if not is_container(t)]


def analyze_critical_path(
    records: Optional[Iterable[TraceRecord]] = None,
    top_k: int = 5,
    task_names: Optional[Iterable[str]] = None,
) -> CriticalPathReport:
    """Analyse a trace buffer into a :class:`CriticalPathReport`.

    Args:
        records: trace records (defaults to the global tracer).  When
            the buffer holds both wall-clock and simulated records the
            simulated domain is analysed (it is the one with scheduling
            semantics; pre-filter the records to override).
        top_k: how many slowest tasks to report.
        task_names: restrict the analysis to these record names
            (default: every record with an extent, minus enclosing
            whole-build spans, which would otherwise count one lane as
            100% busy).

    Raises:
        ValueError: when the records contain no analysable tasks.
    """
    if records is None:
        records = get_tracer().records()
    tasks = extract_tasks(records)
    if any(t.sim for t in tasks):
        tasks = [t for t in tasks if t.sim]
    if task_names is not None:
        wanted = set(task_names)
        tasks = [t for t in tasks if t.name in wanted]
    else:
        tasks = _drop_containers(tasks)
    if not tasks:
        raise ValueError("no timed tasks in the trace buffer")

    t0 = min(t.start for t in tasks)
    t1 = max(t.end for t in tasks)
    makespan = max(t1 - t0, 1e-12)

    lanes: Dict[str, List[TimelineTask]] = {}
    for t in tasks:
        lanes.setdefault(t.lane, []).append(t)
    breakdowns = []
    for lane in sorted(lanes):
        lane_tasks = lanes[lane]
        lock = sum(min(t.lock_wait, t.duration) for t in lane_tasks)
        busy = sum(t.duration for t in lane_tasks) - lock
        idle = max(0.0, makespan - busy - lock)
        breakdowns.append(
            LaneBreakdown(
                lane=lane,
                tasks=len(lane_tasks),
                busy_seconds=busy,
                lock_wait_seconds=lock,
                idle_seconds=idle,
                busy=busy / makespan,
                lock_wait=lock / makespan,
                idle=idle / makespan,
            )
        )

    chain = _dependency_chain(tasks)
    chain_seconds = sum(t.duration for t in chain)
    slowest = sorted(tasks, key=lambda t: t.duration, reverse=True)[:top_k]
    return CriticalPathReport(
        makespan=makespan,
        sim=any(t.sim for t in tasks),
        lanes=breakdowns,
        chain=chain,
        chain_seconds=chain_seconds,
        chain_coverage=min(1.0, chain_seconds / makespan),
        slowest=slowest,
    )


def render_critical_path(report: CriticalPathReport) -> str:
    """Terminal-friendly rendering of a :class:`CriticalPathReport`."""
    unit = "sim-s" if report.sim else "s"
    lines = [
        "critical path",
        "=============",
        f"makespan {report.makespan:.4f}{unit}, longest chain "
        f"{len(report.chain)} tasks / {report.chain_seconds:.4f}{unit} "
        f"({report.chain_coverage:.0%} of makespan)",
        "per-worker breakdown (busy / lock-wait / idle):",
    ]
    for lane in report.lanes:
        lines.append(
            f"  {lane.lane:<12} {lane.tasks:5d} tasks  "
            f"{lane.busy:6.1%} / {lane.lock_wait:6.1%} / {lane.idle:6.1%}"
        )
    if report.slowest:
        lines.append(f"top {len(report.slowest)} slowest tasks:")
        for t in report.slowest:
            what = f"root {t.attrs['root']}" if "root" in t.attrs else t.name
            lines.append(
                f"  {t.duration:.5f}{unit}  {what:<14} on {t.lane}"
            )
    return "\n".join(lines)
