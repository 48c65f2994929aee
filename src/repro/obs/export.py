"""Exporters: Prometheus text exposition, JSONL traces, text summary.

All output is produced from registry/tracer *snapshots*, so exporting
never blocks the instrumented hot paths for longer than one series
read.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.metrics import (
    DEFAULT_QUANTILES,
    Histogram,
    MetricsRegistry,
    get_registry,
    histogram_quantile,
)
from repro.obs.trace import TraceRecord, get_tracer

__all__ = [
    "prometheus_text",
    "write_text",
    "write_jsonl",
    "trace_to_jsonl",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "render_summary",
]


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Render a registry in the Prometheus text exposition format.

    Histograms expand into the conventional ``_bucket`` (cumulative,
    with ``le`` upper-bound labels including ``+Inf``), ``_sum`` and
    ``_count`` series.
    """
    registry = registry or get_registry()
    lines: List[str] = []
    for metric in registry.collect():
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for key, series in metric.series_items():
            if isinstance(metric, Histogram):
                snap = series.value()
                for bound, cumulative in snap["buckets"]:
                    le = "+Inf" if bound == "+Inf" else _format_value(
                        float(bound)
                    )
                    labels = _format_labels(
                        tuple(metric.label_names) + ("le",),
                        tuple(key) + (le,),
                    )
                    lines.append(
                        f"{metric.name}_bucket{labels} {cumulative}"
                    )
                base = _format_labels(metric.label_names, key)
                lines.append(
                    f"{metric.name}_sum{base} {_format_value(snap['sum'])}"
                )
                lines.append(f"{metric.name}_count{base} {snap['count']}")
            else:
                labels = _format_labels(metric.label_names, key)
                lines.append(
                    f"{metric.name}{labels} "
                    f"{_format_value(series.value())}"
                )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# File output
# ----------------------------------------------------------------------
PathOrFile = Union[str, os.PathLike, IO[str]]


def write_text(path_or_file: PathOrFile, text: str) -> None:
    """Write *text* to an open text file, or create/truncate a path."""
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)  # type: ignore[union-attr]
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:  # type: ignore[arg-type]
            fh.write(text)


def write_jsonl(
    path_or_file: PathOrFile,
    schema: str,
    records: Sequence[Dict[str, Any]],
    /,
    **header: Any,
) -> int:
    """Write a header line, then one JSON object per record.

    The shared dump format of the flight recorder, the query log and
    the build monitor: the header is ``{"kind": "header", "schema":
    schema, **header, "dumped_at": <wall time>}``, keys in that order.

    Returns:
        The number of records written (header excluded).
    """
    head = {"kind": "header", "schema": schema, **header}
    head["dumped_at"] = time.time()
    lines = [json.dumps(head)]
    lines.extend(json.dumps(record) for record in records)
    write_text(path_or_file, "\n".join(lines) + "\n")
    return len(records)


# ----------------------------------------------------------------------
# JSONL traces
# ----------------------------------------------------------------------
def trace_to_jsonl(records: Optional[Iterable[TraceRecord]] = None) -> str:
    """Serialise trace records as one JSON object per line."""
    if records is None:
        records = get_tracer().records()
    return "\n".join(
        json.dumps(r.to_dict(), sort_keys=True) for r in records
    ) + ("\n" if records else "")


def write_trace_jsonl(
    path_or_file: Union[str, IO[str]],
    records: Optional[Iterable[TraceRecord]] = None,
) -> int:
    """Write records (default: the global tracer's) as JSONL.

    Returns:
        The number of records written.
    """
    if records is None:
        records = get_tracer().records()
    records = list(records)
    write_text(path_or_file, trace_to_jsonl(records))
    return len(records)


def read_trace_jsonl(
    path_or_lines: Union[str, Iterable[str]],
) -> List[TraceRecord]:
    """Parse a JSONL trace back into :class:`TraceRecord` objects.

    Accepts a file path or any iterable of lines; blank lines are
    skipped.
    """
    if isinstance(path_or_lines, str):
        with open(path_or_lines, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(path_or_lines)
    out = []
    for line in lines:
        line = line.strip()
        if line:
            out.append(TraceRecord.from_dict(json.loads(line)))
    return out


# ----------------------------------------------------------------------
# Human-readable summary (the `parapll obs` report)
# ----------------------------------------------------------------------
def _series_value(
    snapshot: Dict[str, Dict], name: str, labels: Optional[Dict] = None
) -> float:
    metric = snapshot.get(name)
    if metric is None:
        return 0.0
    want = {k: str(v) for k, v in (labels or {}).items()}
    for series in metric["series"]:
        if series["labels"] == want:
            value = series["value"]
            return float(value) if not isinstance(value, dict) else 0.0
    return 0.0


def _labeled_series(snapshot: Dict[str, Dict], name: str) -> List[Dict]:
    metric = snapshot.get(name)
    return list(metric["series"]) if metric else []


def render_summary(registry: Optional[MetricsRegistry] = None) -> str:
    """A terminal-friendly report of the well-known ParaPLL metrics.

    Sections with no recorded data are omitted, so the output adapts to
    whatever actually ran (serial build, threaded build, cluster sim,
    service traffic).
    """
    registry = registry or get_registry()
    snap = {m["name"]: m for m in registry.snapshot()}
    lines: List[str] = ["observability summary", "====================="]

    roots = _series_value(snap, "parapll_build_roots_total")
    if roots:
        labels = _series_value(snap, "parapll_build_labels_total")
        settled = _series_value(snap, "parapll_build_settled_total")
        pruned = _series_value(snap, "parapll_build_prune_hits_total")
        pops = _series_value(snap, "parapll_build_heap_pops_total")
        scans = _series_value(snap, "parapll_build_query_scans_total")
        lines.append("build:")
        lines.append(
            f"  roots searched     {int(roots)}  "
            f"(labels {int(labels)}, {labels / roots:.1f}/root)"
        )
        prune_rate = pruned / settled if settled else 0.0
        lines.append(
            f"  prune rate         {prune_rate:.1%}  "
            f"({int(pruned)} of {int(settled)} settled)"
        )
        lines.append(
            f"  heap pops          {int(pops)}  "
            f"(label entries scanned {int(scans)})"
        )
    phases = _labeled_series(snap, "parapll_build_phase_seconds")
    phase_parts = [
        f"{s['labels'].get('phase', '?')} {float(s['value']):.3f}s"
        for s in phases
        if not isinstance(s["value"], dict) and float(s["value"]) > 0
    ]
    if phase_parts:
        lines.append(f"  phases             {' | '.join(phase_parts)}")

    workers = _labeled_series(snap, "parapll_worker_roots_total")
    if workers:
        lines.append("workers:")
        for series in sorted(
            workers, key=lambda s: int(s["labels"].get("worker", 0))
        ):
            w = series["labels"].get("worker", "?")
            wait = _series_value(
                snap,
                "parapll_worker_queue_wait_seconds_total",
                {"worker": w},
            )
            lines.append(
                f"  worker {w}: {int(float(series['value']))} roots, "
                f"queue wait {wait:.4f}s"
            )
        hold = _series_value(snap, "parapll_commit_lock_hold_seconds_total")
        wait = _series_value(snap, "parapll_commit_lock_wait_seconds_total")
        commits = _series_value(snap, "parapll_commits_total")
        lines.append(
            f"  commit lock: {int(commits)} commits, "
            f"hold {hold:.4f}s, wait {wait:.4f}s"
        )

    rounds = _series_value(snap, "parapll_cluster_sync_rounds_total")
    if rounds:
        redundant = _series_value(
            snap, "parapll_cluster_redundant_labels_total"
        )
        bcast = _series_value(snap, "parapll_cluster_bytes_total")
        metric = snap.get("parapll_cluster_sync_entries")
        entries = 0.0
        entries_hist = None
        if metric:
            for series in metric["series"]:
                if isinstance(series["value"], dict):
                    entries += float(series["value"]["sum"])
                    entries_hist = series["value"]
        lines.append("cluster:")
        lines.append(
            f"  sync rounds        {int(rounds)}  "
            f"(entries exchanged {int(entries)})"
        )
        if entries_hist and entries_hist["count"]:
            qs = [
                histogram_quantile(entries_hist, q) for q in DEFAULT_QUANTILES
            ]
            lines.append(
                "  entries/round      p50 {:.0f} | p95 {:.0f} | "
                "p99 {:.0f}".format(*qs)
            )
        lines.append(
            f"  redundant labels   {int(redundant)}  "
            f"(est. bytes on the wire {int(bcast)})"
        )

    requests = _labeled_series(snap, "parapll_service_requests_total")
    if requests:
        lines.append("service:")
        parts = [
            f"{s['labels'].get('op', '?')}={int(float(s['value']))}"
            for s in requests
            if not isinstance(s["value"], dict)
        ]
        lines.append(f"  requests           {' '.join(sorted(parts))}")
        for series in sorted(
            _labeled_series(snap, "parapll_service_request_seconds"),
            key=lambda s: s["labels"].get("op", ""),
        ):
            value = series["value"]
            if not isinstance(value, dict) or not value["count"]:
                continue
            op = series["labels"].get("op", "?")
            qs = [
                histogram_quantile(value, q) * 1000.0
                for q in DEFAULT_QUANTILES
            ]
            lines.append(
                "  latency {:<10} p50 {:.2f}ms | p95 {:.2f}ms | "
                "p99 {:.2f}ms".format(op, *qs)
            )
        errors = sum(
            float(s["value"])
            for s in _labeled_series(snap, "parapll_service_errors_total")
            if not isinstance(s["value"], dict)
        )
        malformed = _series_value(
            snap, "parapll_service_malformed_lines_total"
        )
        slow = _series_value(snap, "parapll_service_slow_requests_total")
        lines.append(
            f"  errors             {int(errors)}  "
            f"(malformed lines {int(malformed)}, slow {int(slow)})"
        )
        # Sliding-window view (process-lifetime quantiles above hide
        # what the last few minutes looked like).
        from repro.obs.slo import get_tracker

        for window, qs in sorted(get_tracker().windowed_quantiles().items()):
            lines.append(
                "  window  {:<10} ".format(window)
                + " | ".join(
                    f"{name} {qs[name] * 1000.0:.2f}ms"
                    for name in sorted(qs)
                )
            )

    frames = _labeled_series(snap, "parapll_telemetry_frames_total")
    if frames:
        # Telemetry-plane health: one line per relay source (frames
        # received, frames dropped at the source's bounded bus, max
        # queue lag the source ever saw at drain time).
        lines.append("telemetry:")
        for series in sorted(
            frames, key=lambda s: s["labels"].get("source", "")
        ):
            source = series["labels"].get("source", "?")
            dropped = _series_value(
                snap, "parapll_telemetry_dropped_total", {"source": source}
            )
            lag = _series_value(
                snap,
                "parapll_telemetry_queue_lag_seconds",
                {"source": source},
            )
            lines.append(
                f"  {source:<16} frames {int(float(series['value']))}, "
                f"dropped {int(dropped)}, max queue lag {lag:.3f}s"
            )

    if len(lines) == 2:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
