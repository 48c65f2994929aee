"""The index-health auditor: one versioned report per built index.

Where :mod:`repro.obs.buildmon` watches a build in flight, the auditor
examines the *finished* artifact — the flat CSR label triple — and
answers the questions the paper's evaluation asks of every index:

* **Label-size distribution** — per-vertex entry counts (mean = the
  paper's "LN" column, p50/p95/p99/max), straight off ``indptr``.
* **Hub coverage concentration** — the Figure-6 skew measured on the
  finished index: the fraction of all entries contributed by the
  top-ranked hubs, and ``roots_to_reach`` for several coverage
  fractions (the "~90 % from ~100 roots" statistic), via
  :func:`repro.core.stats.hub_coverage_cdf`.
* **Dominated (redundant) entries** — labels covered by an
  earlier-ranked common hub.  A serial build is canonical and must
  report zero; parallel and cluster builds legitimately carry some
  (Table 5), and the count quantifies exactly how many.  The scan
  reuses the *same* domination predicate as the invariant verifier
  (:mod:`repro.check.invariants`), so ``parapll audit`` and ``parapll
  check index`` can never disagree.
* **Memory attribution** — per-array bytes of the CSR triple and the
  resident-set estimate for memory-mapped ``dir`` bundles, via
  :meth:`LabelStore.memory_breakdown`.

Reports are plain JSON dicts under the versioned schema
``parapll-audit/1`` (:func:`validate_report` rejects anything else),
so they can be stored next to an index bundle and diffed later:
:func:`diff_reports` compares two audits — serial vs. parallel build,
pre/post dynamic repair, two rank orders — and flags regressions
(new dominated entries, label growth) explicitly.

Surfaces: ``parapll audit run | diff`` (CLI), the ``audit`` server op,
and the ``hook_overhead`` perf workload.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.stats import hub_contribution, hub_coverage_cdf, roots_to_reach
from repro.errors import CheckError

__all__ = [
    "AUDIT_SCHEMA",
    "audit_index",
    "validate_report",
    "load_report",
    "diff_reports",
    "render_report",
    "render_diff",
]

AUDIT_SCHEMA = "parapll-audit/1"

#: Coverage fractions reported by default (0.9 is the paper's figure).
DEFAULT_COVERAGE_FRACTIONS = (0.5, 0.9, 0.99)

#: Cap on dominated-entry examples carried in the report.
_MAX_EXAMPLES = 20


def audit_index(
    index,
    coverage_fractions: Sequence[float] = DEFAULT_COVERAGE_FRACTIONS,
    check_dominated: bool = True,
    atol: float = 1e-9,
    source: Optional[str] = None,
) -> Dict[str, Any]:
    """Audit a built :class:`~repro.core.index.PLLIndex`.

    Args:
        index: the index to audit (fresh or loaded; mmap-backed works).
        coverage_fractions: hub-coverage fractions to report
            ``roots_to_reach`` for.
        check_dominated: run the O(entries × avg-label) domination
            scan; disable for very large indexes when only sizes and
            coverage are needed (the report marks the section
            ``checked: false``).
        atol: float tolerance of the domination predicate (must match
            the invariant verifier's to keep the two in agreement).
        source: optional provenance string stored in the report (e.g.
            the index path).

    Returns:
        A JSON-safe ``parapll-audit/1`` report dict.
    """
    store = index.store
    indptr, hubs, dists = store.finalized_arrays()
    n = store.n
    sizes = np.diff(indptr)
    total = int(len(hubs))

    # -- label-size distribution --------------------------------------
    if n:
        label_sizes = {
            "mean": float(sizes.mean()),
            "min": int(sizes.min()),
            "p50": float(np.percentile(sizes, 50)),
            "p95": float(np.percentile(sizes, 95)),
            "p99": float(np.percentile(sizes, 99)),
            "max": int(sizes.max()),
        }
    else:
        label_sizes = {
            "mean": 0.0, "min": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            "max": 0,
        }

    # -- hub coverage concentration (Figure 6 on the finished index) --
    contrib = hub_contribution(store)
    cdf = hub_coverage_cdf(store)
    top10 = min(10, n)
    coverage = {
        "roots_to_reach": {
            f"{f:g}": int(roots_to_reach(cdf, f)) if total else 0
            for f in coverage_fractions
        },
        "top_hub_entries": int(contrib[0]) if n else 0,
        "top10_fraction": (
            float(contrib[:top10].sum() / total) if total else 0.0
        ),
        "nonzero_hubs": int(np.count_nonzero(contrib)),
    }

    # -- dominated / redundant entries --------------------------------
    dominated: Dict[str, Any] = {"checked": bool(check_dominated)}
    if check_dominated:
        # The verifier's own predicate, imported lazily: repro.check
        # sits a layer above repro.obs, and sharing the exact function
        # is what keeps `parapll audit` and `parapll check index` in
        # agreement by construction.
        from repro.check.invariants import _dominated

        order = np.asarray(index.order, dtype=np.int64)
        rank = index.rank
        count = 0
        examples: List[Dict[str, Any]] = []
        for v in range(n):
            hubs_v = store.finalized_hubs(v)
            dists_v = store.finalized_dists(v)
            rv = int(rank[v])
            for i in range(len(hubs_v)):
                h = int(hubs_v[i])
                if h == rv:
                    continue  # the self label is never dominated
                d = float(dists_v[i])
                if _dominated(store, int(order[h]), v, h, d, atol):
                    count += 1
                    if len(examples) < _MAX_EXAMPLES:
                        examples.append(
                            {"vertex": v, "hub_rank": h, "dist": d}
                        )
        dominated["count"] = count
        dominated["examples"] = examples
    else:
        dominated["count"] = None
        dominated["examples"] = []

    report: Dict[str, Any] = {
        "schema": AUDIT_SCHEMA,
        "generated_at": time.time(),
        "source": source,
        "n": n,
        "total_entries": total,
        "avg_label_size": float(total / n) if n else 0.0,
        "label_sizes": label_sizes,
        "hub_coverage": coverage,
        "dominated": dominated,
        "memory": store.memory_breakdown(),
    }
    return report


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
_TOP_KEYS = {
    "schema": str,
    "generated_at": (int, float),
    "n": int,
    "total_entries": int,
    "avg_label_size": (int, float),
    "label_sizes": dict,
    "hub_coverage": dict,
    "dominated": dict,
    "memory": dict,
}
_LABEL_SIZE_KEYS = ("mean", "min", "p50", "p95", "p99", "max")
_COVERAGE_KEYS = (
    "roots_to_reach", "top_hub_entries", "top10_fraction", "nonzero_hubs",
)
_MEMORY_KEYS = (
    "indptr_bytes", "hubs_bytes", "dists_bytes", "total_bytes",
    "bytes_per_entry", "mmap", "resident_bytes_estimate",
)


def validate_report(report: Any) -> None:
    """Structurally validate a ``parapll-audit/1`` report.

    Raises:
        CheckError: naming the first offending field.
    """
    if not isinstance(report, dict):
        raise CheckError("audit report must be a JSON object")
    if report.get("schema") != AUDIT_SCHEMA:
        raise CheckError(
            f"audit schema is {report.get('schema')!r}, "
            f"expected {AUDIT_SCHEMA!r}"
        )
    for key, typ in _TOP_KEYS.items():
        if key not in report:
            raise CheckError(f"audit report missing key {key!r}")
        if not isinstance(report[key], typ):
            raise CheckError(
                f"audit report key {key!r} has type "
                f"{type(report[key]).__name__}"
            )
    for key in _LABEL_SIZE_KEYS:
        if key not in report["label_sizes"]:
            raise CheckError(f"label_sizes missing {key!r}")
        if not isinstance(report["label_sizes"][key], (int, float)):
            raise CheckError(f"label_sizes[{key!r}] is not numeric")
    for key in _COVERAGE_KEYS:
        if key not in report["hub_coverage"]:
            raise CheckError(f"hub_coverage missing {key!r}")
    rtr = report["hub_coverage"]["roots_to_reach"]
    if not isinstance(rtr, dict) or not all(
        isinstance(v, int) for v in rtr.values()
    ):
        raise CheckError("hub_coverage.roots_to_reach must map to ints")
    dom = report["dominated"]
    if "checked" not in dom or "count" not in dom or "examples" not in dom:
        raise CheckError("dominated section incomplete")
    if dom["checked"] and not isinstance(dom["count"], int):
        raise CheckError("dominated.count must be an int when checked")
    for key in _MEMORY_KEYS:
        if key not in report["memory"]:
            raise CheckError(f"memory missing {key!r}")
    # Internal consistency: sizes must account for every entry.
    if report["n"] and report["total_entries"]:
        if report["label_sizes"]["max"] < 1:
            raise CheckError("non-empty index with max label size < 1")


def load_report(path: str) -> Dict[str, Any]:
    """Read and validate a report written by ``parapll audit run``."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    validate_report(report)
    return report


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def diff_reports(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    """Compare two audit reports (*a* = baseline, *b* = candidate).

    Returns:
        A JSON-safe diff with per-field deltas and a ``regressions``
        list naming what got worse in *b*: new dominated entries,
        label-entry growth, or a heavier coverage tail (more roots
        needed to reach 90 %).  ``comparable`` is False (and deltas are
        still reported) when the two indexes cover different vertex
        counts.

    Raises:
        CheckError: if either input fails schema validation.
    """
    validate_report(a)
    validate_report(b)
    regressions: List[str] = []

    entries_delta = b["total_entries"] - a["total_entries"]
    if entries_delta > 0:
        pct = (
            100.0 * entries_delta / a["total_entries"]
            if a["total_entries"]
            else float("inf")
        )
        regressions.append(
            f"label entries grew by {entries_delta} (+{pct:.1f}%)"
        )

    dom_a = a["dominated"]["count"] if a["dominated"]["checked"] else None
    dom_b = b["dominated"]["count"] if b["dominated"]["checked"] else None
    dominated_delta = (
        dom_b - dom_a if dom_a is not None and dom_b is not None else None
    )
    if dominated_delta is not None and dominated_delta > 0:
        regressions.append(
            f"dominated entries grew by {dominated_delta} "
            f"({dom_a} -> {dom_b})"
        )
    if dom_b:
        regressions.append(f"candidate carries {dom_b} dominated entr(ies)")

    rtr_deltas: Dict[str, Optional[int]] = {}
    for frac, a_val in a["hub_coverage"]["roots_to_reach"].items():
        b_val = b["hub_coverage"]["roots_to_reach"].get(frac)
        rtr_deltas[frac] = (b_val - a_val) if b_val is not None else None
    delta_90 = rtr_deltas.get("0.9")
    if delta_90 is not None and delta_90 > 0:
        regressions.append(
            f"coverage tail heavier: roots_to_reach(0.9) +{delta_90}"
        )

    return {
        "schema": AUDIT_SCHEMA,
        "kind": "diff",
        "comparable": a["n"] == b["n"],
        "n": {"a": a["n"], "b": b["n"]},
        "total_entries": {
            "a": a["total_entries"],
            "b": b["total_entries"],
            "delta": entries_delta,
        },
        "avg_label_size": {
            "a": a["avg_label_size"],
            "b": b["avg_label_size"],
            "delta": b["avg_label_size"] - a["avg_label_size"],
        },
        "max_label_size": {
            "a": a["label_sizes"]["max"],
            "b": b["label_sizes"]["max"],
            "delta": b["label_sizes"]["max"] - a["label_sizes"]["max"],
        },
        "dominated": {"a": dom_a, "b": dom_b, "delta": dominated_delta},
        "roots_to_reach": rtr_deltas,
        "memory_total_bytes": {
            "a": a["memory"]["total_bytes"],
            "b": b["memory"]["total_bytes"],
            "delta": b["memory"]["total_bytes"] - a["memory"]["total_bytes"],
        },
        "regressions": regressions,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_report(report: Dict[str, Any]) -> str:
    """Terminal summary of one audit report."""
    ls = report["label_sizes"]
    cov = report["hub_coverage"]
    dom = report["dominated"]
    mem = report["memory"]
    lines = [
        f"index audit ({report['schema']})",
        "=" * 32,
        f"vertices       {report['n']}",
        f"label entries  {report['total_entries']} "
        f"(avg {report['avg_label_size']:.2f}/vertex)",
        f"label sizes    p50={ls['p50']:.0f}  p95={ls['p95']:.0f}  "
        f"p99={ls['p99']:.0f}  max={ls['max']}",
        "hub coverage   "
        + "  ".join(
            f"{frac}->{count} roots"
            for frac, count in cov["roots_to_reach"].items()
        ),
        f"concentration  top hub {cov['top_hub_entries']} entries, "
        f"top-10 hubs {cov['top10_fraction']:.1%} of all",
    ]
    if dom["checked"]:
        verdict = "canonical" if dom["count"] == 0 else "redundant"
        lines.append(
            f"dominated      {dom['count']} entr(ies) [{verdict}]"
        )
    else:
        lines.append("dominated      (scan skipped)")
    lines.append(
        f"memory         {mem['total_bytes']} B total "
        f"(indptr {mem['indptr_bytes']}, hubs {mem['hubs_bytes']}, "
        f"dists {mem['dists_bytes']})"
        + ("  [mmap]" if mem["mmap"] else "")
    )
    if mem["mmap"]:
        lines.append(
            f"resident est.  {mem['resident_bytes_estimate']} B"
        )
    return "\n".join(lines)


def render_diff(diff: Dict[str, Any]) -> str:
    """Terminal summary of an audit diff."""
    lines = ["audit diff (a = baseline, b = candidate)", "=" * 40]
    if not diff["comparable"]:
        lines.append(
            f"NOTE: different vertex counts "
            f"(a={diff['n']['a']}, b={diff['n']['b']})"
        )
    for key in ("total_entries", "avg_label_size", "max_label_size"):
        row = diff[key]
        delta = row["delta"]
        sign = "+" if isinstance(delta, (int, float)) and delta > 0 else ""
        if isinstance(delta, float):
            lines.append(
                f"{key:<16} {row['a']:.2f} -> {row['b']:.2f} "
                f"({sign}{delta:.2f})"
            )
        else:
            lines.append(
                f"{key:<16} {row['a']} -> {row['b']} ({sign}{delta})"
            )
    dom = diff["dominated"]
    if dom["delta"] is not None:
        sign = "+" if dom["delta"] > 0 else ""
        lines.append(
            f"{'dominated':<16} {dom['a']} -> {dom['b']} "
            f"({sign}{dom['delta']})"
        )
    for frac, delta in diff["roots_to_reach"].items():
        if delta is None:
            continue
        sign = "+" if delta > 0 else ""
        lines.append(f"roots_to_reach({frac})  {sign}{delta}")
    if diff["regressions"]:
        lines.append("regressions:")
        for r in diff["regressions"]:
            lines.append(f"  - {r}")
        lines.append("verdict: REGRESSED")
    else:
        lines.append("verdict: OK (no regressions)")
    return "\n".join(lines)
