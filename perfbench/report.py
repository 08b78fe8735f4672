"""Metric definitions and the arithmetic that turns a run into metrics.

``END_TO_END`` and ``PER_LAYER`` are the metric lists of
``BENCHMARK.json`` (a test keeps the two in step).  Every workload
reports every metric: an end-to-end metric is one a user of that
workload sees, and a per-layer metric of a layer the workload does not
reach reads 0.
"""
from __future__ import annotations

import statistics

from spans import Span, inclusive_jobs, self_times

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "round_s": ("s", "lower", 0.25),
    "index_bytes_per_series": ("B", "lower", 0.05),
    "driver_rss_mb": ("MB", "lower", 0.2),
}

LAYER_SPANS = {
    "coconut_tree.build_coconut_tree": ("self_s",),
    "coconut_trie.build_coconut_trie": ("self_s",),
    "coconut_tree.merge_batch": ("self_s",),
    "sort_rank.global_sort_with_rank": ("s", "jobs"),
    "coconut_common.write_index_files": ("s", "jobs", "bytes"),
    "coconut_common.directory_from_summaries": ("s", "jobs"),
    "coconut_common.CoconutIndex.read_leaves": ("s", "calls", "rows", "jobs"),
    "coconut_common.CoconutIndex.fetch_raw": ("s", "calls", "rows", "jobs"),
    "query.query_summary": ("s",),
    "query.approximate_search": ("self_s",),
    "query.exact_search": ("self_s",),
    "distance.euclidean": ("s", "calls", "rows"),
}
QUERY_COUNTS = {
    "query.exact.candidate_frac": "ratio",
    "query.exact.visited_per_candidate": "ratio",
    "query.approx.records_per_result": "count",
    "query.jobs_per_approx": "count",
    "query.jobs_per_exact": "count",
}
DISK_OPS = ("build", "approx", "exact")
DISK_QUANTITIES = ("sim_s", "seeks", "seq_blocks", "random_reads")
UNITS = {"s": "s", "self_s": "s", "jobs": "count", "calls": "count",
         "rows": "count", "bytes": "B", "sim_s": "s", "seeks": "count",
         "seq_blocks": "count", "random_reads": "count"}


def _per_layer_units() -> dict[str, str]:
    out = {}
    for span, quantities in LAYER_SPANS.items():
        for q in quantities:
            out[f"{span}.{q}"] = UNITS[q]
    out.update(QUERY_COUNTS)
    for op in DISK_OPS:
        for q in DISK_QUANTITIES:
            out[f"disk_model.{op}.{q}"] = UNITS[q]
    out["trace.overhead_frac"] = "ratio"
    return out


PER_LAYER = _per_layer_units()

# Per-layer metrics that count work rather than time it: two runs with the
# same seed must give them identical values.
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "B", "ratio") and name != "trace.overhead_frac"
) + tuple(f"disk_model.{op}.sim_s" for op in DISK_OPS)


def tail(samples: list[float]) -> tuple[float, int, float] | None:
    """(percentile, samples beyond it, value) for the highest whole
    percentile with at least 10 samples beyond it, by nearest rank.

    ``None`` when that percentile would be below the median (fewer than
    20 samples), where a "tail" says nothing the median does not.
    """
    n = len(samples)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)          # nearest rank, 1-based
    return float(p), n - rank, sorted(samples)[rank - 1]


def op_summary(events, tally) -> dict[str, float | str]:
    """Human-readable per-operation figures of one untraced run."""
    out: dict[str, float | str] = {}
    by_kind: dict[str, list] = {}
    for e in events:
        by_kind.setdefault(e.kind, []).append(e)
    for kind in ("build_ctree", "build_ctree_full", "build_ctrie", "merge"):
        if kind in by_kind:
            name = "merge_s" if kind == "merge" else f"{kind}_s"
            out[name] = statistics.median(e.wall_s for e in by_kind[kind])
    for kind in ("approx", "exact"):
        if kind not in by_kind:
            continue
        ms = [e.wall_s * 1e3 for e in by_kind[kind]]
        out[f"{kind}_p50_ms"] = statistics.median(ms)
        t = tail(ms)
        out[f"{kind}_tail_ms"] = (
            f"{t[2]:.4f} (p{t[0]:g}, {t[1]} of {len(ms)} samples beyond)" if t
            else f"n/a ({len(ms)} samples; a tail needs 20)"
        )
    if "approx" in by_kind:
        out["approx_ratio"] = statistics.fmean(e.ratio for e in by_kind["approx"])
    out["fail_ratio"] = tally.fail_ratio
    return out


def per_layer(spans: list[Span], events, rounds: list[int],
              overhead_frac: float) -> dict[str, float]:
    """Per-layer figures, averaged per traced round over ``rounds``."""
    keep = set(rounds)
    spans = [s for s in spans if s.round in keep]
    events = [e for e in events if e.round in keep]
    k = max(1, len(rounds))
    selfs = self_times(spans)
    jobs = inclusive_jobs(spans)
    out: dict[str, float] = {}
    for name, quantities in LAYER_SPANS.items():
        mine = [s for s in spans if s.name == name]
        values = {
            "s": sum(s.end - s.start for s in mine),
            "self_s": sum(selfs[s.sid] for s in mine),
            "calls": len(mine),
            "rows": sum(s.rows for s in mine),
            "bytes": sum(s.bytes for s in mine),
            "jobs": sum(jobs[s.sid] for s in mine),
        }
        for q in quantities:
            out[f"{name}.{q}"] = values[q] / k

    by_sid = {s.sid: s for s in spans}

    def top_level(name: str) -> list[Span]:
        return [s for s in spans if s.name == name
                and s.parent is not None and by_sid[s.parent].name.startswith("op.")]

    approx = [e for e in events if e.kind == "approx"]
    exact = [e for e in events if e.kind == "exact"]
    cands = sum(e.candidates for e in exact)
    out["query.exact.candidate_frac"] = (
        statistics.fmean(e.candidates / e.n for e in exact) if exact else 0.0)
    out["query.exact.visited_per_candidate"] = (
        sum(e.visited for e in exact) / cands if cands else 0.0)
    out["query.approx.records_per_result"] = (
        statistics.fmean(e.visited for e in approx) if approx else 0.0)
    for kind, span in (("approx", "query.approximate_search"), ("exact", "query.exact_search")):
        tops = top_level(span)
        out[f"query.jobs_per_{kind}"] = (
            sum(jobs[s.sid] for s in tops) / len(tops) if tops else 0.0)

    groups = {"build": [e for e in events if e.kind.startswith("build") or e.kind == "merge"],
              "approx": approx, "exact": exact}
    for op, evs in groups.items():
        for q in DISK_QUANTITIES:
            vals = [_disk_quantity(e.disk, q) for e in evs]
            out[f"disk_model.{op}.{q}"] = statistics.fmean(vals) if vals else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out


def _disk_quantity(snap: dict, q: str) -> float:
    if q == "sim_s":
        return snap["seconds"]
    if q == "seeks":
        return snap["random_reads"] + snap["random_writes"] + snap["seq_runs"]
    if q == "seq_blocks":
        return snap["seq_read_blocks"] + snap["seq_write_blocks"]
    return snap["random_reads"]
