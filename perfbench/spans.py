"""Outside-in span recorder for the Coconut layers.

The benchmark never edits ``src/``.  Instead :meth:`Tracer.install`
replaces each traced function *where its caller looks it up* (for
example ``repro.core.coconut_tree.global_sort_with_rank``, the name
``build_coconut_tree`` resolves at call time) with a wrapper that records
a span, and :meth:`Tracer.uninstall` puts the originals back.

A span holds: name, start, end, parent span, op id, round, and the
Spark job group it ran under.  Spans that can start Spark jobs get their
own job group (``sc.setLocalProperty("spark.jobGroup.id", ...)``); after
the run, :meth:`Tracer.resolve_jobs` counts each group's jobs with
``statusTracker().getJobIdsForGroup``.  Pure-numpy layers
(``query_summary``, ``euclidean``) are light spans: no job group, so the
per-call py4j round trip does not swamp their microsecond bodies.

Known blind spots, by construction of an outside-in trace:

- Summarization (``summarize_series``) is a lazy ``mapInPandas``; it
  runs when ``global_sort_with_rank`` samples and persists, so its time
  is charged to ``sort_rank.global_sort_with_rank``.
- The SIMS bound pass of ``exact_search`` is a ``mapInPandas`` job whose
  ``mindist`` runs in executor workers; it is inside
  ``query.exact_search.self_s`` together with the refine loop's Python
  overhead (the refine distances themselves are ``distance.euclidean``).
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

JOB_GROUP = "spark.jobGroup.id"


@dataclass
class Span:
    sid: int
    name: str
    op: int
    round: int
    parent: int | None
    start: float
    end: float = 0.0
    group: str | None = None
    rows: int = 0
    bytes: int = 0
    jobs: int = 0          # jobs started directly under this span's group


def _rows(args, kwargs, out) -> dict:
    return {"rows": len(out)}


def _euclid_rows(args, kwargs, out) -> dict:
    return {"rows": int(getattr(out, "size", 1))}


def _written_bytes(args, kwargs, out) -> dict:
    path = Path(kwargs["path"] if "path" in kwargs else args[2])
    return {"bytes": dir_bytes(path / "leaves") + dir_bytes(path / "raw")}


def dir_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path`` (0 if it is absent)."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


# (module, attribute, span name, starts Spark jobs, quantities measured
# after the call).  One line per place a caller looks the name up; the same
# span name appears twice when both index variants import the function.
PATCHES: list[tuple[str, str, str, bool, Callable | None]] = [
    ("repro.core.coconut_tree", "build_coconut_tree", "coconut_tree.build_coconut_tree", True, None),
    ("repro.core.coconut_tree", "merge_batch", "coconut_tree.merge_batch", True, None),
    ("repro.core.coconut_trie", "build_coconut_trie", "coconut_trie.build_coconut_trie", True, None),
    ("repro.core.coconut_tree", "global_sort_with_rank", "sort_rank.global_sort_with_rank", True, None),
    ("repro.core.coconut_trie", "global_sort_with_rank", "sort_rank.global_sort_with_rank", True, None),
    ("repro.core.coconut_tree", "write_index_files", "coconut_common.write_index_files", True, _written_bytes),
    ("repro.core.coconut_trie", "write_index_files", "coconut_common.write_index_files", True, _written_bytes),
    ("repro.core.coconut_tree", "directory_from_summaries", "coconut_common.directory_from_summaries", True, None),
    ("repro.core.coconut_trie", "directory_from_summaries", "coconut_common.directory_from_summaries", True, None),
    ("repro.core.coconut_common.CoconutIndex", "read_leaves", "coconut_common.CoconutIndex.read_leaves", True, _rows),
    ("repro.core.coconut_common.CoconutIndex", "fetch_raw", "coconut_common.CoconutIndex.fetch_raw", True, _rows),
    ("repro.core.query", "query_summary", "query.query_summary", False, None),
    ("repro.core.query", "approximate_search", "query.approximate_search", True, None),
    ("repro.core.query", "exact_search", "query.exact_search", True, None),
    ("repro.core.query", "euclidean", "distance.euclidean", False, _euclid_rows),
]


def _resolve(target: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(target)
    except ModuleNotFoundError:
        mod, _, cls = target.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Tracer:
    """In-memory span recorder; spans are written out by :meth:`dump`."""

    def __init__(self, sc=None):
        self.sc = sc                      # SparkContext, or None (tests)
        self.spans: list[Span] = []
        self.round = -1
        self.active = False
        self._stack: list[Span] = []
        self._next_op = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _group_of_stack(self) -> str | None:
        for s in reversed(self._stack):
            if s.group is not None:
                return s.group
        return None

    @contextmanager
    def span(self, name: str, *, spark: bool = True) -> Iterator[Span | None]:
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._next_op += 1
        s = Span(
            sid=len(self.spans), name=name, op=self._next_op, round=self.round,
            parent=parent.sid if parent else None, start=0.0,
        )
        self.spans.append(s)
        if spark and self.sc is not None:
            s.group = f"perfbench-{s.sid}"
            self.sc.setLocalProperty(JOB_GROUP, s.group)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if s.group is not None:
                self.sc.setLocalProperty(JOB_GROUP, self._group_of_stack())

    def op(self, name: str):
        """Top-level span of one benchmark operation (a new op id)."""
        return self.span(f"op.{name}")

    # -- patching ----------------------------------------------------------
    def _wrap(self, fn, name: str, spark: bool, measure) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, spark=spark) as s:
                out = fn(*args, **kwargs)
            if s is not None and measure is not None:
                for key, value in measure(args, kwargs, out).items():
                    setattr(s, key, value)
            return out

        return wrapper

    def install(self) -> None:
        """Patch every entry of :data:`PATCHES` and start recording."""
        for target, attr, name, spark, measure in PATCHES:
            owner = _resolve(target)
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, spark, measure))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- after the run -----------------------------------------------------
    def resolve_jobs(self) -> None:
        """Fill in each span's job count from the Spark status tracker.

        Job-start events reach the status store through Spark's
        asynchronous listener bus, so drain it first.
        """
        if self.sc is None:
            return
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        for s in self.spans:
            if s.group is not None:
                s.jobs = len(tracker.getJobIdsForGroup(s.group))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def inclusive_jobs(spans: list[Span]) -> dict[int, int]:
    """Jobs under each span, its descendants' included."""
    total = {s.sid: s.jobs for s in spans}
    for s in sorted(spans, key=lambda s: -s.sid):  # children have larger sids
        if s.parent is not None and s.parent in total:
            total[s.parent] += total[s.sid]
    return total
