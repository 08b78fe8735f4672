"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/ -q -p no:cacheprovider

All but the last test run without Spark; the last starts the benchmark
twice (about two minutes).
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import report  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, inclusive_jobs, self_times  # noqa: E402


# -- tail percentile --------------------------------------------------------
@pytest.mark.parametrize("n,p", [(20, 50), (23, 56), (100, 90), (1000, 99)])
def test_tail_keeps_ten_samples_beyond(n, p):
    samples = [float(i) for i in range(n, 0, -1)]
    pct, beyond, value = report.tail(samples)
    assert pct == p
    assert beyond >= 10
    assert sum(s > value for s in samples) == beyond
    # The next whole percentile up would leave fewer than ten beyond it.
    assert n - -(-(p + 1) * n // 100) < 10


def test_no_tail_below_twenty_samples():
    assert report.tail([1.0] * 19) is None


# -- self time --------------------------------------------------------------
def _span(sid, parent, start, end, jobs=0):
    return Span(sid=sid, name=f"s{sid}", op=1, round=0, parent=parent,
                start=start, end=end, jobs=jobs)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0.0, 10.0, jobs=1),
        _span(1, 0, 1.0, 4.0, jobs=2),
        _span(2, 1, 2.0, 3.0, jobs=3),   # grandchild: only its parent pays
        _span(3, 0, 5.0, 7.0),
        _span(4, 0, 6.0, 8.0),           # overlaps span 3: covered once
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 10 - 3 - 3, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0})
    assert inclusive_jobs(spans) == {0: 6, 1: 5, 2: 3, 3: 0, 4: 0}


def test_tracer_nests_spans_and_restores_patches():
    import repro.core.query as q

    orig = q.euclidean
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op("approx"):
            q.euclidean(np.zeros((3, 4)), np.ones(4))
            q.euclidean(np.zeros(4), np.ones(4))
    finally:
        tracer.uninstall()
    assert q.euclidean is orig
    root, a, b = tracer.spans
    assert root.parent is None and a.parent == b.parent == root.sid
    assert root.op == a.op == b.op
    assert (a.name, a.rows, b.rows) == ("distance.euclidean", 3, 1)
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.end - root.start)
    q.euclidean(np.zeros(4), np.ones(4))       # untraced: nothing recorded
    assert len(tracer.spans) == 3


# -- correctness gate -------------------------------------------------------
def test_wrong_exact_answer_raises_fail_ratio(tmp_path, monkeypatch):
    mat = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    q = np.array([0.0, 1.0])
    disk = SimpleNamespace(snapshot=lambda: {})
    right = SimpleNamespace(id=0, distance=1.0, visited_records=1, disk=disk,
                            extra={"candidates": 1})
    # A real member at its true distance, but not the nearest one.
    wrong = SimpleNamespace(id=1, distance=float(np.hypot(3.0, 3.0)), visited_records=1,
                            disk=disk, extra={"candidates": 1})
    monkeypatch.setattr(workloads.query, "approximate_search", lambda *a, **k: right)
    wl = workloads.Workload(None, 0, tmp_path / "w", Tracer())

    monkeypatch.setattr(workloads.query, "exact_search", lambda *a, **k: right)
    wl.run_queries(0, None, q, mat, np.arange(3), true_d=1.0)
    assert (wl.tally.attempted, wl.tally.failed) == (2, 0)

    monkeypatch.setattr(workloads.query, "exact_search", lambda *a, **k: wrong)
    wl.run_queries(1, None, q, mat, np.arange(3), true_d=1.0)
    assert (wl.tally.attempted, wl.tally.failed) == (4, 1)
    assert wl.tally.fail_ratio == 0.25
    assert wl.tally.reasons == ["exact r1"]


def test_raising_operation_counts_as_failure(tmp_path):
    wl = workloads.Workload(None, 0, tmp_path / "w", Tracer())

    def boom():
        raise RuntimeError("injected")

    assert wl.attempt("merge", boom) == (None, 0.0)
    assert (wl.tally.attempted, wl.tally.failed) == (1, 1)


# -- inputs -----------------------------------------------------------------
def test_same_seed_same_inputs():
    kind = "walk"
    a = workloads.data_matrix(7, 50, kind), workloads.query_set(7, kind)
    b = workloads.data_matrix(7, 50, kind), workloads.query_set(7, kind)
    c = workloads.data_matrix(8, 50, kind), workloads.query_set(8, kind)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[1], c[1])
    # Queries come from a disjoint seed: none is a member of the data.
    assert workloads.distances(a[0], a[1][0]).min() > 0


def test_benchmark_json_matches_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- exact-repeat counters --------------------------------------------------
def _traced_counts(seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "query_mix",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in report.COUNT_METRICS}


def test_same_seed_same_counts():
    first, second = _traced_counts(3), _traced_counts(3)
    assert first == second
    assert first["query.jobs_per_exact"] > 0
