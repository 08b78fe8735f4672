"""Golden counters for the Coconut and ADS query paths.

Answers, visited-record counts, candidate counts and every ``DiskModel``
counter of Algorithms 4 and 5 are pinned bit for bit on the session
dataset and its 5 queries, for tree and trie indexes, secondary and
materialized.  Each index is built fresh, so the first exact query pays
the one-time summaries load (Algorithm 5 lines 3-4).  The ADS+ and
ADSFull exact searches (SIMS seeded by the approximate answer) are
pinned the same way, and so is what each Coconut build produced: its
size, the directory's per-leaf counts and key ranges in directory order,
and the build's ``DiskModel`` counters (leaf ids are not pinned).
Every baseline (ADS+, ADSFull, R-tree, R-tree+, DSTree, Vertical) is
pinned too: its build's leaf count, fill factor, index bytes and
``DiskModel`` counters, and the answer and counters of its approximate
and exact search of each query.  A change to how the query path reads
leaves, raw series or summaries, to how the SIMS scan charges its
blocks, or to how any index derives its block counts, must leave every
figure here unchanged; only a deliberate cost-model change may update
``golden_query_counters.json`` (regenerate with ``collect``,
``collect_ads``, ``collect_build`` and ``collect_baseline``).
"""
import json
import shutil
from pathlib import Path

import pytest

from repro.core.coconut_tree import build_coconut_tree
from repro.core.coconut_trie import build_coconut_trie
from repro.core.query import approximate_search, exact_search
from tests.conftest import BITS, CAPACITY, W

GOLDEN = Path(__file__).with_name("golden_query_counters.json")
BUILDERS = {"tree": build_coconut_tree, "trie": build_coconut_trie}
CASES = [f"{v}-{m}" for v in BUILDERS for m in ("secondary", "materialized")]
ADS_CASES = ["ads_plus", "ads_full"]


def collect(spark, walk_df, disk_cfg, queries, path: str, case: str) -> list[dict]:
    """Approximate then exact search of every query on a fresh index."""
    variant, mode = case.split("-")
    idx = BUILDERS[variant](
        spark, walk_df, path=path, w=W, bits=BITS, leaf_capacity=CAPACITY,
        materialized=mode == "materialized", disk_config=disk_cfg,
    )
    out = []
    try:
        for q in queries:
            a = approximate_search(idx, q)
            e = exact_search(idx, q)
            out.append({
                "approx": {"id": a.id, "distance": a.distance,
                           "visited_records": a.visited_records,
                           "disk": a.disk.snapshot()},
                "exact": {"id": e.id, "distance": e.distance,
                          "visited_records": e.visited_records,
                          "candidates": e.extra["candidates"],
                          "disk": e.disk.snapshot()},
            })
    finally:
        idx.close()
        shutil.rmtree(path, ignore_errors=True)
    return out


@pytest.mark.parametrize("case", CASES)
def test_query_counters_unchanged(case, spark, walk_df, disk_cfg, queries, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    got = collect(spark, walk_df, disk_cfg, queries, str(tmp_path / case), case)
    # JSON round-trips floats exactly, so == is a bit-for-bit comparison.
    assert json.loads(json.dumps(got)) == expected


def collect_ads(index, queries) -> list[dict]:
    """Exact search of every query on an ADS index."""
    out = []
    for q in queries:
        e = index.exact(q)
        out.append({"id": e.id, "distance": e.distance,
                    "visited_records": e.visited_records,
                    "disk": e.disk.snapshot()})
    return out


@pytest.mark.parametrize("case", ADS_CASES)
def test_ads_exact_counters_unchanged(case, request, queries):
    expected = json.loads(GOLDEN.read_text())[case]
    got = collect_ads(request.getfixturevalue(case), queries)
    assert json.loads(json.dumps(got)) == expected


BUILD_FIXTURES = {
    "tree-secondary": "ctree", "tree-materialized": "ctree_full",
    "trie-secondary": "ctrie", "trie-materialized": "ctrie_full",
    "merge": "merged_index",
}


def collect_build(index) -> dict:
    """What a build produced, leaving out the leaf ids; key ranges as hex."""
    d = index.directory
    return {"n_series": index.n_series, "n_leaves": index.n_leaves,
            "count": d["count"].tolist(),
            "min_zkey": [z.hex() for z in d["min_zkey"]],
            "max_zkey": [z.hex() for z in d["max_zkey"]],
            "disk": index.build_disk.snapshot()}


@pytest.mark.parametrize("case", BUILD_FIXTURES)
def test_build_results_unchanged(case, request):
    expected = json.loads(GOLDEN.read_text())["build"][case]
    got = collect_build(request.getfixturevalue(BUILD_FIXTURES[case]))
    assert json.loads(json.dumps(got)) == expected


BASELINES = ["ads_plus", "ads_full", "rtree", "rtree_plus", "dstree", "vertical"]


def _search(r) -> dict:
    return {"id": r.id, "distance": r.distance, "leaves_visited": r.leaves_visited,
            "visited_records": r.visited_records, "disk": r.disk.snapshot()}


def collect_baseline(index, queries) -> dict:
    """A baseline's build stats and counters, then its approximate and
    exact search of every query."""
    return {
        "build": {"n_leaves": index.n_leaves, "fill_factor": index.fill_factor,
                  "index_bytes": index.index_bytes,
                  "disk": index.build_disk.snapshot()},
        "queries": [{"approx": _search(index.approximate(q)),
                     "exact": _search(index.exact(q))} for q in queries],
    }


@pytest.mark.parametrize("case", BASELINES)
def test_baseline_counters_unchanged(case, request, queries):
    expected = json.loads(GOLDEN.read_text())["baselines"][case]
    got = collect_baseline(request.getfixturevalue(case), queries)
    assert json.loads(json.dumps(got)) == expected
