"""Edge inputs for both Coconut builders: duplicate z-keys across leaf
boundaries, a constant series and an all-NaN series; and collections of
fewer series than the sort has range partitions.

The collection is 300 random walks, ``3 * CAP + 1`` copies of one
constant, un-normalised series (one z-key, so the run spans at least
three tree leaves and cannot be split by the trie) and one all-NaN
series.  The NaN series gets the top symbol in every segment; it is
indexed but, at distance NaN, never returned as an answer.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.coconut_tree import build_coconut_tree
from repro.core.coconut_trie import build_coconut_trie
from repro.core.query import exact_search
from repro.core.zorder import first64, zkeys
from repro.synth_data import series_matrix
from tests.conftest import LENGTH, assert_leaves_tile_ranks, read_in_file_order
from tests.ground_truth import exact_nn_numpy, leaf_of

N_WALKS, CAP = 300, 20
N_CONST = 3 * CAP + 1
CONSTANT = np.full(LENGTH, 0.7)
BUILDERS = {"tree": build_coconut_tree, "trie": build_coconut_trie}


@pytest.fixture(scope="module")
def edge_mat() -> np.ndarray:
    walks = series_matrix(n_series=N_WALKS, length=LENGTH, kind="walk", seed=5)
    return np.vstack([walks, np.tile(CONSTANT, (N_CONST, 1)), np.full((1, LENGTH), np.nan)])


@pytest.fixture(scope="module", params=[
    (v, m) for v in BUILDERS for m in ("secondary", "materialized")
], ids="-".join)
def edge_case(request) -> tuple[str, str]:
    return request.param


@pytest.fixture(scope="module")
def edge_index(edge_case, spark, edge_mat, tmp_path_factory):
    variant, mode = edge_case
    df = spark.createDataFrame(
        pd.DataFrame({"id": np.arange(len(edge_mat)), "series": list(edge_mat)}),
        "id long, series array<double>",
    )
    idx = BUILDERS[variant](
        spark, df, path=str(tmp_path_factory.mktemp(f"edge_{variant}")),
        w=8, bits=4, leaf_capacity=CAP, materialized=mode == "materialized",
    )
    yield idx
    idx.close()


@pytest.fixture(scope="module")
def leaf_ranks(edge_index) -> pd.DataFrame:
    """Each record's rank (its position in the leaf file) and the leaf
    the directory puts it in."""
    pdf = read_in_file_order(f"{edge_index.path}/leaves", ["id"])
    pdf["leaf"] = leaf_of(edge_index.directory["leaf_id"].to_numpy(), pdf["rank"].to_numpy())
    return pdf


def test_counts_sum_to_n(edge_index, edge_mat):
    assert edge_index.n_series == len(edge_mat)
    assert edge_index.directory["count"].sum() == len(edge_mat)


def test_ranks_contiguous_within_leaf(edge_index, edge_mat):
    assert_leaves_tile_ranks(edge_index.directory, len(edge_mat))


def test_leaf_id_is_first_rank(edge_index, leaf_ranks):
    """Every leaf holds records, and its id is its first record's rank."""
    first = leaf_ranks.groupby("leaf")["rank"].min()
    assert (first.index == first.to_numpy()).all()
    assert list(edge_index.directory["leaf_id"]) == list(first.index)


def test_key_ranges_ordered(edge_index):
    d = edge_index.directory
    assert all(d["max_zkey"].iloc[:-1].to_numpy() <= d["min_zkey"].iloc[1:].to_numpy())


def test_duplicate_key_spans_leaves(edge_case, edge_index):
    """The constant series' one z-key spans at least three tree leaves;
    the trie cannot split it and keeps it in one oversized leaf."""
    z = zkeys(CONSTANT[None, :], edge_index.w, edge_index.bits)[0]
    d = edge_index.directory
    holding = d[(d["min_zkey"] <= z) & (z <= d["max_zkey"])]
    if edge_case[0] == "tree":
        assert len(holding) >= 3
    else:
        assert len(holding) == 1 and holding["count"].iloc[0] >= N_CONST


def test_exact_equals_brute_force(edge_index, edge_mat, queries):
    finite = np.isfinite(edge_mat).all(axis=1)
    ids = np.flatnonzero(finite)
    for q in [*queries, CONSTANT]:
        _, gd = exact_nn_numpy(ids, edge_mat[finite], q)
        r = exact_search(edge_index, q)
        assert r.distance == pytest.approx(gd)
        assert finite[r.id]


def test_constant_series_found_at_distance_zero(edge_index):
    r = exact_search(edge_index, CONSTANT)
    assert r.distance == 0.0
    assert N_WALKS <= r.id < N_WALKS + N_CONST


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("variant,mode", [
    (v, m) for v in BUILDERS for m in ("secondary", "materialized")
])
def test_fewer_series_than_range_partitions(spark, tmp_path, queries, variant, mode, n):
    """N below the leaf capacity, and below the sort's range partition
    count, so some partitions are empty or absent: the part files, in
    name order, still hold all N records in z-key order.  The tree holds
    them in one leaf at rank 0; the trie starts a leaf at rank 0 and
    wherever the first-level subtree (the first ``w`` key bits) changes."""
    mat = series_matrix(n_series=n, length=LENGTH, kind="walk", seed=7)
    df = spark.createDataFrame(
        pd.DataFrame({"id": np.arange(n), "series": list(mat)}),
        "id long, series array<double>",
    )
    idx = BUILDERS[variant](
        spark, df, path=str(tmp_path / "idx"), w=8, bits=4, leaf_capacity=CAP,
        materialized=mode == "materialized",
    )
    keys = list(read_in_file_order(f"{idx.path}/leaves", ["zkey"])["zkey"])
    assert keys == sorted(zkeys(mat, 8, 4))
    if variant == "tree":
        starts = [0]
    else:
        roots = first64(sorted(zkeys(mat, 8, 4))) >> np.uint64(64 - 8)
        starts = [0, *np.flatnonzero(np.diff(roots)) + 1]
    assert list(idx.directory["leaf_id"]) == starts
    assert idx.directory["count"].sum() == n
    for q in queries:
        _, gd = exact_nn_numpy(np.arange(n), mat, q)
        assert exact_search(idx, q).distance == pytest.approx(gd)
    idx.close()


@pytest.mark.parametrize("other", ["short", "null"])
@pytest.mark.parametrize("variant,mode", [
    (v, m) for v in BUILDERS for m in ("secondary", "materialized")
])
def test_series_of_another_length_fail_the_build(spark, tmp_path, variant, mode, other):
    """A collection whose series are not all as long as the first one,
    or that holds a null series, is a ``ValueError`` naming the first
    series' length, raised before an index is returned: 200 series of
    ``LENGTH`` followed, in later input partitions, by 200 of half that
    length or 100 valid and 100 null ones."""
    good = series_matrix(n_series=200, length=LENGTH, kind="walk", seed=9)
    if other == "short":
        rest = [np.zeros(LENGTH // 2)] * 200
    else:
        rest = [None, np.zeros(LENGTH)] * 100

    def frame(ids, series):
        return spark.createDataFrame(
            pd.DataFrame({"id": ids, "series": list(series)}), "id long, series array<double>"
        )

    df = frame(np.arange(200), good).unionByName(frame(200 + np.arange(200), rest))
    with pytest.raises(ValueError, match=f"length {LENGTH}"):
        BUILDERS[variant](
            spark, df, path=str(tmp_path / "idx"), w=8, bits=4, leaf_capacity=CAP,
            materialized=mode == "materialized",
        )


@pytest.mark.parametrize("variant", BUILDERS)
def test_null_first_series_fails_the_build(spark, tmp_path, variant):
    """The length every series is checked against is the first one's:
    a null first series is a ``ValueError`` saying so."""
    df = spark.createDataFrame(
        pd.DataFrame({"id": np.arange(4), "series": [None, *[np.zeros(LENGTH)] * 3]}),
        "id long, series array<double>",
    )
    with pytest.raises(ValueError, match="first series is null"):
        BUILDERS[variant](spark, df, path=str(tmp_path / "idx"), w=8, bits=4)


@pytest.mark.parametrize("variant,mode", [
    (v, m) for v in BUILDERS for m in ("secondary", "materialized")
])
def test_empty_first_series_fails_the_build(spark, tmp_path, variant, mode):
    """A first series of length 0, which every ``w`` divides, is a
    ``ValueError`` on the driver, not a worker failure."""
    df = spark.createDataFrame(
        pd.DataFrame({"id": np.arange(4), "series": [np.zeros(0), *[np.zeros(LENGTH)] * 3]}),
        "id long, series array<double>",
    )
    with pytest.raises(ValueError, match="empty"):
        BUILDERS[variant](
            spark, df, path=str(tmp_path / "idx"), w=8, bits=4,
            materialized=mode == "materialized",
        )


@pytest.mark.parametrize("variant,mode", [
    (v, m) for v in BUILDERS for m in ("secondary", "materialized")
])
def test_repeated_ids(spark, tmp_path, queries, variant, mode):
    """A secondary index finds a series by its id, so ids that occur
    twice, in different input partitions, are a ``ValueError`` before an
    index is returned.  A materialized index finds series by rank: it
    keeps both series of each repeated id and answers over all of them."""
    mat = series_matrix(n_series=120, length=LENGTH, kind="walk", seed=11)
    ids = np.arange(120) % 100  # 0..19 twice
    df = spark.createDataFrame(
        pd.DataFrame({"id": ids, "series": list(mat)}), "id long, series array<double>"
    )

    def build():
        return BUILDERS[variant](
            spark, df, path=str(tmp_path / "idx"), w=8, bits=4, leaf_capacity=CAP,
            materialized=mode == "materialized",
        )

    if mode == "secondary":
        with pytest.raises(ValueError, match="more than once"):
            build()
        return
    idx = build()
    assert idx.n_series == 120
    for q in queries:
        _, gd = exact_nn_numpy(ids, mat, q)
        assert exact_search(idx, q).distance == pytest.approx(gd)
    idx.close()
