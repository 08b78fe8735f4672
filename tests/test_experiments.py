"""End-to-end tests of the Figure 8/9/10 experiment harnesses at tiny
scale — these are the integration tests for the evaluation pipeline."""
import numpy as np
import pytest

from repro.experiments.fig8_indexing import (
    construction_vs_datasize,
    construction_vs_length,
    construction_vs_memory,
    space_overhead,
)
from repro.experiments.fig9_querying import query_vs_datasize, quality_and_radius
from repro.experiments.fig10_updates import complete_workload, updates_workload
from repro.experiments.harness import format_rows

TINY = dict(n_series=250, length=64, w=8, bits=4, leaf_capacity=50)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("exp"))


class TestFig8:
    def test_construction_vs_memory_rows(self, spark, workdir):
        rows = construction_vs_memory(
            spark, systems=["CTreeFull", "ADSFull"], mem_fracs=(2.0, 0.05),
            workdir=workdir, **TINY,
        )
        assert len(rows) == 4
        assert {r["system"] for r in rows} == {"CTreeFull", "ADSFull"}
        assert all(r["sim_s"] > 0 for r in rows)

    def test_low_memory_favours_coconut(self, spark, workdir):
        rows = construction_vs_memory(
            spark, systems=["CTreeFull", "ADSFull"], mem_fracs=(0.05,),
            workdir=workdir, **TINY,
        )
        by = {r["system"]: r["sim_s"] for r in rows}
        assert by["CTreeFull"] < by["ADSFull"]

    def test_space_overhead_fill_contrast(self, spark, workdir):
        rows = space_overhead(
            spark, systems=["CTreeFull", "ADSFull"], workdir=workdir, **TINY
        )
        by = {r["system"]: r for r in rows}
        assert by["CTreeFull"]["fill"] > 2 * by["ADSFull"]["fill"]
        assert by["CTreeFull"]["index_bytes"] < by["ADSFull"]["index_bytes"]

    def test_datasize_sweep_monotone(self, spark, workdir):
        rows = construction_vs_datasize(
            spark, systems=["CTree"], sizes=(100, 400), memory_series=50,
            length=64, leaf_capacity=50, workdir=workdir,
        )
        secs = [r["sim_s"] for r in rows]
        assert secs[1] > secs[0]

    def test_length_sweep_runs(self, spark, workdir):
        rows = construction_vs_length(
            spark, systems=["CTree", "ADS+"], lengths=(32, 64),
            total_points=64 * 200, leaf_capacity=50, workdir=workdir,
        )
        assert len(rows) == 4
        assert all(r["sim_s"] > 0 for r in rows)


class TestFig9:
    def test_query_sweep_shapes(self, spark, workdir):
        rows = query_vs_datasize(
            spark, systems=["CTree", "ADS+"], sizes=(250,), n_queries=3,
            length=64, leaf_capacity=50, workdir=workdir,
        )
        assert len(rows) == 4  # 2 systems x {approx, exact}
        for r in rows:
            assert r["avg_sim_s"] > 0
            assert np.isfinite(r["avg_distance"])

    def test_exact_distances_agree_across_systems(self, spark, workdir):
        """All exact searches answer the same NN distances."""
        rows = query_vs_datasize(
            spark, systems=["CTreeFull", "ADSFull"], sizes=(250,), n_queries=4,
            length=64, leaf_capacity=50, workdir=workdir,
        )
        exact = {r["system"]: r for r in rows if r["mode"] == "exact"}
        assert exact["CTreeFull"]["avg_distance"] == pytest.approx(
            exact["ADSFull"]["avg_distance"]
        )

    def test_quality_and_radius_rows(self, spark, workdir):
        rows = quality_and_radius(
            spark, n_series=250, n_queries=5, length=64, leaf_capacity=50,
            radii=(1, 5), workdir=workdir,
        )
        configs = {r["config"] for r in rows}
        assert configs == {"ADSFull", "CTreeFull(1)", "CTreeFull(5)"}
        approx = {r["config"]: r for r in rows if r["mode"] == "approx"}
        # Wider radius gives at-least-as-good average approximate ED.
        assert (
            approx["CTreeFull(5)"]["avg_distance"]
            <= approx["CTreeFull(1)"]["avg_distance"] + 1e-9
        )


class TestFig10:
    def test_updates_rows(self, spark, workdir):
        rows = updates_workload(
            spark, total_series=300, initial_frac=0.5, batch_sizes=(75, 150),
            length=64, leaf_capacity=50, workdir=workdir,
        )
        assert {(r["system"], r["batch"]) for r in rows} == {
            ("CTree", 75), ("CTree", 150), ("ADS+", 75), ("ADS+", 150),
        }
        assert all(r["sim_s"] > 0 and r["wall_s"] > 0 for r in rows)

    def test_larger_batches_help_ctree(self, spark, workdir):
        rows = updates_workload(
            spark, total_series=300, initial_frac=0.5, batch_sizes=(30, 150),
            length=64, leaf_capacity=50, workdir=workdir,
        )
        ctree = {r["batch"]: r["sim_s"] for r in rows if r["system"] == "CTree"}
        assert ctree[150] < ctree[30]

    def test_updates_leave_no_index_files(self, spark, tmp_path):
        """Every index a merge supersedes is deleted, and the last one too."""
        updates_workload(
            spark, total_series=200, initial_frac=0.5, batch_sizes=(50,),
            length=64, leaf_capacity=50, workdir=str(tmp_path),
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["seismic", "astro"])
    def test_complete_workload(self, spark, workdir, kind):
        rows = complete_workload(
            spark, kind=kind, systems=("CTree", "ADS+"), n_series=250,
            n_queries=3, length=64, leaf_capacity=50, mem_fracs=(0.05,),
            workdir=workdir,
        )
        by = {r["system"]: r for r in rows}
        assert by["CTree"]["total_sim_s"] < by["ADS+"]["total_sim_s"]
        assert by["CTree"]["index_bytes"] < by["ADS+"]["index_bytes"]


class TestFormatRows:
    def test_renders_table(self):
        out = format_rows(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], ["a", "b"], "T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 4

    def test_empty_rows(self):
        out = format_rows([], ["x"], "empty")
        assert "x" in out
