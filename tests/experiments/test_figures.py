"""Unit tests for the figure experiment functions (tiny grids).

These verify the *plumbing* of each experiment — correct rows/columns,
normalization identities, aggregate rows — on minimal workload grids.
The paper-shape assertions live in benchmarks/ and tests/integration/.
"""

import pytest

from repro.core.experiment import clear_cache
from repro.experiments import run_experiment

H = 6_000_000
CPUS = ["swaptions", "raytrace"]
GPUS = ["xsbench", "ubench"]


@pytest.fixture(scope="module", autouse=True)
def _fresh():
    clear_cache()
    yield
    clear_cache()


class TestFig3a:
    def test_grid_shape(self):
        result = run_experiment("fig3a", cpu_names=CPUS, gpu_names=GPUS, horizon_ns=H)
        assert result.columns == ["cpu_app", "xsbench", "ubench"]
        labels = [row[0] for row in result.rows]
        assert labels == CPUS + ["gmean"]

    def test_values_in_unit_range(self):
        result = run_experiment("fig3a", cpu_names=CPUS, gpu_names=GPUS, horizon_ns=H)
        for row in result.rows:
            for value in row[1:]:
                assert 0.1 < value <= 1.1

    def test_gmean_between_min_and_max(self):
        result = run_experiment("fig3a", cpu_names=CPUS, gpu_names=GPUS, horizon_ns=H)
        column = result.column("ubench")
        body, gmean = column[:-1], column[-1]
        assert min(body) <= gmean <= max(body)


class TestFig3b:
    def test_idle_baseline_normalization(self):
        result = run_experiment("fig3b", cpu_names=CPUS, gpu_names=GPUS, horizon_ns=H)
        for row in result.rows:
            for value in row[1:]:
                assert 0.3 < value < 1.5


class TestNoProgressBaseline:
    """With idle CPUs bfs makes no progress within 1 ms, so the ratios
    normalized to that run have no denominator."""

    def test_fig3b_names_the_app_and_horizon(self):
        with pytest.raises(ValueError, match=r"'bfs'.* 1 ms horizon"):
            run_experiment("fig3b", cpu_names=["x264"], gpu_names=["bfs"], horizon_ns=1_000_000)

    def test_gpu_mitigation_ratio(self):
        from repro.config import SystemConfig
        from repro.core import gpu_mitigation_ratio

        config = SystemConfig()
        with pytest.raises(ValueError, match=r"'bfs'.* 1 ms horizon"):
            gpu_mitigation_ratio(None, "bfs", config, config, horizon_ns=1_000_000)


class TestFig4:
    def test_rows_and_loss_arithmetic(self):
        result = run_experiment("fig4", gpu_names=["xsbench"], horizon_ns=H)
        row = result.rows[0]
        assert row[0] == "xsbench"
        assert row[3] == pytest.approx(row[1] - row[2])

    def test_percentages(self):
        result = run_experiment("fig4", gpu_names=["bfs", "ubench"], horizon_ns=H)
        for row in result.rows:
            assert 0.0 <= row[2] <= row[1] <= 100.0


class TestFig5:
    def test_columns_present(self):
        result = run_experiment("fig5", cpu_names=["x264"], horizon_ns=H)
        assert result.cell("x264", "l1d_miss_increase_pct") >= 0
        assert result.cell("x264", "pollution_stall_ms") >= 0


class TestFig9:
    def test_custom_combo_subset(self):
        result = run_experiment(
            "fig9", combos=["Default", "Intr_to_single_core"], horizon_ns=H
        )
        labels = [row[0] for row in result.rows]
        assert labels == ["ubench_no_SSR", "Default", "Intr_to_single_core"]


class TestFig7:
    def test_pareto_labels_marked(self):
        result = run_experiment(
            "fig7",
            cpu_names=["swaptions"],
            combos=["Default", "Intr_to_single_core"],
            horizon_ns=H,
        )
        flags = {row[0]: row[3] for row in result.rows}
        assert set(flags.values()) <= {"yes", "no"}
        assert "yes" in flags.values()


class TestFig12:
    def test_threshold_columns(self):
        result = run_experiment("fig12a", cpu_names=["swaptions"], horizon_ns=H)
        assert result.columns == ["cpu_app", "default", "th_25", "th_5", "th_1"]

    def test_gpu_panel_normalized_to_idle(self):
        result = run_experiment("fig12b", cpu_names=["swaptions"], horizon_ns=H)
        assert result.cell("swaptions", "default") <= 1.1


class TestIpiExperiment:
    def test_has_four_run_rows_plus_summary(self):
        result = run_experiment("ipi", cpu_name="swaptions", horizon_ns=H)
        assert len(result.rows) == 5
        assert result.rows[-1][0] == "ipi_increase_x"
