"""Experiment harnesses reproduce the paper's qualitative results.

Small iteration counts keep the tests fast; the full-scale runs live in
benchmarks/.
"""

import pytest

from repro.aft.models import IsolationModel
from repro.experiments.figure2 import overheads_from_table1, run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.table1 import PAPER_TABLE1, run_table1


@pytest.fixture(scope="module")
def table1():
    return run_table1(runs=12, loop_iterations=32)


@pytest.fixture(scope="module")
def figure3():
    return run_figure3(runs=8)


class TestTable1:
    def test_all_models_measured(self, table1):
        assert set(table1.costs) == set(PAPER_TABLE1)

    def test_memory_access_ordering(self, table1):
        """Paper Table 1: NoIso < MPU < SoftwareOnly < FeatureLimited
        per memory access."""
        costs = table1.costs
        assert costs[IsolationModel.NO_ISOLATION].memory_access < \
            costs[IsolationModel.MPU].memory_access < \
            costs[IsolationModel.SOFTWARE_ONLY].memory_access < \
            costs[IsolationModel.FEATURE_LIMITED].memory_access

    def test_context_switch_ordering(self, table1):
        """Paper Table 1: NoIso == FeatureLimited < SoftwareOnly <
        MPU per context switch."""
        costs = table1.costs
        noiso = costs[IsolationModel.NO_ISOLATION].context_switch
        fl = costs[IsolationModel.FEATURE_LIMITED].context_switch
        assert abs(noiso - fl) < 1.0
        assert fl < costs[IsolationModel.SOFTWARE_ONLY].context_switch
        assert costs[IsolationModel.SOFTWARE_ONLY].context_switch < \
            costs[IsolationModel.MPU].context_switch

    def test_shape_holds(self, table1):
        assert table1.shape_holds()

    def test_magnitudes_in_paper_ballpark(self, table1):
        """Not exact values (different substrate), but the same order
        of magnitude: tens of cycles per op, ~100+ per switch."""
        for model, costs in table1.costs.items():
            paper_access, paper_switch = PAPER_TABLE1[model]
            assert costs.memory_access < 4 * paper_access
            assert paper_switch / 2 < costs.context_switch \
                < 2 * paper_switch

    def test_overheads_positive_for_isolating_models(self, table1):
        overheads = table1.overheads()
        for model, costs in overheads.items():
            if model is not IsolationModel.FEATURE_LIMITED:
                assert costs.context_switch >= 0
            assert costs.memory_access > 0

    def test_render_mentions_all_models(self, table1):
        text = table1.render()
        for model in table1.costs:
            assert model.display in text


class TestFigure3:
    def test_all_cases_present(self, figure3):
        assert set(figure3.cycles) == {"Activity Case 1",
                                       "Activity Case 2", "Quicksort"}

    def test_mpu_lowest_everywhere(self, figure3):
        for case in figure3.cycles:
            mpu = figure3.slowdown_percent(case, IsolationModel.MPU)
            for other in (IsolationModel.SOFTWARE_ONLY,
                          IsolationModel.FEATURE_LIMITED):
                assert mpu < figure3.slowdown_percent(case, other)

    def test_quicksort_full_ordering(self, figure3):
        mpu = figure3.slowdown_percent("Quicksort", IsolationModel.MPU)
        sw = figure3.slowdown_percent("Quicksort",
                                      IsolationModel.SOFTWARE_ONLY)
        fl = figure3.slowdown_percent("Quicksort",
                                      IsolationModel.FEATURE_LIMITED)
        assert mpu < sw < fl
        assert 25 < fl < 75      # paper: approaching ~50 %

    def test_slowdowns_positive(self, figure3):
        for case in figure3.cycles:
            for model in (IsolationModel.FEATURE_LIMITED,
                          IsolationModel.MPU,
                          IsolationModel.SOFTWARE_ONLY):
                assert figure3.slowdown_percent(case, model) > 0

    def test_shape_holds(self, figure3):
        assert figure3.shape_holds()

    def test_render(self, figure3):
        text = figure3.render()
        assert "Quicksort" in text and "%" in text

    def test_render_chart(self, figure3):
        chart = figure3.render_chart()
        assert "#" in chart
        assert "Quicksort" in chart


class TestFigure2:
    @pytest.fixture(scope="class")
    def figure2(self, table1):
        return run_figure2(apps=("clock", "pedometer",
                                 "falldetection", "hr"),
                           table1=table1, arp_samples=8)

    def test_battery_impact_under_half_percent(self, figure2):
        """The paper's headline claim."""
        assert figure2.max_battery_impact() < 0.5

    def test_accel_apps_dominate(self, figure2):
        mpu = IsolationModel.MPU
        fall = figure2.overheads["falldetection"][mpu].cycles_per_week
        clock = figure2.overheads["clock"][mpu].cycles_per_week
        assert fall > 5 * clock

    def test_cycles_in_paper_range(self, figure2):
        """Figure 2's y axis tops out around 3 billion cycles/week."""
        for app, by_model in figure2.overheads.items():
            for overhead in by_model.values():
                assert 0 <= overhead.billions_of_cycles < 5

    def test_overheads_from_table1_strips_baseline(self, table1):
        per_op = overheads_from_table1(table1)
        assert IsolationModel.NO_ISOLATION not in per_op
        assert per_op[IsolationModel.MPU].per_context_switch > \
            per_op[IsolationModel.SOFTWARE_ONLY].per_context_switch

    def test_render(self, figure2):
        text = figure2.render()
        assert "Pedometer" in text and "B/" in text

    def test_render_chart(self, figure2):
        chart = figure2.render_chart()
        assert "#" in chart
        assert "billions of cycles" in chart


class TestParallelRunner:
    def test_jobs_two_renders_like_jobs_one(self):
        from repro.experiments.parallel import run_all_parallel
        counts = dict(table1_runs=3, figure3_runs=3, arp_samples=4)
        assert run_all_parallel(2, **counts).render() == \
            run_all_parallel(1, **counts).render()
