import math

import numpy as np
import pytest

from heraldstats import (
    FigureOfMeritReport,
    LossChannel,
    SweepAxis,
    SweepRecord,
    find_optimum,
    fom_value,
    mean,
    mean_vs_car_curve,
    nbar_from_car,
    report,
    run_sweep,
    herald,
    threshold_region,
)

from conftest import config


def small_grid(clicks=1, mu_s=1.0, car_steps=40, mu_steps=20):
    axes = [
        SweepAxis("car", 3.0, 300.0, car_steps, "logarithmic"),
        SweepAxis("mu_h", 0.05, 1.0, mu_steps),
    ]
    return axes, run_sweep(axes, clicks=clicks, mu_s=mu_s)


class TestSweepAxis:
    def test_grid_endpoints(self):
        axis = SweepAxis("car", 3.0, 500.0, 101, "logarithmic")
        grid = axis.grid()
        assert grid[0] == 3.0 and grid[-1] == 500.0 and len(grid) == 101

    def test_single_step(self):
        assert SweepAxis("mu_h", 0.3, 0.3, 1).grid().tolist() == [0.3]

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("nbar", 0.1, 1.0, 5)
        with pytest.raises(ValueError):
            SweepAxis("car", 1.5, 10.0, 5)
        with pytest.raises(ValueError):
            SweepAxis("mu_h", 0.2, 1.2, 5)
        with pytest.raises(ValueError):
            SweepAxis("mu_s", 0.8, 0.2, 5)
        with pytest.raises(ValueError):
            SweepAxis("mu_h", 0.1, 1.0, 5, scale="cubic")
        with pytest.raises(ValueError, match="finite"):
            SweepAxis("car", 3.0, math.inf, 5)
        with pytest.raises(ValueError, match="finite"):
            SweepAxis("car", math.inf, math.inf, 1)
        with pytest.raises(ValueError, match="finite"):
            SweepAxis("car", 3.0, math.inf, 5, scale="logarithmic")


class TestRunSweep:
    def test_degenerate_sweep_reproduces_report(self):
        records = run_sweep([], clicks=1, car=15.0, mu_h=1.0, mu_s=1.0)
        assert len(records) == 1
        direct = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert records[0].report == direct
        assert records[0].status == "ok"

    def test_one_point_axis_reproduces_report(self):
        axis = SweepAxis("car", 15.0, 15.0, 1, "logarithmic")
        records = run_sweep([axis], clicks=1, mu_h=1.0, mu_s=1.0)
        direct = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert records[0].report == direct

    def test_row_major_order(self):
        axes = [
            SweepAxis("car", 3.0, 30.0, 3, "logarithmic"),
            SweepAxis("mu_h", 0.2, 0.8, 2),
        ]
        records = run_sweep(axes, clicks=1, mu_s=1.0)
        cars = [r.car for r in records]
        mus = [r.mu_h for r in records]
        grid_car = axes[0].grid()
        assert cars == pytest.approx(
            [grid_car[0], grid_car[0], grid_car[1], grid_car[1], grid_car[2], grid_car[2]]
        )
        assert mus == pytest.approx([0.2, 0.8] * 3)

    def test_deterministic(self):
        _, first = small_grid(car_steps=10, mu_steps=5)
        _, second = small_grid(car_steps=10, mu_steps=5)
        assert first == second  # bit-identical records

    def test_parameter_exactly_once(self):
        axis = SweepAxis("car", 3.0, 10.0, 3, "logarithmic")
        with pytest.raises(ValueError):
            run_sweep([axis], clicks=1, car=5.0, mu_h=1.0, mu_s=1.0)
        with pytest.raises(ValueError):
            run_sweep([axis], clicks=1, nbar=0.5, mu_h=1.0, mu_s=1.0)
        with pytest.raises(ValueError):
            run_sweep([axis], clicks=1, mu_s=1.0)
        with pytest.raises(ValueError):
            run_sweep([axis, axis], clicks=1, mu_h=1.0, mu_s=1.0)
        with pytest.raises(ValueError):
            run_sweep([], clicks=1, car=5.0, nbar=0.5, mu_h=1.0, mu_s=1.0)

    def test_impossible_points_marked_not_dropped(self):
        axes = [SweepAxis("mu_h", 0.0, 1.0, 3)]
        records = run_sweep(
            axes, clicks=1, car=10.0, mu_s=1.0, dark_count_prob=0.0
        )
        assert len(records) == 3
        assert not records[0].ok and "zero probability" in records[0].status
        assert records[1].ok and records[2].ok

    def test_bad_source_or_detector_aborts_sweep(self):
        axes = [SweepAxis("mu_h", 0.2, 0.8, 2)]
        with pytest.raises(ValueError, match="CAR"):
            run_sweep(axes, clicks=1, car=2.0, mu_s=1.0)
        with pytest.raises(ValueError, match="detector"):
            run_sweep(axes, clicks=1, car=10.0, mu_s=1.0, num_detectors=0)
        with pytest.raises(ValueError, match="dark count"):
            run_sweep(axes, clicks=1, car=10.0, mu_s=1.0, dark_count_prob=-1.0)
        with pytest.raises(ValueError, match="efficiency"):
            run_sweep([], clicks=1, car=10.0, mu_h=1.5, mu_s=1.0)

    def test_herald_and_report_errors_become_rows(self):
        axes = [SweepAxis("mu_h", 0.2, 0.8, 2)]
        too_many_clicks = run_sweep(axes, clicks=5, car=10.0, mu_s=1.0)
        bad_signal = run_sweep(axes, clicks=1, car=10.0, mu_s=1.5)
        for records in (too_many_clicks, bad_signal):
            assert len(records) == 2
            assert all(r.status.startswith("error: ") for r in records)
            assert [r.mu_h for r in records] == [0.2, 0.8]
            assert all(r.car == 10.0 and r.nbar == 0.125 for r in records)

    def test_nbar_fixed_point(self):
        records = run_sweep([], clicks=1, nbar=1.0, mu_h=1.0, mu_s=1.0)
        assert records[0].car == pytest.approx(3.0)
        records = run_sweep([], clicks=0, nbar=0.0, mu_h=1.0, mu_s=1.0, target=0)
        assert math.isnan(records[0].car)
        assert records[0].ok

    def test_target_defaults_to_clicks(self):
        records = run_sweep([], clicks=2, car=23.0, mu_h=1.0, mu_s=1.0)
        assert records[0].target == 2

    def test_large_array_points_are_ok(self):
        # 8 of 16 clicks: the click weights must stay inside [0, 1] at every mu_h
        axes = [SweepAxis("mu_h", 0.1, 1.0, 10)]
        records = run_sweep(axes, clicks=8, num_detectors=16, car=15.0, mu_s=0.7)
        assert [r.status for r in records] == ["ok"] * 10
        assert all(0.0 <= fom_value(r, "fidelity") <= 1.0 for r in records)


class TestThresholdRegion:
    def test_level_above_one_empty(self):
        _, records = small_grid(car_steps=10, mu_steps=5)
        mask = threshold_region(records, "fidelity", ">=", 1.01)
        assert len(mask) == 0 and mask.extents == {}

    def test_extents_cover_mask(self):
        _, records = small_grid(car_steps=20, mu_steps=10)
        mask = threshold_region(records, "fidelity", ">=", 0.9)
        assert len(mask) > 0
        lo, hi = mask.extents["car"]
        for i in mask.indices:
            assert lo <= records[i].car <= hi

    def test_g2_region_contains_high_fidelity_region(self):
        _, records = small_grid(car_steps=30, mu_steps=15)
        f_mask = set(threshold_region(records, "fidelity", ">=", 0.9).indices)
        g_mask = set(threshold_region(records, "g2", "<=", 0.5).indices)
        assert f_mask and f_mask <= g_mask
        f_hi = max(records[i].car for i in f_mask)
        g_hi = max(records[i].car for i in g_mask)
        assert g_hi > f_hi  # extends strictly past the high-car side

    def test_unknown_fom(self):
        _, records = small_grid(car_steps=4, mu_steps=2)
        with pytest.raises(ValueError):
            threshold_region(records, "sparkle", ">=", 0.5)


def fake_record(car, mu_h, mu_s, value):
    rep = FigureOfMeritReport(
        fidelity=value, g2=0.1, g3=0.1, success_probability=0.5,
        parity=0.0, mean_lossy=1.0, mean_loss_corrected=1.0,
    )
    return SweepRecord(car, 1 / (car - 2), mu_h, mu_s, 1, 1, rep)


class TestFindOptimum:
    def test_tie_break_lower_car_then_higher_efficiencies(self):
        records = [
            fake_record(20.0, 1.0, 1.0, 0.9),
            fake_record(10.0, 0.5, 1.0, 0.9),
            fake_record(10.0, 0.8, 0.3, 0.9),
            fake_record(10.0, 0.8, 0.7, 0.9),
        ]
        best = find_optimum(records, "fidelity", "max")
        assert (best.car, best.mu_h, best.mu_s) == (10.0, 0.8, 0.7)

    def test_direction_min(self):
        records = [fake_record(10.0, 1.0, 1.0, 0.3), fake_record(20.0, 1.0, 1.0, 0.1)]
        assert find_optimum(records, "fidelity", "min").car == 20.0

    def test_constraint_filters(self):
        _, records = small_grid(car_steps=30, mu_steps=15)
        constrained = find_optimum(
            records, "success_prob", "max", [("fidelity", ">=", 0.9)]
        )
        unconstrained = find_optimum(records, "success_prob", "max")
        assert fom_value(constrained, "fidelity") >= 0.9
        assert (
            constrained.report.success_probability
            <= unconstrained.report.success_probability
        )

    def test_empty_feasible_set(self):
        _, records = small_grid(car_steps=4, mu_steps=2)
        with pytest.raises(ValueError):
            find_optimum(records, "fidelity", "max", [("fidelity", ">=", 1.01)])
        with pytest.raises(ValueError, match="comparator"):
            find_optimum(records, "fidelity", "max", [("fidelity", "==", 0.5)])

    @pytest.mark.parametrize(
        "clicks,comparator,level,low,high",
        [(1, "<=", -0.95, 12.0, 18.0), (2, ">=", 0.91, 19.0, 27.0), (3, "<=", -0.89, 36.0, 50.0)],
    )
    def test_best_parity_with_max_success_lands_near_known_optima(
        self, clicks, comparator, level, low, high
    ):
        axes = [SweepAxis("car", 3.0, 500.0, 200, "logarithmic")]
        records = run_sweep(axes, clicks=clicks, mu_h=1.0, mu_s=1.0)
        best = find_optimum(
            records, "success_prob", "max", [("parity", comparator, level)]
        )
        assert low <= best.car <= high


class TestMonotoneAndStability:
    @pytest.mark.parametrize("car", [10.0, 30.0])
    def test_fidelity_non_decreasing_in_mu_h(self, car):
        axes = [SweepAxis("mu_h", 0.05, 1.0, 25)]
        records = run_sweep(axes, clicks=1, car=car, mu_s=1.0)
        values = [fom_value(r, "fidelity") for r in records]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_grid_refinement_moves_optimum_less_than_one_coarse_cell(self):
        coarse_axis = SweepAxis("car", 3.0, 300.0, 60, "logarithmic")
        fine_axis = SweepAxis("car", 3.0, 300.0, 120, "logarithmic")
        coarse = run_sweep([coarse_axis], clicks=1, mu_h=1.0, mu_s=1.0)
        fine = run_sweep([fine_axis], clicks=1, mu_h=1.0, mu_s=1.0)
        cell = coarse_axis.grid()[1] / coarse_axis.grid()[0]
        for fom, direction in [("fidelity", "max"), ("parity", "min")]:
            car_coarse = find_optimum(coarse, fom, direction).car
            car_fine = find_optimum(fine, fom, direction).car
            assert abs(math.log(car_fine / car_coarse)) < math.log(cell)


class TestMeanVsCarCurve:
    def test_single_photon_plateau(self):
        rows = mean_vs_car_curve(
            clicks=1,
            mu_h_values=[0.4, 0.6, 1.0],
            car_axis=SweepAxis("car", 10.0, 100.0, 25, "logarithmic"),
        )
        assert len(rows) == 75
        for _, _, value in rows:
            assert value == pytest.approx(1.0, abs=0.15)

    def test_matches_direct_herald_mean(self):
        rows = mean_vs_car_curve(
            clicks=2,
            mu_h_values=[0.5],
            car_axis=SweepAxis("car", 23.0, 23.0, 1, "logarithmic"),
        )
        car, mu_h, value = rows[0]
        direct = mean(herald(config(23.0, 2, 0.5)).statistics)
        assert value == direct

    def test_needs_car_axis(self):
        with pytest.raises(ValueError):
            mean_vs_car_curve(
                clicks=1,
                mu_h_values=[0.5],
                car_axis=SweepAxis("mu_h", 0.1, 0.9, 5),
            )
