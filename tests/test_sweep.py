import math

import numpy as np
import pytest

from heraldstats import (
    COLUMNS,
    FOM_NAMES,
    LossChannel,
    SweepAxis,
    find_optimum,
    mean,
    nbar_from_car,
    report,
    run_sweep,
    herald,
    threshold_region,
)

from conftest import config

#: FigureOfMeritReport attribute of each figure-of-merit column, in export order.
REPORT_FIELDS = ("fidelity", "g2", "g3", "success_probability", "parity", "mean_lossy",
                 "mean_loss_corrected")


def row_foms(table, i):
    return tuple(table[name][i] for name in FOM_NAMES)


def report_foms(rep):
    return tuple(getattr(rep, field) for field in REPORT_FIELDS)


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
        table = run_sweep([], clicks=1, car=15.0, mu_h=1.0, mu_s=1.0)
        assert list(table) == COLUMNS
        assert all(len(column) == 1 for column in table.values())
        direct = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert row_foms(table, 0) == report_foms(direct)
        assert table["status"][0] == "ok"
        for name, column in table.items():
            expected = {"k": np.int64, "target": np.int64, "status": object}.get(name, np.float64)
            assert column.dtype == expected, name

    def test_one_point_axis_reproduces_report(self):
        axis = SweepAxis("car", 15.0, 15.0, 1, "logarithmic")
        table = run_sweep([axis], clicks=1, mu_h=1.0, mu_s=1.0)
        direct = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert row_foms(table, 0) == report_foms(direct)

    def test_row_major_order(self):
        axes = [
            SweepAxis("car", 3.0, 30.0, 3, "logarithmic"),
            SweepAxis("mu_h", 0.2, 0.8, 2),
        ]
        table = run_sweep(axes, clicks=1, mu_s=1.0)
        cars = table["car"].tolist()
        mus = table["mu_h"].tolist()
        grid_car = axes[0].grid()
        assert cars == pytest.approx(
            [grid_car[0], grid_car[0], grid_car[1], grid_car[1], grid_car[2], grid_car[2]]
        )
        assert mus == pytest.approx([0.2, 0.8] * 3)

    def test_deterministic(self):
        _, first = small_grid(car_steps=10, mu_steps=5)
        _, second = small_grid(car_steps=10, mu_steps=5)
        assert list(first) == list(second)
        for name in COLUMNS:  # bit-identical columns
            np.testing.assert_array_equal(first[name], second[name])

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
        table = run_sweep(
            axes, clicks=1, car=10.0, mu_s=1.0, dark_count_prob=0.0
        )
        status = table["status"]
        assert len(status) == 3
        assert status[0].startswith("error: ") and "zero probability" in status[0]
        assert np.isnan(row_foms(table, 0)).all()
        assert status[1] == "ok" and status[2] == "ok"

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
        for table in (too_many_clicks, bad_signal):
            assert len(table["status"]) == 2
            assert all(status.startswith("error: ") for status in table["status"])
            assert table["mu_h"].tolist() == [0.2, 0.8]
            assert table["car"].tolist() == [10.0, 10.0]
            assert table["nbar"].tolist() == [0.125, 0.125]

    def test_fault_is_not_an_error_row(self, monkeypatch):
        # only the library's ValueErrors become rows; a fault in the code surfaces
        def fault(*args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("heraldstats.sweep.report", fault)
        with pytest.raises(ZeroDivisionError):
            run_sweep([SweepAxis("mu_h", 0.2, 0.8, 2)], clicks=1, car=10.0, mu_s=1.0)

    def test_nbar_fixed_point(self):
        table = run_sweep([], clicks=1, nbar=1.0, mu_h=1.0, mu_s=1.0)
        assert table["car"][0] == pytest.approx(3.0)
        table = run_sweep([], clicks=0, nbar=0.0, mu_h=1.0, mu_s=1.0, target=0)
        assert math.isnan(table["car"][0])
        assert table["status"][0] == "ok"

    def test_target_defaults_to_clicks(self):
        table = run_sweep([], clicks=2, car=23.0, mu_h=1.0, mu_s=1.0)
        assert table["target"][0] == 2

    def test_mean_corrected_matches_direct_herald_mean(self):
        # the loss-corrected mean is the lossless heralded mean, bit for bit
        table = run_sweep([], clicks=2, car=23.0, mu_h=0.5, mu_s=1.0)
        assert table["mean_corrected"][0] == mean(herald(config(23.0, 2, 0.5)).statistics)

    def test_single_photon_mean_plateau(self):
        # the loss-corrected heralded mean stays near one photon for CAR 10-100
        axis = SweepAxis("car", 10.0, 100.0, 25, "logarithmic")
        for mu_h in (0.4, 0.6, 1.0):
            table = run_sweep([axis], clicks=1, mu_h=mu_h, mu_s=1.0)
            assert table["status"].tolist() == ["ok"] * 25
            np.testing.assert_allclose(table["mean_corrected"], 1.0, atol=0.15)

    def test_large_array_points_are_ok(self):
        # 8 of 16 clicks: the click weights must stay inside [0, 1] at every mu_h
        axes = [SweepAxis("mu_h", 0.1, 1.0, 10)]
        table = run_sweep(axes, clicks=8, num_detectors=16, car=15.0, mu_s=0.7)
        assert table["status"].tolist() == ["ok"] * 10
        assert ((0.0 <= table["fidelity"]) & (table["fidelity"] <= 1.0)).all()


def fake_table(points, fom="g2"):
    """A hand-built sweep table: one (car, mu_h, mu_s, value[, status]) row per point.

    ``value`` goes in the ``fom`` column; every other figure of merit is 0.5.
    """
    car, mu_h, mu_s, value, status = zip(*((*point, "ok")[:5] for point in points))
    table = {name: np.full(len(car), 0.5) for name in FOM_NAMES}
    table.update(
        car=np.array(car), nbar=1 / (np.array(car) - 2), mu_h=np.array(mu_h),
        mu_s=np.array(mu_s), k=np.ones(len(car), dtype=np.int64),
        target=np.ones(len(car), dtype=np.int64), status=np.array(status, dtype=object),
    )
    table[fom] = np.array(value)
    return table


class TestThresholdRegion:
    def test_level_above_one_empty(self):
        _, table = small_grid(car_steps=10, mu_steps=5)
        mask = threshold_region(table, "fidelity", ">=", 1.01)
        assert mask.dtype == bool and mask.shape == table["car"].shape
        assert not mask.any()

    def test_extents_cover_mask(self):
        _, table = small_grid(car_steps=20, mu_steps=10)
        mask = threshold_region(table, "fidelity", ">=", 0.9)
        assert mask.any()
        lo, hi = table["car"][mask].min(), table["car"][mask].max()
        for i in np.flatnonzero(mask):
            assert lo <= table["car"][i] <= hi
            assert table["fidelity"][i] >= 0.9

    def test_g2_region_contains_high_fidelity_region(self):
        _, table = small_grid(car_steps=30, mu_steps=15)
        f_mask = threshold_region(table, "fidelity", ">=", 0.9)
        g_mask = threshold_region(table, "g2", "<=", 0.5)
        assert f_mask.any() and not (f_mask & ~g_mask).any()
        f_hi = table["car"][f_mask].max()
        g_hi = table["car"][g_mask].max()
        assert g_hi > f_hi  # extends strictly past the high-car side

    def test_unknown_fom(self):
        _, table = small_grid(car_steps=4, mu_steps=2)
        with pytest.raises(ValueError):
            threshold_region(table, "sparkle", ">=", 0.5)


class TestFindOptimum:
    def test_tie_break_lower_car_then_higher_efficiencies(self):
        table = fake_table([
            (20.0, 1.0, 1.0, 0.9),
            (10.0, 0.5, 1.0, 0.9),
            (10.0, 0.8, 0.3, 0.9),
            (10.0, 0.8, 0.7, 0.9),
        ], fom="fidelity")
        best = find_optimum(table, "fidelity", "max")
        assert best == 3
        assert (table["car"][best], table["mu_h"][best], table["mu_s"][best]) == (10.0, 0.8, 0.7)

    def test_direction_min(self):
        table = fake_table([(10.0, 1.0, 1.0, 0.3), (20.0, 1.0, 1.0, 0.1)], fom="fidelity")
        assert table["car"][find_optimum(table, "fidelity", "min")] == 20.0

    def test_nan_objective_never_chosen_nor_masked(self):
        # the vacuum herald has g2 = NaN, yet its row is ok
        table = fake_table([(3.0, 1.0, 1.0, math.nan), (10.0, 1.0, 1.0, 0.5),
                            (20.0, 1.0, 1.0, 0.2), (30.0, 1.0, 1.0, 0.0, "error: boom")])
        for comparator, level in ((">=", 0.0), ("<=", 1.0)):
            mask = threshold_region(table, "g2", comparator, level)
            assert mask.tolist() == [False, True, True, False]
        assert find_optimum(table, "g2", "min") == 2
        assert find_optimum(table, "g2", "max") == 1
        assert find_optimum(table, "fidelity", "max", [("g2", "<=", 1.0)]) == 1
        only_nan = fake_table([(3.0, 1.0, 1.0, math.nan)])
        with pytest.raises(ValueError, match="no feasible"):
            find_optimum(only_nan, "g2", "min")

    def test_constraint_filters(self):
        _, table = small_grid(car_steps=30, mu_steps=15)
        constrained = find_optimum(
            table, "success_prob", "max", [("fidelity", ">=", 0.9)]
        )
        unconstrained = find_optimum(table, "success_prob", "max")
        assert table["fidelity"][constrained] >= 0.9
        assert (
            table["success_prob"][constrained]
            <= table["success_prob"][unconstrained]
        )

    def test_empty_feasible_set(self):
        _, table = small_grid(car_steps=4, mu_steps=2)
        with pytest.raises(ValueError):
            find_optimum(table, "fidelity", "max", [("fidelity", ">=", 1.01)])
        with pytest.raises(ValueError, match="comparator"):
            find_optimum(table, "fidelity", "max", [("fidelity", "==", 0.5)])

    @pytest.mark.parametrize(
        "clicks,comparator,level,low,high",
        [(1, "<=", -0.95, 12.0, 18.0), (2, ">=", 0.91, 19.0, 27.0), (3, "<=", -0.89, 36.0, 50.0)],
    )
    def test_best_parity_with_max_success_lands_near_known_optima(
        self, clicks, comparator, level, low, high
    ):
        axes = [SweepAxis("car", 3.0, 500.0, 200, "logarithmic")]
        table = run_sweep(axes, clicks=clicks, mu_h=1.0, mu_s=1.0)
        best = find_optimum(
            table, "success_prob", "max", [("parity", comparator, level)]
        )
        assert low <= table["car"][best] <= high


class TestMonotoneAndStability:
    @pytest.mark.parametrize("car", [10.0, 30.0])
    def test_fidelity_non_decreasing_in_mu_h(self, car):
        axes = [SweepAxis("mu_h", 0.05, 1.0, 25)]
        table = run_sweep(axes, clicks=1, car=car, mu_s=1.0)
        values = table["fidelity"].tolist()
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_grid_refinement_moves_optimum_less_than_one_coarse_cell(self):
        coarse_axis = SweepAxis("car", 3.0, 300.0, 60, "logarithmic")
        fine_axis = SweepAxis("car", 3.0, 300.0, 120, "logarithmic")
        coarse = run_sweep([coarse_axis], clicks=1, mu_h=1.0, mu_s=1.0)
        fine = run_sweep([fine_axis], clicks=1, mu_h=1.0, mu_s=1.0)
        cell = coarse_axis.grid()[1] / coarse_axis.grid()[0]
        for fom, direction in [("fidelity", "max"), ("parity", "min")]:
            car_coarse = coarse["car"][find_optimum(coarse, fom, direction)]
            car_fine = fine["car"][find_optimum(fine, fom, direction)]
            assert abs(math.log(car_fine / car_coarse)) < math.log(cell)
