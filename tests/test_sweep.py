import itertools
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
from heraldstats import sweep
from heraldstats.sweep import SWEEP_PARAMETERS

from conftest import config


def row_foms(table, i):
    return tuple(table[name][i] for name in FOM_NAMES)


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
        for parameter in ("mu_h", "mu_s"):  # one step skips the min < max check
            with pytest.raises(ValueError, match=r"^efficiency axes must lie within \[0, 1\]$"):
                SweepAxis(parameter, 1.5, 1.0, 1)
        for args in [("mu_h", 0.5, -3.0, 1), ("car", 5.0, 3.0, 1),
                     ("car", 3.0, -1.0, 1, "logarithmic"), ("car", 3.0, 9.0, 1)]:
            with pytest.raises(ValueError, match="^one-step axis needs min == max$"):
                SweepAxis(*args)
        with pytest.raises(ValueError):
            SweepAxis("mu_h", 0.1, 1.0, 5, scale="cubic")
        with pytest.raises(ValueError, match="finite"):
            SweepAxis("car", 3.0, math.inf, 5)
        with pytest.raises(ValueError, match="finite"):
            SweepAxis("car", math.inf, math.inf, 1)
        with pytest.raises(ValueError, match="finite"):
            SweepAxis("car", 3.0, math.inf, 5, scale="logarithmic")

    def test_steps_must_be_an_integer(self):
        for steps in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=f"^axis steps must be an integer, got {steps!r}$"):
                SweepAxis("car", 3.0, 10.0, steps)
        assert SweepAxis("car", 3.0, 10.0, np.int64(3)).grid().tolist() == [3.0, 6.5, 10.0]


class TestRunSweep:
    def test_degenerate_sweep_reproduces_report(self):
        table = run_sweep([], clicks=1, car=15.0, mu_h=1.0, mu_s=1.0)
        assert list(table) == COLUMNS
        assert all(len(column) == 1 for column in table.values())
        direct = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert row_foms(table, 0) == tuple(direct)
        assert table["status"][0] == "ok"
        for name, column in table.items():
            expected = {"k": np.int64, "target": np.int64, "status": object}.get(name, np.float64)
            assert column.dtype == expected, name

    def test_one_point_axis_reproduces_report(self):
        axis = SweepAxis("car", 15.0, 15.0, 1, "logarithmic")
        table = run_sweep([axis], clicks=1, mu_h=1.0, mu_s=1.0)
        direct = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert row_foms(table, 0) == tuple(direct)

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

    @pytest.mark.parametrize(
        "order",
        # every order of three axes, and mu_h fixed between two swept axes
        [*itertools.permutations(SWEEP_PARAMETERS), ("car", "mu_s"), ("mu_s", "car")],
        ids="-".join,
    )
    def test_rows_equal_a_per_point_report_loop(self, order):
        axes = {
            "car": SweepAxis("car", 3.0, 300.0, 3, "logarithmic"),
            "mu_h": SweepAxis("mu_h", 0.0, 1.0, 3),
            "mu_s": SweepAxis("mu_s", 0.0, 1.0, 2),
        }
        fixed = {} if "mu_h" in order else {"mu_h": 0.6}
        table = run_sweep([axes[name] for name in order], clicks=2, num_detectors=6, **fixed)
        expected = []
        for values in itertools.product(*(axes[name].grid() for name in order)):
            point = {**fixed, **dict(zip(order, map(float, values)))}
            rep = report(config(point["car"], 2, point["mu_h"], 6), LossChannel(point["mu_s"]), 2)
            nbar = nbar_from_car(point["car"]).mean_photon_number
            expected.append((point["car"], nbar, point["mu_h"], point["mu_s"], *rep))
        got = zip(*(table[name].tolist() for name in ("car", "nbar", "mu_h", "mu_s", *FOM_NAMES)))
        np.testing.assert_array_equal(np.array(list(got)), np.array(expected))  # NaN == NaN
        assert table["status"].tolist() == ["ok"] * len(expected)

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

    def test_fixed_value_errors_raise_before_any_point(self, monkeypatch):
        calls = []
        monkeypatch.setattr("heraldstats.sweep._figures", lambda *args: calls.append(args))
        axes = [SweepAxis("mu_h", 0.2, 0.8, 2)]
        for fixed, message in [
            (dict(clicks=1, mu_s=1.5), r"efficiency must lie in \[0, 1\], got 1.5"),
            (dict(clicks=5, mu_s=1.0), "click count 5 outside 0..4"),
            (dict(clicks=1, mu_s=1.0, target=-1), "target photon number must be >= 0, got -1"),
        ]:
            with pytest.raises(ValueError, match=message):
                run_sweep(axes, car=10.0, **fixed)
        assert calls == []

    def test_herald_and_report_errors_become_rows(self):
        # nbar 1e-9 at CAR 1e9 gives the cutoff n_max = 1, below the target of 2
        axes = [SweepAxis("car", 3.0, 1e9, 5, "logarithmic"), SweepAxis("mu_h", 0.2, 0.8, 2)]
        table = run_sweep(axes, clicks=2, mu_s=1.0)
        cutoff = "error: target photon number 2 exceeds the cutoff n_max = 1"
        assert table["status"].tolist() == ["ok"] * 8 + [cutoff] * 2
        assert np.isnan([row_foms(table, i) for i in (8, 9)]).all()
        assert table["car"].tolist() == np.repeat(axes[0].grid(), 2).tolist()
        assert table["mu_h"].tolist() == [0.2, 0.8] * 5

    def test_fault_is_not_an_error_row(self, monkeypatch):
        # only the library's ValueErrors become rows; a fault in the code surfaces
        def fault(*args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("heraldstats.sweep._figures", fault)
        with pytest.raises(ZeroDivisionError):
            run_sweep([SweepAxis("mu_h", 0.2, 0.8, 2)], clicks=1, car=10.0, mu_s=1.0)

    @staticmethod
    def report_rows(axes, clicks, target, n_det, nu, **fixed):
        """The sweep's rows from one ``report()`` call per point, in row-major order."""
        rows = []
        for values in itertools.product(*(axis.grid() for axis in axes)):
            point = {**fixed, **{axis.parameter: float(v) for axis, v in zip(axes, values)}}
            try:
                foms = report(
                    config(point["car"], clicks, point["mu_h"], n_det, nu),
                    LossChannel(point["mu_s"]),
                    target,
                )
                rows.append((*foms, "ok"))
            except ValueError as exc:
                rows.append((*(math.nan,) * len(FOM_NAMES), f"error: {exc}"))
        return rows

    @pytest.mark.parametrize(
        "axes,clicks,target,n_det,nu,kinds",
        [
            # cap rows near CAR 2, target-above-cutoff rows at CAR 1e9 (n_max = 1),
            # impossible heralds at mu_h = 0 without dark counts, and mu_s = 0
            (
                [
                    SweepAxis("car", 2.0 + 1e-6, 1e9, 16, "logarithmic"),
                    SweepAxis("mu_h", 0.0, 1.0, 3),
                    SweepAxis("mu_s", 0.0, 1.0, 3),
                ],
                1, 2, 4, 0.0,
                {"ok", "error: truncation", "error: herald", "error: target"},
            ),
            (
                [
                    SweepAxis("mu_s", 0.0, 1.0, 3),
                    SweepAxis("car", 2.01, 1e6, 8, "logarithmic"),
                    SweepAxis("mu_h", 0.0, 1.0, 4),
                ],
                5, 5, 16, 1e-3,
                {"ok", "error: target"},
            ),
        ],
        ids=["every-error-kind", "N16-k5"],
    )
    def test_rows_equal_report_bit_for_bit(self, axes, clicks, target, n_det, nu, kinds):
        table = run_sweep(
            axes, clicks=clicks, target=target, num_detectors=n_det, dark_count_prob=nu
        )
        expected = self.report_rows(axes, clicks, target, n_det, nu)
        got = list(zip(*(table[name].tolist() for name in (*FOM_NAMES, "status"))))
        assert [row[-1] for row in got] == [row[-1] for row in expected]
        assert np.array([row[:-1] for row in got]).tobytes() == np.array(
            [row[:-1] for row in expected]
        ).tobytes()
        assert {" ".join(status.split()[:2]) for status in table["status"]} == kinds

    def test_out_of_range_weights_fail_only_points_that_reach_them(self, monkeypatch):
        from heraldstats import detector

        click_weights = detector._click_weights

        def nan_from_30(det, clicks, n_max):
            weights = click_weights(det, clicks, n_max)
            weights[30:] = math.nan
            return weights

        monkeypatch.setattr("heraldstats.detector._click_weights", nan_from_30)
        axes = [SweepAxis("car", 3.0, 300.0, 6, "logarithmic")]
        table = run_sweep(axes, clicks=1, mu_h=0.5, mu_s=0.7)
        expected = self.report_rows(axes, 1, 1, 4, 5e-4, mu_h=0.5, mu_s=0.7)
        assert table["status"].tolist() == [row[-1] for row in expected]
        assert table["status"][0].startswith("error: click weights outside [0, 1]")
        assert table["status"][-1] == "ok"
        got = [row_foms(table, i) for i in range(6)]
        np.testing.assert_array_equal(np.array(got), np.array([row[:-1] for row in expected]))

    def test_each_vector_built_once_per_axis_value(self, monkeypatch):
        counts = {}

        def counting(name):
            original = getattr(sweep, name)

            def counted(*args):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(sweep, name, counted)

        for name in ("thermal_distribution", "povm_diagonal", "_lossy_weights"):
            counting(name)
        axes = [
            SweepAxis("car", 3.0, 300.0, 3, "logarithmic"),
            SweepAxis("mu_h", 0.2, 0.8, 4),
            SweepAxis("mu_s", 0.3, 0.9, 2),
        ]
        table = run_sweep(axes, clicks=1)
        assert table["status"].tolist() == ["ok"] * 24
        assert counts == {"thermal_distribution": 3, "povm_diagonal": 4, "_lossy_weights": 2}

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
        with pytest.raises(ValueError, match="direction must be 'max' or 'min', got 'up'"):
            find_optimum(table, "fidelity", direction="up")

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
