"""Acceptance suite: headline numbers and property checks at fixed tolerances.

Context unless stated otherwise: N = 4 detectors, dark-count parameter
5e-4, ideal efficiencies, adaptive truncation with tail bound 1e-14.
Each criterion prints one PASS line (run with ``pytest -s`` to see them).
"""

import itertools
import math

import numpy as np
import pytest

from heraldstats import (
    ClickDetectorArray,
    HeraldConfig,
    LossChannel,
    NonConvergentSeriesError,
    PhotonStatistics,
    SweepAxis,
    Truncation,
    TwinBeamSource,
    apply_loss,
    cross_correlation,
    dark_count_ratio,
    factorial_moment,
    find_optimum,
    g_factorial,
    herald,
    mean,
    nbar_from_car,
    parity_direct,
    parity_from_moments,
    povm_weight,
    report,
    run_sweep,
    success_probability,
    thermal_distribution,
    threshold_region,
)

from conftest import config, detector


def announce(criterion, text):
    print(f"ACCEPTANCE criterion {criterion}: PASS | {text}")


def ideal_report(car, clicks):
    return report(config(car, clicks, 1.0), LossChannel(1.0), clicks)


@pytest.fixture(scope="module")
def landscape_k1():
    axes = [
        SweepAxis("car", 2.5, 500.0, 200, "logarithmic"),
        SweepAxis("mu_h", 0.01, 1.0, 200),
    ]
    return axes, run_sweep(axes, clicks=1, mu_s=1.0)


@pytest.fixture(scope="module")
def grid_k3():
    axes = [
        SweepAxis("car", 3.0, 500.0, 101, "logarithmic"),
        SweepAxis("mu_h", 0.01, 1.0, 101),
    ]
    return axes, run_sweep(axes, clicks=3, mu_s=1.0)


class TestTableOptima:
    def test_criterion_1_single_photon(self):
        rep = ideal_report(15.0, 1)
        assert rep.fidelity == pytest.approx(0.98, abs=0.01)
        assert rep.g2 == pytest.approx(0.04, abs=0.01)
        assert rep.success_probability == pytest.approx(0.068, abs=0.003)
        assert rep.parity == pytest.approx(-0.95, abs=0.01)
        announce(1, f"k=1 CAR=15: F={rep.fidelity:.4f} g2={rep.g2:.4f} "
                    f"P={rep.success_probability:.4%} parity={rep.parity:.4f}")

    def test_criterion_2_two_photon(self):
        rep = ideal_report(23.0, 2)
        assert rep.fidelity == pytest.approx(0.96, abs=0.01)
        assert rep.g2 == pytest.approx(0.52, abs=0.01)
        assert rep.success_probability == pytest.approx(0.0015, abs=0.0003)
        assert rep.parity == pytest.approx(0.91, abs=0.02)
        announce(2, f"k=2 CAR=23: F={rep.fidelity:.4f} g2={rep.g2:.4f} "
                    f"P={rep.success_probability:.4%} parity={rep.parity:.4f}")

    def test_criterion_3_three_photon(self):
        rep = ideal_report(43.0, 3)
        assert rep.fidelity == pytest.approx(0.95, abs=0.01)
        assert rep.g2 == pytest.approx(0.675, abs=0.015)
        assert rep.success_probability == pytest.approx(5e-6, rel=0.5)
        # prose and table disagree on the parity (-0.85 vs -0.89); accept the band
        assert -0.92 <= rep.parity <= -0.84
        announce(3, f"k=3 CAR=43: F={rep.fidelity:.4f} g2={rep.g2:.4f} "
                    f"P={rep.success_probability:.6%} parity={rep.parity:.4f}")

    def test_criterion_4_loss_corrected_means(self):
        bands = {1: (15.0, 1.06, 1.08), 2: (23.0, 2.06, 2.07), 3: (43.0, 3.02, 3.03)}
        slack = 0.01
        observed = {}
        for clicks, (car, low, high) in bands.items():
            values = []
            for mu_h in (0.4, 0.5, 0.6):
                state = herald(config(car, clicks, mu_h))
                value = mean(state.statistics)
                assert low - slack <= value <= high + slack
                values.append(value)
            observed[clicks] = values
        announce(4, " | ".join(
            f"k={k}: " + "/".join(f"{v:.4f}" for v in vs) for k, vs in observed.items()
        ))


class TestSingleWideLandscape:
    def test_criterion_5_single_photon_landscape(self, landscape_k1):
        axes, table = landscape_k1
        car_grid = axes[0].grid()

        def car_index(value):
            return int(np.argmin(np.abs(np.log(car_grid) - math.log(value))))

        fvals = table["fidelity"]
        max_fidelity = np.nanmax(fvals)
        assert max_fidelity == pytest.approx(0.98, abs=0.01)

        # the top-fidelity plateau (values rounding to 0.98) sits in a narrow
        # CAR band; claimed bounds hold to within one grid cell
        plateau = threshold_region(table, "fidelity", ">=", 0.975)
        low_car, high_car = table["car"][plateau].min(), table["car"][plateau].max()
        assert abs(car_index(low_car) - car_index(15.0)) <= 1
        assert abs(car_index(high_car) - car_index(38.0)) <= 1

        region = threshold_region(table, "fidelity", ">=", 0.90)
        lo, hi = table["car"][region].min(), table["car"][region].max()
        assert 4.0 * 0.85 <= lo <= 4.0 * 1.15
        assert 230.0 * 0.85 <= hi <= 230.0 * 1.15
        mu_floor = table["mu_h"][region].min()
        assert 0.25 <= mu_floor <= 0.35

        svals = table["success_prob"]
        max_success = np.nanmax(svals)
        assert max_success == pytest.approx(0.29, abs=0.01)

        constrained = find_optimum(
            table, "success_prob", "max", [("fidelity", ">=", 0.90)]
        )
        assert table["success_prob"][constrained] == pytest.approx(0.26, abs=0.01)

        announce(5, f"maxF={max_fidelity:.4f} plateau car=[{low_car:.1f},{high_car:.1f}] "
                    f"F>=0.9 car=[{lo:.1f},{hi:.1f}] mu_h>={mu_floor:.3f} "
                    f"maxP={max_success:.4f} P|F>=0.9={table['success_prob'][constrained]:.4f}")

    def test_criterion_6_fidelity_degradation_at_70_percent(self):
        claims = {1: (2.5, 0.68), 2: (3.0, 0.48), 3: (3.0, 0.34)}
        observed = {}
        for clicks, (car_min, claim) in claims.items():
            axes = [
                SweepAxis("car", car_min, 500.0, 101, "logarithmic"),
                SweepAxis("mu_h", 0.01, 1.0, 101),
            ]
            table = run_sweep(axes, clicks=clicks, mu_s=0.7)
            best = np.nanmax(table["fidelity"])
            assert best == pytest.approx(claim, abs=0.02)
            observed[clicks] = best
        announce(6, " ".join(f"k={k}: maxF={v:.4f}" for k, v in observed.items()))

    def test_criterion_7_success_ceilings(self, grid_k3):
        axes2 = [
            SweepAxis("car", 3.0, 500.0, 101, "logarithmic"),
            SweepAxis("mu_h", 0.01, 1.0, 101),
        ]
        table2 = run_sweep(axes2, clicks=2, mu_s=1.0)
        best2 = find_optimum(table2, "success_prob", "max")
        assert table2["success_prob"][best2] == pytest.approx(0.14, abs=0.005)

        _, table3 = grid_k3
        best3 = find_optimum(table3, "success_prob", "max")
        assert table3["success_prob"][best3] == pytest.approx(0.057, abs=0.005)

        # both ceilings sit at the low-CAR, high-efficiency corner
        assert table2["car"][best2] == pytest.approx(3.0) and table2["mu_h"][best2] == pytest.approx(1.0)
        assert table3["car"][best3] == pytest.approx(3.0) and table3["mu_h"][best3] == pytest.approx(1.0)
        announce(7, f"k=2 maxP={table2['success_prob'][best2]:.4f} "
                    f"k=3 maxP={table3['success_prob'][best3]:.4f} (both at CAR=3, mu_h=1)")


class TestPropertySuite:
    def test_criterion_8a_povm_completeness_and_range(self):
        worst_sum = 0.0
        worst_range = 0.0
        for mu, nu in itertools.product((0.0, 0.3, 0.6, 1.0), (0.0, 5e-4, 0.01)):
            det = ClickDetectorArray(efficiency=mu, num_detectors=4, dark_count_prob=nu)
            for n in (0, 1, 2, 3, 5, 10, 50, 200):
                weights = [povm_weight(det, k, n) for k in range(5)]
                worst_sum = max(worst_sum, abs(sum(weights) - 1.0))
                worst_range = max(
                    worst_range, max(max(-w, w - 1.0, 0.0) for w in weights)
                )
        assert worst_sum <= 1e-12
        assert worst_range <= 1e-12
        announce("8a", f"completeness off by {worst_sum:.2e}, range excess {worst_range:.2e}")

    def test_criterion_8b_povm_monte_carlo(self):
        rng = np.random.default_rng(20240817)
        trials = 10**6
        popcount = np.array([bin(v).count("1") for v in range(16)])
        worst_sigma = 0.0
        for mu in (0.3, 0.7):
            det = ClickDetectorArray(efficiency=mu, num_detectors=4, dark_count_prob=0.0)
            for n in range(6):
                occupied = np.zeros(trials, dtype=np.uint8)
                for _ in range(n):
                    survived = rng.random(trials) < mu
                    bins = rng.integers(0, 4, trials).astype(np.uint8)
                    occupied |= np.where(survived, np.uint8(1) << bins, np.uint8(0))
                frequencies = np.bincount(popcount[occupied], minlength=5) / trials
                for k in range(5):
                    p = povm_weight(det, k, n)
                    sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
                    worst_sigma = max(worst_sigma, abs(frequencies[k] - p) / sigma)
        assert worst_sigma <= 3.0
        announce("8b", f"Monte-Carlo click frequencies within {worst_sigma:.2f} sigma")

    def test_criterion_8c_loss_channel_laws(self):
        thermal = thermal_distribution(TwinBeamSource(0.6))
        fock = PhotonStatistics.fock(4, 9)
        for stats in (thermal, fock):
            for mu in (0.2, 0.5, 0.9):
                lossy = apply_loss(LossChannel(mu), stats)
                assert abs(lossy.probabilities.sum() - 1.0) <= 1e-12
                assert mean(lossy) == pytest.approx(mu * mean(stats), abs=1e-10)
                for order in (2, 3):
                    reference = factorial_moment(stats, order)
                    scaled = factorial_moment(lossy, order)
                    if reference > 0:
                        assert scaled == pytest.approx(mu**order * reference, rel=1e-8)
            composed = apply_loss(LossChannel(0.8), apply_loss(LossChannel(0.5), stats))
            direct = apply_loss(LossChannel(0.4), stats)
            np.testing.assert_allclose(
                composed.probabilities, direct.probabilities, atol=1e-10
            )
        announce("8c", "stochasticity, semigroup, mean and moment scaling hold")

    def test_criterion_8d_g_loss_invariance(self):
        worst = 0.0
        for clicks, car, mu_h in [(1, 15.0, 0.9), (2, 8.0, 0.5), (3, 30.0, 0.7)]:
            stats = herald(config(car, clicks, mu_h)).statistics
            for mu_s in (0.3, 0.7, 1.0):
                lossy = apply_loss(LossChannel(mu_s), stats)
                for order in (2, 3):
                    rel = abs(
                        g_factorial(lossy, order) / g_factorial(stats, order) - 1.0
                    )
                    worst = max(worst, rel)
        assert worst <= 1e-8
        announce("8d", f"g2/g3 loss invariance within {worst:.2e} relative")

    def test_criterion_8e_parity_routes(self):
        worst = 0.0
        for clicks, car in [(1, 15.0), (2, 23.0), (3, 43.0)]:
            stats = herald(config(car, clicks, 1.0)).statistics
            diff = abs(parity_from_moments(stats, 40) - parity_direct(stats))
            worst = max(worst, diff)
        assert worst <= 1e-6
        with pytest.raises(NonConvergentSeriesError):
            parity_from_moments(thermal_distribution(TwinBeamSource(5.0)), 60)
        announce("8e", f"series route matches direct within {worst:.2e}; "
                       f"thermal nbar=5 reported divergent")

    def test_criterion_8f_car_identity(self):
        worst = 0.0
        for nbar in np.geomspace(1e-3, 10.0, 13):
            value = cross_correlation(
                TwinBeamSource(float(nbar)), (1, 1), Truncation.fixed(400)
            )
            worst = max(worst, abs(value - (2.0 + 1.0 / nbar)))
        assert worst <= 1e-8
        announce("8f", f"g^(1,1) equals 2 + 1/nbar within {worst:.2e}")

    def test_criterion_8g_dark_count_ratio_identity(self):
        worst = 0.0
        for mu_h, nu, nbar in itertools.product(
            (0.3, 0.6, 0.9), (1e-5, 5e-4, 1e-2), (0.01, 0.05, 0.2)
        ):
            cfg = HeraldConfig(TwinBeamSource(nbar), detector(mu_h, nu=nu), 1)
            probs = herald(cfg).statistics.probabilities
            rel = abs(dark_count_ratio(cfg) / (probs[1] / probs[0]) - 1.0)
            worst = max(worst, rel)
        assert worst <= 1e-8
        announce("8g", f"closed form matches heralded p1/p0 within {worst:.2e} "
                       f"over the 27-point grid")

    def test_criterion_8h_herald_outcomes_partition(self):
        worst = 0.0
        for nbar, mu_h, nu in [(0.25, 0.6, 5e-4), (1.0, 1.0, 0.0), (0.05, 0.3, 0.01)]:
            source = TwinBeamSource(nbar)
            det = detector(mu_h, nu=nu)
            total = sum(
                success_probability(HeraldConfig(source, det, k)) for k in range(5)
            )
            worst = max(worst, abs(total - 1.0))
        assert worst <= 1e-10
        announce("8h", f"herald outcome probabilities sum to 1 within {worst:.2e}")


class TestThreePhotonMoment:
    def test_criterion_9_g3_target_and_surface(self, grid_k3):
        assert g_factorial(PhotonStatistics.fock(3), 3) == 2 / 9

        _, table = grid_k3
        g3_values = table["g3"]
        assert (table["status"] == "ok").all()
        assert np.isfinite(g3_values).all()
        announce(9, f"Fock-3 g3 = 2/9 exactly; k=3 surface of {len(g3_values)} points "
                    f"finite (g3 range [{g3_values.min():.4f}, {g3_values.max():.4f}])")
