import gc
import math
import tracemalloc

import numpy as np
import pytest

from heraldstats import (
    HeraldConfig,
    LossChannel,
    NonConvergentSeriesError,
    PhotonStatistics,
    Truncation,
    TwinBeamSource,
    apply_loss,
    cross_correlation,
    dark_count_ratio,
    factorial_moment,
    fidelity,
    g_factorial,
    herald,
    mean,
    nbar_from_car,
    parity_direct,
    parity_from_moments,
    povm_diagonal,
    report,
    thermal_distribution,
)

from heraldstats.loss import _lossy_weights

from conftest import config, detector


def heralded_stats(car, clicks, mu_h):
    return herald(config(car, clicks, mu_h)).statistics


class TestFidelity:
    def test_fock_target(self):
        assert fidelity(PhotonStatistics.fock(1, 4), 1) == 1.0
        assert fidelity(PhotonStatistics.fock(1, 4), 2) == 0.0

    def test_target_beyond_cutoff(self):
        with pytest.raises(ValueError):
            fidelity(PhotonStatistics.fock(1), 2)

    def test_fidelities_partition(self):
        stats = heralded_stats(10.0, 1, 0.8)
        total = sum(fidelity(stats, m) for m in range(stats.n_max + 1))
        assert total == pytest.approx(1.0, abs=1e-10)
        assert all(0 <= fidelity(stats, m) <= 1 for m in range(stats.n_max + 1))


class TestGFactorial:
    @pytest.mark.parametrize("order", [True, 2.0, 2.5])
    def test_order_must_be_an_integer(self, order):
        stats = PhotonStatistics.fock(2)
        with pytest.raises(
            ValueError, match=f"^factorial moment order must be an integer, got {order!r}$"
        ):
            g_factorial(stats, order)
        assert g_factorial(stats, np.int64(2)) == g_factorial(stats, 2)

    def test_thermal_g2_is_two(self):
        stats = thermal_distribution(TwinBeamSource(0.8), Truncation())
        assert g_factorial(stats, 2) == pytest.approx(2.0, rel=1e-8)

    def test_fock_values(self):
        assert g_factorial(PhotonStatistics.fock(2), 2) == pytest.approx(0.5, abs=1e-15)
        assert g_factorial(PhotonStatistics.fock(3), 2) == pytest.approx(2 / 3, abs=1e-15)
        assert g_factorial(PhotonStatistics.fock(3), 3) == 2 / 9

    def test_zero_mean_is_undefined(self):
        with pytest.raises(ValueError, match="undefined moment"):
            g_factorial(PhotonStatistics.fock(0, 3), 2)

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            g_factorial(PhotonStatistics.fock(2), 1)

    @pytest.mark.parametrize("clicks,car,mu_h", [
        (1, 5.0, 0.4), (1, 23.0, 0.9), (2, 5.0, 0.9), (2, 23.0, 0.4), (3, 8.0, 0.7),
    ])
    @pytest.mark.parametrize("mu_s", [0.3, 0.7, 1.0])
    def test_loss_invariance(self, clicks, car, mu_h, mu_s):
        stats = heralded_stats(car, clicks, mu_h)
        lossy = apply_loss(LossChannel(mu_s), stats)
        for order in (2, 3):
            assert g_factorial(lossy, order) == pytest.approx(
                g_factorial(stats, order), rel=1e-8
            )


class TestParity:
    @pytest.mark.parametrize("max_order", [True, 2.0, 2.5])
    def test_max_order_must_be_an_integer(self, max_order):
        stats = PhotonStatistics.fock(1)
        with pytest.raises(ValueError, match=f"^max_order must be an integer, got {max_order!r}$"):
            parity_from_moments(stats, max_order)
        assert parity_from_moments(stats, np.int64(3)) == parity_from_moments(stats, 3)

    def test_trivial_values(self):
        assert parity_direct(PhotonStatistics.fock(0)) == 1.0
        assert parity_direct(PhotonStatistics.fock(1)) == -1.0
        assert parity_direct(PhotonStatistics.fock(2)) == 1.0

    def test_bounded(self):
        for car in (3.0, 15.0, 200.0):
            for clicks in (1, 2, 3):
                value = parity_direct(heralded_stats(car, clicks, 0.7))
                assert -1.0 <= value <= 1.0

    def test_moment_series_matches_direct(self):
        stats = heralded_stats(15.0, 1, 1.0)
        direct = parity_direct(stats)
        series = parity_from_moments(stats, 40)
        assert series == pytest.approx(direct, abs=1e-6)

    def test_vacuum_series(self):
        assert parity_from_moments(PhotonStatistics.fock(0, 3), 10) == 1.0
        with pytest.raises(ValueError, match="max_order must be >= 0"):
            parity_from_moments(PhotonStatistics.fock(0, 3), -1)

    def test_thermal_series_diverges(self):
        # thermal factorial moments grow like order!, so the series terms form
        # a geometric progression with ratio 2 nbar > 1
        stats = thermal_distribution(TwinBeamSource(5.0))
        with pytest.raises(NonConvergentSeriesError) as err:
            parity_from_moments(stats, 60)
        assert len(err.value.partial_sums) >= 1
        assert math.isfinite(err.value.partial_sums[-1])

    def test_series_on_lossy_state(self):
        lossy = apply_loss(LossChannel(0.6), heralded_stats(23.0, 2, 0.9))
        assert parity_from_moments(lossy, 40) == pytest.approx(
            parity_direct(lossy), abs=1e-6
        )


class TestCrossCorrelation:
    @pytest.mark.parametrize(
        "orders,bad", [((1.5, 1), 1.5), ((True, 1), True), ((1, 2.0), 2.0), ((2, False), False)]
    )
    def test_orders_must_be_integers(self, orders, bad):
        source = TwinBeamSource(0.5)
        with pytest.raises(
            ValueError, match=f"^cross-correlation order must be an integer, got {bad!r}$"
        ):
            cross_correlation(source, orders)
        assert cross_correlation(source, (np.int64(1), np.int64(2))) == cross_correlation(
            source, (1, 2)
        )

    def test_car_identity(self):
        for nbar in (1e-3, 0.01, 0.1, 1.0, 10.0):
            value = cross_correlation(
                TwinBeamSource(nbar), (1, 1), Truncation.fixed(400)
            )
            assert value == pytest.approx(2 + 1 / nbar, abs=1e-8)

    def test_nbar_one(self):
        assert cross_correlation(TwinBeamSource(1.0), (1, 1)) == pytest.approx(
            3.0, rel=1e-10
        )

    def test_against_brute_force(self):
        # oracle: direct sum with stdlib exact falling factorials
        nbar, n_max = 0.1, 200
        probs = [nbar**n / (1 + nbar) ** (n + 1) for n in range(n_max + 1)]
        total = sum(probs)
        probs = [p / total for p in probs]
        first = sum(j * p for j, p in enumerate(probs))
        expected = (
            sum(math.perm(j, 2) ** 2 * p for j, p in enumerate(probs)) / first**4
        )
        value = cross_correlation(TwinBeamSource(nbar), (2, 2), Truncation.fixed(n_max))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_vacuum_undefined(self):
        with pytest.raises(ValueError):
            cross_correlation(TwinBeamSource(0.0), (1, 1))
        # a cutoff of 0 leaves a zero-mean marginal too
        with pytest.raises(ValueError, match="undefined for zero mean"):
            cross_correlation(TwinBeamSource(0.5), (1, 1), Truncation.fixed(0))

    def test_orders_validated(self):
        with pytest.raises(ValueError):
            cross_correlation(TwinBeamSource(0.5), (0, 1))


class TestDarkCountRatio:
    @pytest.mark.parametrize("clicks", [1.0, True])
    def test_click_count_must_be_an_integer(self, clicks):
        cfg = HeraldConfig(TwinBeamSource(0.05), detector(0.6), clicks)
        with pytest.raises(ValueError, match=f"^click count must be an integer, got {clicks!r}$"):
            dark_count_ratio(cfg)

    def test_matches_heralded_populations(self):
        # dual route: the closed form must agree with the heralded statistics
        for mu_h in (0.3, 0.6, 0.9):
            for nu in (1e-5, 5e-4, 1e-2):
                for nbar in (0.01, 0.05, 0.2):
                    cfg = HeraldConfig(
                        TwinBeamSource(nbar), detector(mu_h, nu=nu), 1
                    )
                    probs = herald(cfg).statistics.probabilities
                    assert dark_count_ratio(cfg) == pytest.approx(
                        probs[1] / probs[0], rel=1e-8
                    )

    def test_halving_dark_counts_doubles_ratio(self):
        base = HeraldConfig(TwinBeamSource(0.05), detector(0.6, nu=5e-4), 1)
        halved = HeraldConfig(TwinBeamSource(0.05), detector(0.6, nu=2.5e-4), 1)
        assert dark_count_ratio(halved) / dark_count_ratio(base) == pytest.approx(
            2.0, rel=1e-2
        )

    def test_zero_dark_counts_diverge(self):
        # nu/N underflows to 0 at nu = 5e-324 and 1e-323 with N = 4: no vacuum
        # click either, so the ratio is +inf, not a ZeroDivisionError
        for nu in (0.0, 5e-324, 1e-323):
            cfg = HeraldConfig(TwinBeamSource(0.05), detector(0.6, nu=nu), 1)
            assert povm_diagonal(cfg.detector, 1, 1)[0] == 0.0
            assert dark_count_ratio(cfg) == math.inf

    def test_huge_dark_counts_floor(self):
        # the closed form approaches (1 - mu (N-1)/N) P1/P0 from above as the
        # dark-count parameter grows, far below the dark-count-free ratio
        nbar, mu_h = 0.05, 0.6
        cfg = HeraldConfig(TwinBeamSource(nbar), detector(mu_h, nu=1e4), 1)
        floor = (1 - mu_h * 3 / 4) * nbar / (1 + nbar)
        assert dark_count_ratio(cfg) == pytest.approx(floor, rel=1e-6)
        small = HeraldConfig(TwinBeamSource(nbar), detector(mu_h, nu=1e-6), 1)
        assert dark_count_ratio(cfg) < 1e-3 * dark_count_ratio(small)

    def test_matches_mpmath_at_small_dark_counts(self):
        # the difference form 1 - mu (N-1)/N - (1 - mu) e^(-nu/N) cancelled
        # to 8.9e-5 relative at mu_h = 0, nu = 1e-12
        mp = pytest.importorskip("mpmath").mp
        nbar, n_det = 0.1, 4
        with mp.workdps(50):
            x = mp.mpf(nbar) / (1 + mp.mpf(nbar))
            for nu in (1e-14, 1e-12, 1e-10, 5e-4, 1.0):
                keep = mp.exp(-mp.mpf(nu) / n_det)
                for mu_h in (0.0, 1e-6, 0.5, 1.0):
                    mu = mp.mpf(mu_h)
                    ref = x * ((1 - mu * (n_det - 1) / n_det) - (1 - mu) * keep) / (1 - keep)
                    cfg = HeraldConfig(TwinBeamSource(nbar), detector(mu_h, n_det, nu), 1)
                    ratio = dark_count_ratio(cfg)
                    assert abs(ratio / ref - 1) <= 1e-14, (nu, mu_h)
                    if mu_h == 0.0:
                        assert ratio == cfg.source.squeezing_magnitude

    def test_requires_single_click(self):
        with pytest.raises(ValueError):
            dark_count_ratio(config(15.0, 2, 0.6))


class TestReport:
    def test_bundles_single_photon_optimum(self):
        rep = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert rep.fidelity == pytest.approx(0.98, abs=0.01)
        assert rep.g2 == pytest.approx(0.04, abs=0.01)
        assert rep.success_probability == pytest.approx(0.068, abs=0.003)
        assert rep.parity == pytest.approx(-0.95, abs=0.01)

    def test_g2_from_lossless_equals_lossy_route(self):
        cfg = config(10.0, 2, 0.8)
        rep = report(cfg, LossChannel(0.5), 2)
        lossy = apply_loss(LossChannel(0.5), herald(cfg).statistics)
        assert rep.g2 == pytest.approx(g_factorial(lossy, 2), rel=1e-8)

    def test_mean_loss_correction(self):
        rep = report(config(15.0, 1, 1.0), LossChannel(0.4), 1)
        assert rep.mean_loss_corrected == pytest.approx(rep.mean_lossy / 0.4, rel=1e-12)
        ideal = report(config(15.0, 1, 1.0), LossChannel(1.0), 1)
        assert rep.mean_loss_corrected == pytest.approx(ideal.mean_lossy, rel=1e-9)

    def test_parity_computed_on_lossy_statistics(self):
        cfg = config(15.0, 1, 1.0)
        rep = report(cfg, LossChannel(0.6), 1)
        lossy = apply_loss(LossChannel(0.6), herald(cfg).statistics)
        assert rep.parity == pytest.approx(parity_direct(lossy), rel=1e-12, abs=1e-15)

    def test_vacuum_report(self):
        cfg = HeraldConfig(TwinBeamSource(0.0), detector(1.0, nu=0.0), 0)
        rep = report(cfg, LossChannel(1.0), 0)
        assert rep.parity == 1.0
        assert rep.fidelity == 1.0
        assert math.isnan(rep.g2) and math.isnan(rep.g3)
        assert rep.success_probability == 1.0

    def test_retains_no_memory(self):
        # each call at its own source, so a kept thermal vector would pile up
        def calls(first, count):
            for i in range(first, first + count):
                cfg = HeraldConfig(TwinBeamSource(0.05 + 1e-3 * i), detector(0.8), 1)
                report(cfg, LossChannel(0.7), 1)

        calls(0, 1)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            calls(1, 500)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


def assert_agrees(cfg, mu_s, target, tiny=0.0):
    """report's lossy figures of merit against the full lossy vector of apply_loss.

    Values below ``tiny`` are compared absolutely.
    """
    rep = report(cfg, LossChannel(mu_s), target)
    lossy = apply_loss(LossChannel(mu_s), herald(cfg).statistics)
    assert rep.fidelity == pytest.approx(fidelity(lossy, target), rel=1e-12, abs=tiny)
    assert rep.parity == pytest.approx(parity_direct(lossy), rel=1e-12, abs=1e-15)
    assert rep.mean_lossy == pytest.approx(mean(lossy), rel=1e-12, abs=tiny)
    return rep


class TestLossyFunctionals:
    """report's O(n) loss functionals against the dense apply_loss route."""

    @pytest.mark.parametrize("clicks", [0, 1, 2, 3])
    @pytest.mark.parametrize("mu_s", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_matches_apply_loss(self, clicks, mu_s):
        for target in sorted({0, 1, clicks}):
            assert_agrees(config(15.0, clicks, 0.8), mu_s, target)

    def test_matches_apply_loss_near_floor(self):
        cfg = config(2.01, 1, 0.8)
        assert herald(cfg).statistics.n_max > 3200
        # parity base 1 - 2 mu_s of both signs
        for mu_s in (0.3, 0.7, 0.95):
            assert_agrees(cfg, mu_s, 1)

    @pytest.mark.parametrize("mu_s", [2.2250738585072014e-308, 1e-306, 1e-260, 1e-240])
    def test_tiny_efficiency(self, mu_s):
        # scipy's binomial pmf raises OverflowError for some mu_s below ~1e-305
        for clicks in (0, 1, 2):
            for target in (0, 1, 2):
                assert_agrees(config(15.0, clicks, 0.8), mu_s, target)

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_total_loss_is_exact_vacuum(self, target):
        rep = report(config(15.0, 1, 0.8), LossChannel(0.0), target)
        assert rep.fidelity == (1.0 if target == 0 else 0.0)
        assert rep.parity == 1.0
        assert rep.mean_lossy == 0.0
        assert math.isnan(rep.mean_loss_corrected)

    @pytest.mark.parametrize(
        "clicks,n_det",
        [
            pytest.param(0, 4, id="0"),
            pytest.param(1, 4, id="1"),
            pytest.param(3, 4, id="3"),
            pytest.param(3, 8, id="3-N8"),
        ],
    )
    def test_no_loss_is_bit_identical(self, clicks, n_det):
        cfg = config(15.0, clicks, 0.8, n_det)
        lossless = herald(cfg).statistics
        rep = report(cfg, LossChannel(1.0), 1)
        assert rep.fidelity == lossless.probabilities[1]
        assert rep.parity == parity_direct(lossless)
        assert rep.mean_lossy == mean(lossless)
        assert rep.mean_loss_corrected == mean(lossless)

    @pytest.mark.parametrize("mu_s", [0.0, 0.5, 1.0])
    def test_target_beyond_cutoff_keeps_message(self, mu_s):
        # the adaptive cutoff of nbar 1e-9 is n_max = 1
        cfg = HeraldConfig(TwinBeamSource(1e-9), detector(0.8), 1)
        with pytest.raises(ValueError, match=r"^target photon number 2 exceeds the cutoff n_max = 1$"):
            report(cfg, LossChannel(mu_s), 2)

    def test_negative_target_rejected(self):
        cfg = config(15.0, 1, 0.8)
        with pytest.raises(ValueError, match=r"^target photon number must be >= 0, got -1$"):
            report(cfg, LossChannel(0.7), -1)

    def test_target_must_be_an_integer(self):
        cfg = config(15.0, 1, 0.8)
        for target in (1.5, 1.0, True):
            with pytest.raises(
                ValueError, match=f"^target photon number must be an integer, got {target!r}$"
            ):
                report(cfg, LossChannel(0.7), target)
        assert report(cfg, LossChannel(0.7), np.int64(1)) == report(cfg, LossChannel(0.7), 1)

    @pytest.mark.parametrize(
        "car,clicks,n_det",
        [
            pytest.param(15.0, 0, 4, id="15.0-0"),
            pytest.param(15.0, 1, 4, id="15.0-1"),
            pytest.param(15.0, 2, 4, id="15.0-2"),
            pytest.param(15.0, 3, 4, id="15.0-3"),
            pytest.param(2.01, 1, 4, id="2.01-1"),
            pytest.param(15.0, 3, 8, id="15.0-3-N8"),
        ],
    )
    def test_g2_g3_equal_g_factorial(self, car, clicks, n_det):
        cfg = config(car, clicks, 0.8, n_det)
        lossless = herald(cfg).statistics
        for mu_s in (0.0, 0.3, 0.5, 0.7, 1.0):
            rep = report(cfg, LossChannel(mu_s), clicks)
            assert rep.g2 == g_factorial(lossless, 2)
            assert rep.g3 == g_factorial(lossless, 3)

    def test_prefix_view_of_moment_block_keeps_bit_identity(self):
        # Every adaptive cutoff reads a prefix view of the block built at the
        # cap, from n_max = 1 (CAR 1e9) to about 3240 (CAR 2.01).
        cutoffs = []
        for car in (15.0, 2.01, 1e9, 15.0):
            cfg = config(car, 1, 0.8)
            lossless = herald(cfg).statistics
            cutoffs.append(lossless.n_max)
            for mu_s in (0.7, 1.0):
                rep = report(cfg, LossChannel(mu_s), 1)
                assert rep.mean_loss_corrected == mean(lossless)
                assert rep.g2 == g_factorial(lossless, 2)
                assert rep.g3 == g_factorial(lossless, 3)
            assert rep.parity == parity_direct(lossless)
        assert cutoffs[1] > 3200 and cutoffs[2] == 1

    def test_block_past_the_cap_keeps_bit_identity(self):
        # a fixed cutoff past the cap builds its own falling-factorial block
        stats = thermal_distribution(nbar_from_car(15.0), Truncation.fixed(8192))
        first = factorial_moment(stats, 1)
        assert mean(stats) == first
        assert g_factorial(stats, 2) == factorial_moment(stats, 2) / first**2
        assert g_factorial(stats, 3) == factorial_moment(stats, 3) / first**3
        # oracle: untruncated thermal factorial moments are order! * nbar**order
        assert first == pytest.approx(1 / 13, rel=1e-12)
        assert g_factorial(stats, 3) == pytest.approx(6.0, rel=1e-12)

    def test_weights_are_an_exact_prefix_and_read_only(self):
        weights = _lossy_weights(0.7, 1, 50)
        assert weights.shape == (2, 51)
        assert np.array_equal(_lossy_weights(0.7, 1, 50), weights)
        assert np.array_equal(_lossy_weights(0.7, 1, 200)[:, :51], weights)
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0

    def test_loss_row_matches_mpmath(self):
        # Entries below 1e-20 weigh nothing in a fidelity; scipy's pmf keeps
        # them to ~1e-12 relative (worst seen 9e-13 at m = 2048), the rest to
        # ~1e-13.
        mp = pytest.importorskip("mpmath").mp
        n_max = 4096
        n_grid = sorted(set(np.unique(np.geomspace(1, n_max, 60).astype(int))) | {0, n_max})
        with mp.workdps(40):
            for mu in (2.2250738585072014e-308, 1e-260, 1e-3, 0.3, 0.5, 0.7, 0.999):
                for target in (0, 1, 2, 5, 100, 2048):
                    row, parity_weights = _lossy_weights(mu, target, n_max)
                    exact_mu = mp.mpf(mu)
                    for n in n_grid + [round(min(n_max, target / mu))]:
                        ref = (
                            mp.binomial(n, target) * exact_mu**target * (1 - exact_mu) ** (n - target)
                            if n >= target
                            else mp.mpf(0)
                        )
                        if ref > mp.mpf("1e-250"):
                            tol = 1e-12 if ref > mp.mpf("1e-20") else 1e-11
                            assert abs(mp.mpf(row[n]) / ref - 1) <= tol, (mu, target, n)
                        else:
                            assert abs(row[n]) <= 1e-249
                        ref_parity = (1 - 2 * exact_mu) ** n
                        assert abs(mp.mpf(parity_weights[n]) - ref_parity) <= 1e-12 * abs(ref_parity) + 1e-300

    @pytest.mark.parametrize("n_max,target", [(8192, 4096), (10000, 3000)])
    def test_loss_row_matches_mpmath_beyond_cap(self, n_max, target):
        # Fixed cutoffs past the 4096 cap: C(n, m) and (1 - mu)^(n - m) each
        # leave the float range here while their product does not.
        mp = pytest.importorskip("mpmath").mp
        n_grid = sorted(set(np.unique(np.geomspace(1, n_max, 60).astype(int))) | {0, n_max})
        with mp.workdps(40):
            for mu in (0.3, 0.5):
                row = _lossy_weights(mu, target, n_max)[0]
                assert np.isfinite(row).all()
                exact_mu = mp.mpf(mu)
                for n in n_grid + [round(min(n_max, target / mu))]:
                    ref = (
                        mp.binomial(n, target) * exact_mu**target * (1 - exact_mu) ** (n - target)
                        if n >= target
                        else mp.mpf(0)
                    )
                    if ref > mp.mpf("1e-250"):
                        tol = 1e-12 if ref > mp.mpf("1e-20") else 1e-11
                        assert abs(mp.mpf(row[n]) / ref - 1) <= tol, (mu, n)
                    else:
                        assert abs(row[n]) <= 1e-249, (mu, n)

    @pytest.mark.parametrize("n_max", [8192, 10000])
    def test_parity_row_matches_mpmath_beyond_cap(self, n_max):
        # The running product 1, b, b^2, ... rounds n - 1 times by entry n.
        # Every mu here has an exact b = 1 - 2 mu, of both signs.
        mp = pytest.importorskip("mpmath").mp
        n_grid = sorted(set(np.unique(np.geomspace(1, n_max, 60).astype(int))) | {0, n_max})
        with mp.workdps(40):
            for mu in (2.0**-14, 0.3, 0.7, 0.95, 0.9999):
                assert mp.mpf(1.0 - 2.0 * mu) == 1 - 2 * mp.mpf(mu)
                parity_weights = _lossy_weights(mu, 1, n_max)[1]
                for n in n_grid:
                    ref = (1 - 2 * mp.mpf(mu)) ** n
                    tol = n * 2.0**-53 * abs(ref) + mp.mpf("1e-300")
                    assert abs(mp.mpf(parity_weights[n]) - ref) <= tol, (mu, n)

    @pytest.mark.parametrize("mu,base", [(0.0, 1.0), (0.5, 0.0), (1.0, -1.0)])
    def test_parity_row_exact_cases(self, mu, base):
        assert np.array_equal(_lossy_weights(mu, 1, 3500)[1], base ** np.arange(3501))


class TestLossyProperties:
    def test_bounds_and_agreement(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(
            car=st.floats(2.5, 500.0),
            clicks=st.integers(0, 3),
            mu_h=st.floats(0.05, 1.0),
            mu_s=st.floats(0.0, 1.0),
            target=st.integers(0, 4),
        )
        def check(car, clicks, mu_h, mu_s, target):
            # at subnormal mu_s results below ~1e-308 carry absolute rounding
            rep = assert_agrees(config(car, clicks, mu_h), mu_s, target, tiny=1e-300)
            assert 0.0 <= rep.fidelity <= 1.0
            assert abs(rep.parity) <= 1.0

        check()
