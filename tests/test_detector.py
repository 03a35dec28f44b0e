import itertools
import math

import numpy as np
import pytest

from heraldstats import ClickDetectorArray, povm_diagonal, povm_weight
from heraldstats.detector import _click_weights


def occupancy_probability(num_detectors, efficiency, clicks, photons):
    """Exhaustive oracle: each photon survives with probability `efficiency`
    and lands in a uniformly random detector; count occupied detectors."""
    total = 0.0
    for survival in itertools.product((0, 1), repeat=photons):
        p_surv = math.prod(
            efficiency if s else 1.0 - efficiency for s in survival
        )
        survivors = sum(survival)
        for bins in itertools.product(range(num_detectors), repeat=survivors):
            if len(set(bins)) == clicks:
                total += p_surv / num_detectors**survivors
    return total


class TestPovmWeight:
    def test_no_clicks_no_dark_counts(self):
        det = ClickDetectorArray(efficiency=0.37, num_detectors=4, dark_count_prob=0.0)
        for n in (0, 1, 5, 20):
            assert povm_weight(det, 0, n) == pytest.approx((1 - 0.37) ** n, rel=1e-14)

    def test_blind_detector_never_clicks(self):
        det = ClickDetectorArray(efficiency=0.0, num_detectors=4, dark_count_prob=0.0)
        for k in (1, 2, 3, 4):
            for n in (0, 1, 7):
                assert povm_weight(det, k, n) == 0.0

    def test_two_photons_one_click_perfect_detectors(self):
        # oracle: 2 photons land in the same one of 4 detectors in 4 of 16 ways
        det = ClickDetectorArray(efficiency=1.0, num_detectors=4, dark_count_prob=0.0)
        assert occupancy_probability(4, 1.0, 1, 2) == pytest.approx(0.25, abs=1e-15)
        assert povm_weight(det, 1, 2) == pytest.approx(0.25, abs=1e-12)

    def test_two_photons_two_clicks_half_efficiency(self):
        det = ClickDetectorArray(efficiency=0.5, num_detectors=4, dark_count_prob=0.0)
        expected = occupancy_probability(4, 0.5, 2, 2)
        assert expected == pytest.approx(0.1875, abs=1e-15)
        assert povm_weight(det, 2, 2) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("efficiency", [0.3, 0.8])
    @pytest.mark.parametrize("clicks", [0, 1, 2, 3, 4])
    def test_enumeration_oracle_grid(self, efficiency, clicks):
        det = ClickDetectorArray(efficiency=efficiency, num_detectors=4, dark_count_prob=0.0)
        for photons in range(5):
            expected = occupancy_probability(4, efficiency, clicks, photons)
            assert povm_weight(det, clicks, photons) == pytest.approx(expected, abs=1e-12)

    def test_single_detector_complement(self):
        det = ClickDetectorArray(efficiency=0.42, num_detectors=1, dark_count_prob=0.0)
        for n in (0, 1, 3, 9):
            assert povm_weight(det, 1, n) == pytest.approx(1 - (1 - 0.42) ** n, rel=1e-13)

    def test_dark_click_law_on_vacuum(self):
        # with no photons, each detector clicks independently with 1 - exp(-nu/N)
        for nu in (1e-5, 5e-4, 0.01, 0.5):
            det = ClickDetectorArray(efficiency=0.6, num_detectors=4, dark_count_prob=nu)
            p_click = 1.0 - math.exp(-nu / 4)
            for k in range(5):
                binomial = math.comb(4, k) * p_click**k * (1 - p_click) ** (4 - k)
                assert povm_weight(det, k, 0) == pytest.approx(binomial, abs=1e-12)

    def test_click_count_domain(self):
        det = ClickDetectorArray(efficiency=0.5, num_detectors=4)
        with pytest.raises(ValueError):
            povm_weight(det, 5, 1)
        with pytest.raises(ValueError):
            povm_weight(det, -1, 1)
        with pytest.raises(ValueError):
            povm_weight(det, 0, -1)
        with pytest.raises(ValueError):
            povm_diagonal(det, 0, -1)

    def test_click_count_must_be_an_integer(self):
        det = ClickDetectorArray(efficiency=0.5, num_detectors=4)
        for clicks in (1.5, 2.0, True):
            with pytest.raises(ValueError, match=f"must be an integer, got {clicks!r}"):
                povm_diagonal(det, clicks, 3)
        np.testing.assert_array_equal(povm_diagonal(det, np.int64(2), 3), povm_diagonal(det, 2, 3))

    @pytest.mark.parametrize("n_max", [2.5, 3.0, True])
    def test_cutoff_must_be_an_integer(self, n_max):
        det = ClickDetectorArray(efficiency=0.5, num_detectors=4)
        with pytest.raises(ValueError, match=f"^n_max must be an integer, got {n_max!r}$"):
            povm_diagonal(det, 1, n_max)
        np.testing.assert_array_equal(povm_diagonal(det, 1, np.int64(3)), povm_diagonal(det, 1, 3))

    @pytest.mark.parametrize("n", [1.5, 2.0, True])
    def test_photon_number_must_be_an_integer(self, n):
        det = ClickDetectorArray(efficiency=0.5, num_detectors=4)
        with pytest.raises(ValueError, match=f"^photon number must be an integer, got {n!r}$"):
            povm_weight(det, 1, n)
        assert povm_weight(det, 1, np.int64(2)) == povm_weight(det, 1, 2)


class TestPovmProperties:
    MU_GRID = (0.0, 0.3, 0.6, 1.0)
    NU_GRID = (0.0, 5e-4, 0.01)

    def test_completeness(self):
        for n_det, mu, nu in itertools.product((1, 4, 16, 128), self.MU_GRID, self.NU_GRID):
            det = ClickDetectorArray(efficiency=mu, num_detectors=n_det, dark_count_prob=nu)
            total = sum(povm_diagonal(det, k, 200) for k in range(n_det + 1))
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_range_bounds(self):
        for mu, nu in itertools.product(self.MU_GRID, self.NU_GRID):
            det = ClickDetectorArray(efficiency=mu, num_detectors=4, dark_count_prob=nu)
            for k in range(5):
                for n in (0, 1, 2, 5, 50, 200):
                    w = povm_weight(det, k, n)
                    assert -1e-12 <= w <= 1 + 1e-12

    def test_diagonal_matches_scalar(self):
        det = ClickDetectorArray(efficiency=0.6, num_detectors=4, dark_count_prob=5e-4)
        diag = povm_diagonal(det, 2, 30)
        for n in range(31):
            assert diag[n] == pytest.approx(povm_weight(det, 2, n), abs=1e-13)

    def test_nan_weight_rejected(self, monkeypatch):
        monkeypatch.setattr(
            "heraldstats.detector._click_weights", lambda *args: np.array([0.5, math.nan])
        )
        det = ClickDetectorArray(efficiency=0.123, num_detectors=3, dark_count_prob=0.0)
        with pytest.raises(ValueError, match="outside"):
            povm_diagonal(det, 1, 1)


class TestPrefixCache:
    """Weights at a smaller cutoff are an exact prefix of those at a larger one."""

    @staticmethod
    def cases(seed, count=200):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n_det = int(rng.integers(1, 17))
            clicks = int(rng.integers(0, min(n_det, 4) + 1))
            nu = float(rng.choice([0.0, 5e-4, 1e-2]))
            det = ClickDetectorArray(float(rng.uniform()), n_det, nu)
            short, long = sorted(int(cutoff) for cutoff in rng.integers(0, 4001, size=2))
            yield det, clicks, short, long

    @staticmethod
    def fresh(det, clicks, n_max):
        return np.clip(_click_weights(det, clicks, n_max), 0.0, 1.0)

    def test_short_after_long_is_an_exact_prefix(self):
        for det, clicks, short, long in self.cases(1):
            full = povm_diagonal(det, clicks, long)
            assert not full.flags.writeable
            weights = povm_diagonal(det, clicks, short)
            assert not weights.flags.writeable
            assert np.array_equal(full[: short + 1], weights), (det, clicks, short, long)
            assert np.array_equal(weights, self.fresh(det, clicks, short)), (det, clicks, short)

    def test_long_after_short_is_computed_whole(self):
        for det, clicks, short, long in self.cases(2):
            povm_diagonal(det, clicks, short)
            weights = povm_diagonal(det, clicks, long)
            assert weights.shape == (long + 1,)
            assert not weights.flags.writeable
            assert np.array_equal(weights, self.fresh(det, clicks, long)), (det, clicks, long)


class TestHighPrecisionOracle:
    """Click weights against the inclusion-exclusion closed form in mpmath,

        w_n(k) = sum_m C(N,k) C(k,m) (-1)^m exp(-nu (N+m-k)/N) (1 - mu (N+m-k)/N)^n,

    whose terms cancel by up to C(N,k) 2^k against results down to 1e-250, so
    the working precision grows with the size of the terms.
    """

    N_MAX = 100
    FLOOR = 1e-250

    @staticmethod
    def reference(num_detectors, clicks, mu, nu, n_max):
        mp = pytest.importorskip("mpmath").mp
        term_digits = math.log10(math.comb(num_detectors, clicks)) + clicks * math.log10(2)
        with mp.workdps(int(term_digits) + 290):
            terms = []
            for m in range(clicks + 1):
                silent = num_detectors + m - clicks
                coeff = math.comb(num_detectors, clicks) * math.comb(clicks, m) * (-1) ** m
                terms.append(
                    [coeff * mp.exp(-mp.mpf(nu) * silent / num_detectors),
                     1 - mp.mpf(mu) * silent / num_detectors]
                )
            weights = []
            for _ in range(n_max + 1):
                weights.append(float(mp.fsum(term for term, _ in terms)))
                for pair in terms:
                    pair[0] *= pair[1]
        return weights

    @pytest.mark.parametrize("num_detectors", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_matches_mpmath(self, num_detectors):
        clicks_grid = sorted({0, 1, 3, num_detectors // 2, num_detectors - 1, num_detectors})
        for clicks in (k for k in clicks_grid if 0 <= k <= num_detectors):
            for mu, nu in itertools.product((0.0, 0.3, 0.9, 1.0), (0.0, 5e-4, 1e-2)):
                det = ClickDetectorArray(mu, num_detectors, nu)
                weights = povm_diagonal(det, clicks, self.N_MAX)
                expected = self.reference(num_detectors, clicks, mu, nu, self.N_MAX)
                for n, (got, want) in enumerate(zip(weights, expected)):
                    assert abs(got - want) <= 1e-12 * max(want, self.FLOOR), (
                        clicks, mu, nu, n, got, want
                    )


class TestClickDetectorArray:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClickDetectorArray(efficiency=1.2)
        with pytest.raises(ValueError):
            ClickDetectorArray(efficiency=-0.1)
        with pytest.raises(ValueError):
            ClickDetectorArray(efficiency=0.5, num_detectors=0)
        with pytest.raises(ValueError):
            ClickDetectorArray(efficiency=0.5, dark_count_prob=-1e-3)
        for count in (2.5, 4.0, True):
            with pytest.raises(ValueError, match=f"must be an integer, got {count!r}"):
                ClickDetectorArray(efficiency=0.5, num_detectors=count)
        assert ClickDetectorArray(efficiency=0.5, num_detectors=np.int64(3)).num_detectors == 3

    def test_defaults(self):
        det = ClickDetectorArray(efficiency=0.5)
        assert det.num_detectors == 4
        assert det.dark_count_prob == 5e-4
