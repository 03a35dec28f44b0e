import math
from fractions import Fraction

import numpy as np
import pytest

from heraldstats import (
    DEFAULT_TAIL_EPSILON,
    TRUNCATION_CAP,
    PhotonStatistics,
    Truncation,
    TruncationCapError,
    TwinBeamSource,
    car_from_source,
    factorial_moment,
    mean,
    nbar_from_car,
    thermal_distribution,
)
from heraldstats.fock import _MOMENTS, _falling_factorials, _moment_block


class TestTwinBeamSource:
    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            TwinBeamSource(-0.1)

    def test_squeezing_magnitude(self):
        assert TwinBeamSource(1.0).squeezing_magnitude == 0.5
        assert TwinBeamSource(0.0).squeezing_magnitude == 0.0

    def test_squeezing_magnitude_below_one(self):
        for nbar in (0.01, 1.0, 100.0, 1e6):
            assert 0.0 <= TwinBeamSource(nbar).squeezing_magnitude < 1.0


class TestCarConversion:
    def test_car_3_gives_nbar_1(self):
        assert nbar_from_car(3.0).mean_photon_number == pytest.approx(1.0, abs=1e-15)

    def test_car_15(self):
        assert nbar_from_car(15.0).mean_photon_number == pytest.approx(1 / 13, rel=1e-14)

    def test_large_car_gives_small_nbar(self):
        assert nbar_from_car(1e9).mean_photon_number == pytest.approx(0.0, abs=2e-9)
        assert nbar_from_car(math.inf).mean_photon_number == 0.0

    @pytest.mark.parametrize("car", [2.0, 1.0, 0.0, -3.0])
    def test_car_at_or_below_floor_rejected(self, car):
        with pytest.raises(ValueError):
            nbar_from_car(car)

    @pytest.mark.parametrize("nbar,car", [(1.0, 3.0), (1 / 13, 15.0), (0.5, 4.0)])
    def test_car_from_source(self, nbar, car):
        assert car_from_source(TwinBeamSource(nbar)) == pytest.approx(car, rel=1e-14)

    def test_car_undefined_for_vacuum(self):
        with pytest.raises(ValueError):
            car_from_source(TwinBeamSource(0.0))

    def test_round_trip(self):
        for car in np.geomspace(2.0 + 1e-6, 1e6, 40):
            back = car_from_source(nbar_from_car(float(car)))
            assert back == pytest.approx(car, abs=1e-12 * max(1.0, car))


class TestThermalDistribution:
    def test_vacuum(self):
        stats = thermal_distribution(TwinBeamSource(0.0))
        assert stats.probabilities.tolist() == [1.0]

    def test_nbar_one_halving(self):
        stats = thermal_distribution(TwinBeamSource(1.0))
        probs = stats.probabilities
        assert probs[0] == pytest.approx(0.5, abs=1e-12)
        assert probs[1] == pytest.approx(0.25, abs=1e-12)
        assert probs[2] == pytest.approx(0.125, abs=1e-12)
        # renormalization preserves the geometric ratio exactly
        np.testing.assert_allclose(probs[1:] / probs[:-1], 0.5, rtol=1e-14)

    def test_mean_matches_closed_form(self):
        # oracle: the mean of the untruncated geometric series is nbar itself
        for nbar in (0.01, 0.1, 1.0, 10.0):
            stats = thermal_distribution(TwinBeamSource(nbar), Truncation())
            assert mean(stats) == pytest.approx(nbar, abs=1e-10)

    def test_car_15_mean(self):
        stats = thermal_distribution(nbar_from_car(15.0), Truncation())
        assert mean(stats) == pytest.approx(1 / 13, abs=1e-12)

    def test_adaptive_tail_bound(self):
        nbar = 0.5
        stats = thermal_distribution(TwinBeamSource(nbar), Truncation())
        ratio = nbar / (1 + nbar)
        assert ratio ** (stats.n_max + 1) < DEFAULT_TAIL_EPSILON
        assert ratio**stats.n_max >= DEFAULT_TAIL_EPSILON  # smallest such cutoff

    def test_cap_exceeded_names_requirement(self):
        # nbar 200 needs a cutoff of about -log(1e-14) * 200 ~ 6460
        with pytest.raises(TruncationCapError) as err:
            thermal_distribution(TwinBeamSource(200.0), Truncation())
        assert err.value.required_n_max > TRUNCATION_CAP
        assert str(err.value.required_n_max) in str(err.value)

    def test_normalized_after_any_construction(self):
        for nbar in (0.0, 0.3, 2.0):
            for trunc in (Truncation(), Truncation.fixed(12)):
                stats = thermal_distribution(TwinBeamSource(nbar), trunc)
                assert abs(stats.probabilities.sum() - 1.0) <= 1e-10


class TestTruncation:
    def test_fixed_resolves_without_source(self):
        # a fixed cutoff does not depend on the source it is resolved for
        assert Truncation.fixed(17).resolve_n_max(TwinBeamSource(0.0)) == 17
        assert Truncation.fixed(17).resolve_n_max(TwinBeamSource(50.0)) == 17

    @staticmethod
    def divided_log_cutoff(nbar, tail_epsilon):
        """The cutoff with log(nbar / (1 + nbar)) formed by division, finite below nbar ~ 9e15."""
        log_ratio = math.log(nbar / (1.0 + nbar))
        log_eps = math.log(tail_epsilon)
        needed = max(math.ceil(log_eps / log_ratio) - 1, 0)
        while (needed + 1) * log_ratio >= log_eps:
            needed += 1
        return needed

    @pytest.mark.parametrize("tail_epsilon", [DEFAULT_TAIL_EPSILON])
    def test_cutoff_matches_divided_log(self, tail_epsilon):
        trunc = Truncation()
        for nbar in np.geomspace(1e-3, 1e4, 4001):
            nbar = float(nbar)
            expected = self.divided_log_cutoff(nbar, tail_epsilon)
            if expected <= TRUNCATION_CAP:
                assert trunc.resolve_n_max(TwinBeamSource(nbar)) == expected, nbar
            else:
                with pytest.raises(TruncationCapError) as err:
                    trunc.resolve_n_max(TwinBeamSource(nbar))
                assert err.value.required_n_max == expected, nbar

    @pytest.mark.parametrize("nbar", [5e15, 1e16, 1e20, 1e300, 1.7976931348623157e308])
    def test_huge_nbar_exceeds_cap(self, nbar):
        # log(nbar / (1 + nbar)) rounds to 0 above nbar ~ 9e15, and the
        # requested cutoff itself overflows a float above ~5e306
        with pytest.raises(TruncationCapError, match="^truncation cap 4096 exceeded") as err:
            Truncation().resolve_n_max(TwinBeamSource(nbar))
        # the required cutoff is about -log(1e-14) nbar, as an exact integer
        assert err.value.required_n_max / int(nbar) == pytest.approx(-math.log(1e-14), rel=1e-9)

    @pytest.mark.parametrize(
        "required,shown",
        [
            (6463, "6463"),
            (10**16 - 1, "9999999999999999"),
            (12345678901234567, "about 1.235e16"),
            (99994999 * 10**20, "about 9.999e27"),
            (99995 * 10**20, "about 1.000e25"),
        ],
    )
    def test_cap_message_rounds_required_cutoff(self, required, shown):
        # integer rounding: the required cutoff can pass the float range
        assert str(TruncationCapError(required)).endswith(f"needs n_max = {shown}")

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="needs n_max >= 0"):
            Truncation.fixed(-1)

    @pytest.mark.parametrize("kwargs", [{"n_max": 2.5}, {"n_max": 2.0}, {"n_max": True}])
    def test_non_integral_cutoff_rejected(self, kwargs):
        ((name, value),) = kwargs.items()
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}$"):
            Truncation(**kwargs)
        assert getattr(Truncation(**{name: np.int64(3)}), name) == 3


class TestPhotonStatistics:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PhotonStatistics([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PhotonStatistics([0.5, 0.4])
        for probs in ([], [[0.5], [0.5]]):  # nothing to sum, or not one vector
            with pytest.raises(ValueError, match="^probabilities must be a non-empty 1-d vector$"):
                PhotonStatistics(probs)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhotonStatistics([np.nan, 1.0])

    def test_clips_rounding_noise(self):
        stats = PhotonStatistics([1.0 + 5e-13, -5e-13])
        assert stats.probabilities[1] == 0.0
        assert stats.probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    def test_fock(self):
        stats = PhotonStatistics.fock(2, 4)
        assert stats.probabilities.tolist() == [0, 0, 1, 0, 0]
        assert len(stats) == 5
        assert repr(stats) == "PhotonStatistics(n_max=4, mean=2)"
        with pytest.raises(ValueError):
            PhotonStatistics.fock(3, 2)
        with pytest.raises(ValueError, match="^photon number must be >= 0$"):
            PhotonStatistics.fock(-1)

    @pytest.mark.parametrize(
        "args,what,value",
        [
            ((True,), "photon number", True),
            ((2.5,), "photon number", 2.5),
            ((2, 3.0), "n_max", 3.0),
            ((1, True), "n_max", True),
        ],
    )
    def test_fock_counts_must_be_integers(self, args, what, value):
        with pytest.raises(ValueError, match=f"^{what} must be an integer, got {value!r}$"):
            PhotonStatistics.fock(*args)
        assert PhotonStatistics.fock(np.int64(2), np.int64(3)).probabilities.tolist() == [0, 0, 1, 0]

    def test_probabilities_read_only(self):
        stats = PhotonStatistics.fock(1)
        with pytest.raises(ValueError):
            stats.probabilities[0] = 0.5


class TestMoments:
    def test_fock_two_second_moment(self):
        assert factorial_moment(PhotonStatistics.fock(2), 2) == 2.0

    def test_vacuum_moments_vanish(self):
        vac = PhotonStatistics.fock(0, 5)
        for order in (1, 2, 3, 5):
            assert factorial_moment(vac, order) == 0.0

    def test_thermal_identity(self):
        # oracle: untruncated thermal factorial moments are order! * nbar**order
        for nbar in (0.1, 0.5, 1.0, 2.0):
            # a fixed cutoff of 100 leaves a tail below 1e-17 at every nbar here
            stats = thermal_distribution(TwinBeamSource(nbar), Truncation.fixed(100))
            for order in (1, 2, 3, 4):
                expected = math.factorial(order) * nbar**order
                assert factorial_moment(stats, order) == pytest.approx(expected, rel=1e-8)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            factorial_moment(PhotonStatistics.fock(1), 0)

    @pytest.mark.parametrize("order", [True, 1.5, 2.0])
    def test_order_must_be_an_integer(self, order):
        stats = PhotonStatistics.fock(2)
        with pytest.raises(
            ValueError, match=f"^factorial moment order must be an integer, got {order!r}$"
        ):
            factorial_moment(stats, order)
        assert factorial_moment(stats, np.int64(2)) == 2.0

    def test_order_beyond_cutoff_is_zero(self):
        assert factorial_moment(PhotonStatistics.fock(2), 5) == 0.0

    def test_exact_against_fractions(self):
        # Dyadic probabilities and integer falling factorials: every product
        # and partial sum is exact in float64, in any summation order.
        counts = [5, 9, 13, 3, 11, 7, 8, 8]
        probs = [Fraction(c, 64) for c in counts]
        stats = PhotonStatistics([float(q) for q in probs])
        for order in range(1, 7):
            exact = sum(q * math.perm(n, order) for n, q in enumerate(probs))
            assert factorial_moment(stats, order) == float(exact)
        assert mean(stats) == float(sum(q * n for n, q in enumerate(probs)))

    def test_overflowing_order_is_an_error(self):
        with pytest.raises(ValueError, match="order 120 overflows at n_max = 1000"):
            factorial_moment(PhotonStatistics.fock(0, 1000), 120)


class TestFallingFactorialBlock:
    def test_entries_are_exact_falling_factorials(self):
        block = _falling_factorials(6, 30)
        assert block.shape == (6, 31)
        for r in range(6):
            assert block[r].tolist() == [float(math.perm(n, r + 1)) for n in range(31)]
        assert not np.signbit(block).any()  # no -0.0 below the diagonal

    def test_read_only(self):
        block = _falling_factorials(3, 20)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0

    def test_smaller_cutoff_is_a_cached_prefix(self):
        long = _moment_block(3, 50)
        short = _moment_block(3, 10)
        assert np.shares_memory(short, _MOMENTS)
        assert np.array_equal(short, long[:, :11])
        assert np.array_equal(short, _falling_factorials(3, 10))
