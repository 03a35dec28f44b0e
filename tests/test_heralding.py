import math

import numpy as np
import pytest

from heraldstats import (
    ClickDetectorArray,
    HeraldConfig,
    ImpossibleHeraldError,
    LossChannel,
    Truncation,
    TruncationCapError,
    TwinBeamSource,
    herald,
    mean,
    nbar_from_car,
    povm_diagonal,
    report,
    success_probability,
    thermal_distribution,
)

from conftest import config, detector


class TestHerald:
    def test_huge_nbar_exceeds_cap(self):
        with pytest.raises(TruncationCapError, match="^truncation cap 4096 exceeded"):
            herald(HeraldConfig(TwinBeamSource(1e20), detector(0.8), 1))

    @pytest.mark.parametrize("nbar", [0.2, 1.0])
    @pytest.mark.parametrize("mu_h", [0.3, 0.7])
    def test_zero_click_herald_stays_thermal(self, nbar, mu_h):
        # oracle: renormalizing (1-mu)^n P_n(nbar) keeps a geometric series
        # geometric, with nbar' = nbar (1-mu) / (1 + mu nbar)
        cfg = HeraldConfig(TwinBeamSource(nbar), detector(mu_h, nu=0.0), 0)
        heralded = herald(cfg)
        nprime = nbar * (1 - mu_h) / (1 + mu_h * nbar)
        expected = thermal_distribution(
            TwinBeamSource(nprime), Truncation.fixed(heralded.statistics.n_max)
        )
        np.testing.assert_allclose(
            heralded.statistics.probabilities, expected.probabilities, atol=1e-12
        )

    def test_impossible_herald_raises(self):
        cfg = HeraldConfig(TwinBeamSource(0.5), detector(0.0, nu=0.0), 1)
        with pytest.raises(ImpossibleHeraldError):
            herald(cfg)

    def test_vacuum_input_cannot_click_without_dark_counts(self):
        cfg = HeraldConfig(TwinBeamSource(0.0), detector(1.0, nu=0.0), 1)
        with pytest.raises(ImpossibleHeraldError):
            herald(cfg)
        assert success_probability(cfg) == 0.0

    def test_dark_count_only_herald(self):
        # oracle: with vacuum input the click law is binomial in 1 - exp(-nu/N)
        nu = 5e-4
        cfg = HeraldConfig(TwinBeamSource(0.0), detector(1.0, nu=nu), 1)
        p_click = 1.0 - math.exp(-nu / 4)
        expected = math.comb(4, 1) * p_click * (1 - p_click) ** 3
        assert success_probability(cfg) == pytest.approx(expected, rel=1e-12)
        assert herald(cfg).statistics.probabilities.tolist() == [1.0]

    def test_success_probability_matches_herald_field(self):
        cfg = config(car=15.0, clicks=1, mu_h=0.8)
        assert herald(cfg).success_probability == success_probability(cfg)

    def test_single_photon_success_near_optimum(self):
        cfg = config(car=15.0, clicks=1, mu_h=1.0)
        assert herald(cfg).success_probability == pytest.approx(0.068, abs=0.003)

    def test_statistics_normalized(self):
        for clicks in range(5):
            heralded = herald(config(car=8.0, clicks=clicks, mu_h=0.5))
            assert abs(heralded.statistics.probabilities.sum() - 1.0) <= 1e-10

    # HeraldConfig is a plain tuple; each function that reads it checks the click count
    CLICK_USERS = (herald, success_probability, lambda cfg: report(cfg, LossChannel(0.7), 1))

    def test_click_count_bound(self):
        cfg = HeraldConfig(TwinBeamSource(0.5), detector(0.5), 5)
        for use in self.CLICK_USERS:
            with pytest.raises(ValueError, match=r"^click count 5 outside 0\.\.4$"):
                use(cfg)

    def test_click_count_must_be_an_integer(self):
        for clicks in (1.5, 1.0, True):
            cfg = HeraldConfig(TwinBeamSource(0.5), detector(0.5), clicks)
            for use in self.CLICK_USERS:
                with pytest.raises(
                    ValueError, match=f"^click count must be an integer, got {clicks!r}$"
                ):
                    use(cfg)
        cfg = HeraldConfig(TwinBeamSource(0.5), detector(0.5), np.int64(1))
        for use in self.CLICK_USERS:
            use(cfg)


class TestHeraldOutcomePartition:
    @pytest.mark.parametrize(
        "nbar,mu_h,nu",
        [(0.25, 0.6, 5e-4), (1.0, 1.0, 0.0), (0.05, 0.3, 0.01)],
    )
    def test_outcomes_partition_probability(self, nbar, mu_h, nu):
        source = TwinBeamSource(nbar)
        det = detector(mu_h, nu=nu)
        total = sum(
            success_probability(HeraldConfig(source, det, k)) for k in range(5)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


class TestPhotonNumberResolvingLimit:
    def test_large_array_approaches_fock_one(self):
        det = ClickDetectorArray(efficiency=1.0, num_detectors=64, dark_count_prob=0.0)
        cfg = HeraldConfig(nbar_from_car(100.0), det, 1)
        heralded = herald(cfg)
        assert heralded.statistics.probabilities[1] > 0.99


class TestWeightsOnlyDependence:
    def test_herald_uses_only_the_weight_vector(self):
        # regression guard: reconstructing from the published weights must be
        # bit-identical, so any detector with equal weights gives equal output
        cfg = config(car=12.0, clicks=2, mu_h=0.7)
        heralded = herald(cfg)
        thermal = thermal_distribution(cfg.source, cfg.trunc)
        weights = povm_diagonal(cfg.detector, cfg.clicks, thermal.n_max)
        unnormalized = weights * thermal.probabilities
        manual = unnormalized / unnormalized.sum()
        assert np.array_equal(heralded.statistics.probabilities, manual)
        assert heralded.success_probability == float(unnormalized.sum())

    def test_single_click_enriches_photon_number(self):
        cfg = config(car=15.0, clicks=1, mu_h=1.0)
        assert mean(herald(cfg).statistics) > mean(thermal_distribution(cfg.source))
