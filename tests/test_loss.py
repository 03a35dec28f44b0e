import sys
import threading

import numpy as np
import pytest

from heraldstats import (
    LossChannel,
    PhotonStatistics,
    Truncation,
    TwinBeamSource,
    apply_loss,
    factorial_moment,
    mean,
    thermal_distribution,
)
from heraldstats.loss import _loss_row, _lossy_weights


def thermal(nbar, n_max=None):
    trunc = Truncation() if n_max is None else Truncation.fixed(n_max)
    return thermal_distribution(TwinBeamSource(nbar), trunc)


class TestApplyLoss:
    def test_unit_efficiency_is_identity(self):
        stats = thermal(0.4)
        assert apply_loss(LossChannel(1.0), stats) is stats

    def test_zero_efficiency_gives_vacuum(self):
        out = apply_loss(LossChannel(0.0), thermal(0.4))
        assert out.probabilities[0] == 1.0
        assert out.n_max == thermal(0.4).n_max

    def test_fock_two_half_loss(self):
        out = apply_loss(LossChannel(0.5), PhotonStatistics.fock(2))
        np.testing.assert_allclose(out.probabilities, [0.25, 0.5, 0.25], atol=1e-14)

    def test_keeps_cutoff(self):
        stats = thermal(0.7)
        assert apply_loss(LossChannel(0.3), stats).n_max == stats.n_max

    def test_stochasticity(self):
        for mu in (0.1, 0.5, 0.9):
            for stats in (thermal(0.5), PhotonStatistics.fock(6, 10)):
                out = apply_loss(LossChannel(mu), stats)
                assert abs(out.probabilities.sum() - 1.0) <= 1e-12

    def test_semigroup_composition(self):
        for stats in (thermal(0.5), PhotonStatistics.fock(3, 8)):
            once = apply_loss(LossChannel(0.8 * 0.5), stats)
            twice = apply_loss(LossChannel(0.8), apply_loss(LossChannel(0.5), stats))
            np.testing.assert_allclose(
                twice.probabilities, once.probabilities, atol=1e-10
            )

    def test_mean_scaling(self):
        for mu in (0.2, 0.7):
            for stats in (thermal(1.2), PhotonStatistics.fock(4, 9)):
                out = apply_loss(LossChannel(mu), stats)
                assert mean(out) == pytest.approx(mu * mean(stats), abs=1e-10)

    def test_factorial_moment_scaling(self):
        for mu in (0.3, 0.8):
            stats = thermal(0.6)
            out = apply_loss(LossChannel(mu), stats)
            for order in (2, 3):
                assert factorial_moment(out, order) == pytest.approx(
                    mu**order * factorial_moment(stats, order), rel=1e-8
                )

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            LossChannel(1.5)
        with pytest.raises(ValueError):
            LossChannel(-0.2)


class TestLossyWeightsExactPrefix:
    """Loss rows and parity weights at a smaller cutoff are an exact prefix of a larger one's."""

    @staticmethod
    def cases(seed, count=200):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            mu = 1.0 if rng.uniform() < 0.1 else float(rng.uniform())
            target = int(rng.integers(0, 5))
            short, long = sorted(int(cutoff) for cutoff in rng.integers(0, 4001, size=2))
            yield mu, target, short, long

    @staticmethod
    def fresh(mu, target, n_max):
        # parity weights: the running product 1, b, b^2, ... with b = 1 - 2 mu
        parity = np.cumprod(np.concatenate([[1.0], np.full(n_max, 1.0 - 2.0 * mu)]))
        return np.stack([_loss_row(mu, target, n_max), parity])

    def test_short_after_long_is_an_exact_prefix(self):
        for mu, target, short, long in self.cases(1):
            full = _lossy_weights(mu, target, long)
            assert not full.flags.writeable
            weights = _lossy_weights(mu, target, short)
            assert not weights.flags.writeable
            assert np.array_equal(full[:, : short + 1], weights), (mu, target, short, long)
            assert np.array_equal(weights, self.fresh(mu, target, short)), (mu, target, short)

    def test_long_after_short_is_computed_whole(self):
        for mu, target, short, long in self.cases(2):
            _lossy_weights(mu, target, short)
            weights = _lossy_weights(mu, target, long)
            assert weights.shape == (2, long + 1)
            assert not weights.flags.writeable
            assert np.array_equal(weights, self.fresh(mu, target, long)), (mu, target, long)

    def test_concurrent_requests_get_exact_results(self):
        cutoffs = np.tile(np.arange(400), (8, 1))
        expected = self.fresh(0.45, 2, int(cutoffs.max()))
        failures = []

        def worker(row):
            for n_max in row:
                weights = _lossy_weights(0.45, 2, int(n_max))
                if not np.array_equal(weights, expected[:, : n_max + 1]):
                    failures.append(int(n_max))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(row,)) for row in cutoffs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
