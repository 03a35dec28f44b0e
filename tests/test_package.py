"""The package exports each library module's ``__all__``, once and unshadowed."""

import heraldstats
from heraldstats import detector, fock, heralding, loss, merit, sweep

EXPORTED = {
    "ClickDetectorArray", "povm_diagonal", "povm_weight",
    "DEFAULT_TAIL_EPSILON", "TRUNCATION_CAP", "PhotonStatistics", "Truncation",
    "TruncationCapError", "TwinBeamSource", "car_from_source", "factorial_moment", "mean",
    "nbar_from_car", "thermal_distribution",
    "HeraldConfig", "HeraldedState", "ImpossibleHeraldError", "herald", "success_probability",
    "LossChannel", "apply_loss",
    "FigureOfMeritReport", "NonConvergentSeriesError", "cross_correlation", "dark_count_ratio",
    "fidelity", "g_factorial", "parity_direct", "parity_from_moments", "report",
    "COLUMNS", "FOM_NAMES", "SweepAxis", "find_optimum", "run_sweep", "threshold_region",
}


def test_each_module_name_is_exported_once():
    assert len(heraldstats.__all__) == len(set(heraldstats.__all__))
    # a name two modules export would leave the package holding only the later one
    for module in (detector, fock, heralding, loss, merit, sweep):
        for name in module.__all__:
            assert getattr(heraldstats, name) is getattr(module, name), (module.__name__, name)
    assert set(heraldstats.__all__) == EXPORTED
