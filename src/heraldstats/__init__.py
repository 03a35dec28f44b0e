"""Heralded photon-number states from single-mode twin beams.

Simulates heralding single-, two- and three-photon states on a k-click
outcome of an N-detector click array, propagates the heralded state through
signal-arm loss, evaluates the figures of merit (fidelity, g^(2), g^(3),
success probability, photon-number parity, loss-corrected mean), and sweeps
the experimentally accessible knobs (CAR, heralding efficiency, signal
efficiency) to locate high-quality preparation regions.

The package exports each library module's ``__all__``, which is the one
place a public name is declared.
"""

from . import detector, fock, heralding, loss, merit, sweep
from .detector import *
from .fock import *
from .heralding import *
from .loss import *
from .merit import *
from .sweep import *

__version__ = "0.1.0"

__all__ = []
__all__ += detector.__all__
__all__ += fock.__all__
__all__ += heralding.__all__
__all__ += loss.__all__
__all__ += merit.__all__
__all__ += sweep.__all__
