"""Single-excitation transport on disordered nearest-neighbour coupler rings.

Build a ring motif out of 2x2 coupler blocks, sprinkle random phase layers
over it in one of four patterns, propagate an excitation, and ask whether the
output profile spreads like a Gaussian or pins down exponentially.
"""

from .analysis import classify
from .network import MotifParams, Scenario, compose
from .simulate import propagate, run_ensemble

__version__ = "0.1.0"

__all__ = [
    "MotifParams",
    "Scenario",
    "classify",
    "compose",
    "propagate",
    "run_ensemble",
]
