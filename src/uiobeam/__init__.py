"""Delay-tolerant unknown-input observer design and prediction-driven
zero-forcing mmWave beamforming for a UAV network.

The library is organized around the pipeline: simulate the network truth
(:mod:`uiobeam.dynamics`), design observer gains via semidefinite
feasibility (:mod:`uiobeam.design`), run the observer online
(:mod:`uiobeam.observer`), and drive the beamformer from the predicted
angular positions (:mod:`uiobeam.beamforming`). :mod:`uiobeam.simulate` and
:mod:`uiobeam.cli` reproduce the reference experiments.
"""

__version__ = "0.1.0"

from .beamforming import ArrayConfig, beam_pattern, beamformer
from .design import LmiProblem, ObserverGains, critical_dt, design, gain_point_feasible
from .dynamics import MeasurementModel, UavScenario
from .errors import (
    BracketError,
    ConditioningError,
    ConfigError,
    DegenerateGeometryError,
    InfeasibleError,
    NumericalError,
    ShapeError,
    SingularMatrixError,
    UiobeamError,
)
