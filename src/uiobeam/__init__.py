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

from .beamforming import (
    ArrayConfig,
    BeamformerMatrix,
    ChannelRealization,
    LinkReport,
    beam_pattern,
    beamformer,
    link_report,
)
from .design import (
    LmiProblem,
    LmiSolution,
    ObserverGains,
    assemble_lmi_blocks,
    critical_dt,
    design,
    diagonal_feasible,
    feasible,
    gain_point_feasible,
    mu_feasible,
)
from .dynamics import (
    MeasurementModel,
    UavScenario,
    initial_state,
    scenario_inputs,
    simulate_truth,
)
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
from .linalg import (
    DefinitenessReport,
    check_definiteness,
    eig_sym_bounds,
    pinv_full_col_rank,
    row_norms,
    solve_hermitian,
)
from .observer import (
    BoundMonitor,
    estimate_input,
    input_pinv,
    predict,
    track,
)
from .config import RunConfig, config_hash, parse_config
