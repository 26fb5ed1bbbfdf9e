"""The package-level names: what the demos, the README and the error contract
import from ``uiobeam``, and nothing else."""

import importlib
import inspect

import uiobeam

PUBLIC = {
    # imported by the demos and the README's code blocks
    "ArrayConfig",
    "beam_pattern",
    "beamformer",
    "LmiProblem",
    "ObserverGains",
    "critical_dt",
    "design",
    "gain_point_feasible",
    "MeasurementModel",
    "UavScenario",
    "InfeasibleError",
    # the rest of the README's exit-code table
    "BracketError",
    "ConditioningError",
    "ConfigError",
    "DegenerateGeometryError",
    "NumericalError",
    "ShapeError",
    "SingularMatrixError",
    "UiobeamError",
}


def test_package_exports_only_the_public_names():
    names = {name for name, value in vars(uiobeam).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC
    assert uiobeam.__version__


def test_package_design_is_the_design_function():
    # the function shadows its module's name in the package namespace
    assert uiobeam.design is importlib.import_module("uiobeam.design").design
