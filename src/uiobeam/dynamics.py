"""Ground-truth planar kinematics of the UAV network.

State is the stacked position vector X = [x_1, y_1, ..., x_N, y_N] in
metres. Each UAV advances by

    u_{k+1} = u_k + dT_i * v_{i,k} + d_{i,k}

with v the nominal velocity (m/s) and d a position-level perturbation (m).
The lumped unknown input seen by the observer is W = V + B_T^{-1} Lambda,
where B_T = diag(dT_1, dT_1, ..., dT_N, dT_N). B_T and the measurement
scaling D are diagonal and are carried as (2N,) vectors of their diagonals,
so every product with them is elementwise.

The reference scenario flies N UAVs on circles of radius R_i about the
central UAV with angular rate omega, perturbed by a faster sinusoid of
amplitude R_i*omega*perturbation_ratio. The inputs are closed-form in the
step index, so they are built for all (step, UAV) at once as (horizon, 2N)
arrays; only the position accumulation loops over steps. Everything is
deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class UavScenario:
    """Geometry and timing of the orbiting UAV fleet.

    radii, phases, dt are per-UAV arrays of length N; center is the fixed
    position of the central UAV. perturbation_ratio scales the sinusoidal
    perturbation amplitude relative to R_i*omega (0 disables it);
    perturbation_rate_multiple is its rate relative to omega.
    """

    radii: np.ndarray
    omega: float
    phases: np.ndarray
    center: np.ndarray
    dt: np.ndarray
    perturbation_ratio: float = 0.2
    perturbation_rate_multiple: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "radii", np.atleast_1d(np.asarray(self.radii, float)))
        object.__setattr__(self, "phases", np.atleast_1d(np.asarray(self.phases, float)))
        object.__setattr__(self, "center", np.asarray(self.center, float).reshape(2))
        object.__setattr__(self, "dt", np.atleast_1d(np.asarray(self.dt, float)))
        n = self.radii.size
        if n < 1:
            raise ShapeError("radii needs at least one entry")
        for name, size in (("phases", self.phases.size), ("dt", self.dt.size)):
            if size != n:
                raise ShapeError(f"{name} needs {n} entries, one per radius, got {size}")
        if not np.all(self.radii > 0):
            raise ShapeError("radii must be positive")
        if not np.all(self.dt > 0):
            raise ShapeError("dt must be positive")
        if self.perturbation_ratio < 0:
            raise ShapeError("perturbation_ratio must be non-negative")

    @classmethod
    def evenly_phased(cls, radii, omega, dt, center=(0.0, 0.0), **kwargs):
        """Spread N UAVs evenly in phase: phi_i = 2*pi*(i-1)/N."""
        radii = np.atleast_1d(np.asarray(radii, float))
        n = radii.size
        phases = 2.0 * np.pi * np.arange(n) / n
        dt = np.full(n, dt, dtype=float) if np.isscalar(dt) else np.asarray(dt, float)
        return cls(radii=radii, omega=omega, phases=phases, center=center, dt=dt, **kwargs)

    @property
    def n_uavs(self):
        return self.radii.size

    @property
    def b_t_diag(self):
        """Diagonal of B_T: each dT_i repeated for the x and y coordinates."""
        return np.repeat(self.dt, 2)


@dataclass(frozen=True)
class MeasurementModel:
    """Measurement map Y = X + D W; d is the (2N,) diagonal of D."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, float)
        if d.ndim != 1:
            raise ShapeError(f"D must be given as its diagonal vector, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ShapeError("D contains non-finite entries")
        object.__setattr__(self, "d", d)

    @classmethod
    def scaled_identity(cls, n_uavs, scale):
        return cls(d=np.full(2 * n_uavs, float(scale)))


def initial_state(scenario):
    """Stacked start positions (2N,): UAV i at center + R_i [sin phi_i, cos phi_i],
    the point whose tangent matches the nominal velocity profile, so the
    unperturbed path orbits the central UAV."""
    offsets = np.column_stack(
        [scenario.radii * np.sin(scenario.phases), scenario.radii * np.cos(scenario.phases)]
    )
    return (scenario.center + offsets).reshape(-1)


def scenario_inputs(scenario, horizon):
    """Inputs driving the network at steps 0..horizon-1, each (horizon, 2N):
    nominal velocity V (m/s), position perturbation Lambda (m) and the lumped
    input W = V + Lambda / dT.

    UAV i flies at R_i*omega*[cos(omega*dT_i*k + phi_i), -sin(...)] and is
    perturbed with amplitude R_i*omega*perturbation_ratio at
    perturbation_rate_multiple times the orbital rate.
    """
    k = np.arange(horizon)[:, None]

    def sinusoid(amplitude, rate):
        arg = rate * k + scenario.phases
        return np.stack([amplitude * np.cos(arg), amplitude * -np.sin(arg)], axis=-1)

    speed = scenario.radii * scenario.omega
    v = sinusoid(speed, scenario.omega * scenario.dt).reshape(horizon, -1)
    lam = sinusoid(
        speed * scenario.perturbation_ratio,
        scenario.perturbation_rate_multiple * scenario.omega * scenario.dt,
    ).reshape(horizon, -1)
    return v, lam, v + lam / scenario.b_t_diag


def simulate_truth(scenario, model, horizon):
    """Roll the truth forward ``horizon`` steps:
    X_{k+1} = X_k + B_T V_k + Lambda_k and Y_k = X_k + D W_k.

    Returns (X, W, Y): X has shape (horizon+1, 2N) with X[k] the state at
    step k; W and Y have shape (horizon, 2N) holding the input applied at
    step k and the measurement taken at step k.
    """
    n2 = 2 * scenario.n_uavs
    if model.d.size != n2:
        raise ShapeError(f"D size {model.d.size} != state length {n2}")
    v, lam, ws = scenario_inputs(scenario, horizon)
    bv = scenario.b_t_diag * v
    xs = np.empty((horizon + 1, n2))
    xs[0] = initial_state(scenario)
    for k in range(horizon):
        xs[k + 1] = xs[k] + bv[k] + lam[k]
    if not np.all(np.isfinite(xs)):
        raise ShapeError("state contains non-finite entries")
    return xs, ws, xs[:-1] + ws * model.d
