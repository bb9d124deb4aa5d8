"""Lie/Strang splitting integrator for i u_t + Lap u + 2 lam u ln(|u| + eps) = 0.

Both substeps are exactly solvable: the free flow by Fourier symbol and the
nonlinearity by a modulus-preserving phase rotation, so every step conserves
mass to roundoff. `march` is the only loop that advances the splitting; every
other entry point consumes the (t, field) samples it yields.

Inside `march`:
- Dirichlet state lives on the doubled periodic grid for the whole run. The
  rotation depends on |u| only, so it keeps the odd symmetry of the
  extension; the state is restricted to the half grid only when sampled.
- The free-flow symbol is cached per (geometry, dt) in `spectral`.
- Strang's adjacent half-rotations are merged: the running state w satisfies
  u_k = N(dt/2) w_k and advances by w_{k+1} = F(dt) N(dt) w_k. A sample
  applies the closing half-rotation to a copy, so the state, and hence every
  result, does not depend on which steps are sampled.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from . import nonlinearity
from .diagnostics import DiagnosticsRecord, l2_distance, measure
from .geometry import Field, GeometryError, GridGeometry, odd_extension, restrict_to_half
from .spectral import free_propagator

__all__ = [
    "SimConfig",
    "Trajectory",
    "IntegrationError",
    "march",
    "step",
    "evolve",
    "evolve_pair",
    "eps_continuation",
    "lockstep_distances",
]

_MAX_STEPS = 10**8


class IntegrationError(RuntimeError):
    """Raised when a run produces non-finite samples or an invalid schedule."""


@dataclass(frozen=True)
class SimConfig:
    """Physical and numerical parameters of one run."""

    lam: float
    eps: float
    dt: float
    t_final: float
    geometry: GridGeometry
    splitting: str = "strang"
    record_every: int = 1
    hs_values: tuple[float, ...] = ()
    snapshot_every: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "hs_values", tuple(float(s) for s in self.hs_values))
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.dt == 0 or not math.isfinite(self.dt):
            raise ValueError(f"dt must be nonzero finite, got {self.dt}")
        if self.t_final == 0 or self.t_final * self.dt < 0:
            raise ValueError("t_final must be nonzero with the same sign as dt")
        if abs(self.dt) > abs(self.t_final):
            raise ValueError("dt must not exceed t_final")
        if self.splitting not in ("lie", "strang"):
            raise ValueError(f"splitting must be 'lie' or 'strang', got {self.splitting!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.record_every * abs(self.dt) > abs(self.t_final) + abs(self.dt) / 2:
            raise ValueError("record_every * dt must not exceed t_final")
        for s in self.hs_values:
            if not 0.0 < s <= 1.0:
                raise ValueError(f"tracked h^s exponents must lie in (0, 1], got {s}")
        if abs(self.t_final / self.dt) > _MAX_STEPS:
            raise ValueError(f"t_final/dt exceeds the {_MAX_STEPS} step limit")

    @property
    def n_steps(self) -> int:
        n = round(self.t_final / self.dt)
        if n == 0 or not math.isclose(n * self.dt, self.t_final, rel_tol=1e-9):
            raise ValueError("t_final is not an integer multiple of dt")
        return n

    @property
    def record_steps(self) -> list[int]:
        """Diagnostic sample steps: 0, every record_every-th step, and the last."""
        return _strided(self.record_every, self.n_steps)


def _strided(every: int | None, n: int) -> list[int]:
    return sorted({*range(0, n + 1, every), n}) if every else []


@dataclass
class Trajectory:
    """Result of one run: diagnostics on the sample schedule plus snapshots."""

    config: SimConfig
    records: list[DiagnosticsRecord] = dataclass_field(default_factory=list)
    snapshots: list[tuple[float, Field]] = dataclass_field(default_factory=list)


def march(datum: Field, config: SimConfig, steps: Iterable[int]) -> Iterator[tuple[float, Field]]:
    """Advance the splitting, yielding (t, u(t)) at each requested step index.

    `steps` must be nondecreasing and within [0, n_steps]; the run stops at the
    last of them. Yielded fields are fresh arrays the caller may keep.
    """
    if datum.geometry != config.geometry:
        raise GeometryError("datum geometry does not match the configuration")
    if not np.all(np.isfinite(datum.data)):
        raise IntegrationError("initial datum contains non-finite samples")
    lam, eps, dt, n = config.lam, config.eps, config.dt, config.n_steps
    strang = config.splitting == "strang"
    dirichlet = datum.geometry.is_dirichlet
    state = odd_extension(datum) if dirichlet else datum.copy()

    i = 0
    for target in steps:
        if not i <= target <= n:
            raise ValueError(f"sample steps must be nondecreasing within [0, {n}], got {target}")
        while i < target:
            i += 1
            tau = dt / 2.0 if strang and i == 1 else dt
            rotated = Field(state.geometry, nonlinearity.phase_flow(state.data, lam, eps, tau))
            state = free_propagator(rotated, dt)
            if not np.all(np.isfinite(state.data)):
                finite_max = float(np.max(np.abs(np.nan_to_num(state.data))))
                raise IntegrationError(
                    f"non-finite sample at step {i} (t={i * dt:g}); "
                    f"max finite |u| = {finite_max:g}"
                )
        sample = state
        if strang and i > 0:
            sample = Field(state.geometry, nonlinearity.phase_flow(state.data, lam, eps, dt / 2.0))
        if dirichlet:
            sample = restrict_to_half(sample)
        elif sample is state:
            sample = state.copy()
        yield i * dt, sample


def final_state(datum: Field, config: SimConfig) -> Field:
    """Endpoint of the run, skipping all diagnostics."""
    [(_, end)] = march(datum, config, [config.n_steps])
    return end


def step(field: Field, config: SimConfig) -> Field:
    """One splitting step of size config.dt."""
    return final_state(field, replace(config, t_final=config.dt, record_every=1))


def evolve(datum: Field, config: SimConfig) -> Trajectory:
    """Iterate the splitting to t_final, recording diagnostics on the schedule.

    Records are taken on `config.record_steps`; snapshots, if snapshot_every
    is set, at every snapshot_every-th step and the final step. Deterministic
    given (datum, config).
    """
    records = set(config.record_steps)
    snapshots = set(_strided(config.snapshot_every, config.n_steps))
    steps = sorted(records | snapshots)
    traj = Trajectory(config)
    for i, (t, u) in zip(steps, march(datum, config, steps)):
        if i in records:
            traj.records.append(measure(u, t, config.lam, config.eps, config.hs_values))
        if i in snapshots:
            traj.snapshots.append((t, u))
    return traj


def lockstep_distances(
    runs: list[Iterator[tuple[float, Field]]],
) -> list[list[tuple[float, float]]]:
    """(t, L^2 distance) series between each consecutive pair of runs.

    The runs (`march` iterators on a shared sample schedule) advance in
    lockstep, so only one sample per run is held at a time.
    """
    series: list[list[tuple[float, float]]] = [[] for _ in runs[1:]]
    for samples in zip(*runs):
        for out, ((t, u), (_, v)) in zip(series, zip(samples, samples[1:])):
            out.append((t, l2_distance(u, v)))
    return series


def evolve_pair(datum_a: Field, datum_b: Field, config: SimConfig) -> list[tuple[float, float]]:
    """L^2 distance between the runs of two data on the record schedule."""
    if datum_a.geometry != datum_b.geometry:
        raise GeometryError("paired data must share a geometry")
    steps = config.record_steps
    [distances] = lockstep_distances([march(datum_a, config, steps), march(datum_b, config, steps)])
    return distances


def eps_continuation(
    datum: Field, config: SimConfig, eps_sequence: list[float]
) -> list[tuple[tuple[float, float], float]]:
    """Sup-in-time L^2 distance between runs at consecutive regularizations.

    eps_sequence must be strictly decreasing and positive; "sup in time" means
    the maximum over the diagnostic sample times.
    """
    if any(e <= 0 for e in eps_sequence):
        raise ValueError("eps_sequence entries must be positive")
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps_sequence must be strictly decreasing")

    steps = config.record_steps
    series = lockstep_distances([march(datum, replace(config, eps=e), steps) for e in eps_sequence])
    sups = [max(d for _, d in distances) for distances in series]
    return list(zip(zip(eps_sequence, eps_sequence[1:]), sups))
