"""Lie/Strang splitting integrator for i u_t + Lap u + 2 lam u ln(|u| + eps) = 0.

Both substeps are exactly solvable: the free flow by Fourier symbol and the
nonlinearity by a modulus-preserving phase rotation, so every step conserves
mass to roundoff. `march` is the only loop that advances the splitting; every
other entry point consumes the (t, fields) samples it yields. `samples` turns
one run's samples into records and snapshots; `evolve` keeps them all, while
`logns simulate` writes each snapshot as it arrives.

Inside `march`:
- The state is one complex array of shape (B, *points) holding B runs of one
  config, each with its own eps, filled run by run. A step rotates it in
  place through two preallocated buffers, |u| and the phase
  (`nonlinearity.phase_flow`), and runs the FFT pair in place over the
  trailing axes, through numpy's pocketfft gufuncs called directly
  (`spectral.free_propagator`); `Field`s are built only at samples.
  The state and both buffers share one allocation, and they and the cached
  symbol start on 64-byte boundaries (`spectral.aligned_empty`).
- Dirichlet state lives on the doubled periodic grid for the whole run. The
  rotation depends on |u| only, so it keeps the odd symmetry of the
  extension, and its phase is even in the last axis: it is computed on
  planes 0..n of the 2n and mirrored onto planes n+1..2n-1. That mirror is
  the only step work particular to Dirichlet grids.
- The free-flow symbol is cached per (geometry, dt) in `spectral`.
- The state a step leaves is checked for non-finite samples before the next
  rotation touches it or before a sample, whichever comes first, through one
  reduction: on periodic grids the max of the rotation's |u|, on Dirichlet
  grids, whose |u| covers planes 0..n only, the sum of the whole state. The
  full scan runs only where that reduction is not finite; it names the bad
  sample, or passes where the reduction overflowed on finite data. A sample
  is checked by the sum of the state before it is copied, and again after
  Strang's closing half-rotation of the copy. The steps and the sample hold
  numpy's overflow and invalid warnings: their faults raise IntegrationError
  naming the step and the run.
- A sample is a copy of the state; on Dirichlet grids, of its first n planes
  with plane 0 set to 0, after one antisymmetry check of the whole batch
  (`geometry._antisymmetry_fault`, the rule of `restrict_to_half`). A state
  that is not odd raises IntegrationError naming the step and the run.
- Strang's adjacent half-rotations are merged: the running state w satisfies
  u_k = N(dt/2) w_k and advances by w_{k+1} = F(dt) N(dt) w_k. A sample
  applies the closing half-rotation, one batched rotation over (B, *points),
  to its copy of w, so the state, and hence every result, does not depend on
  which steps are sampled. It runs the step's kernels in the step's own
  buffers, on every grid: their leading (B, *points) elements.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .diagnostics import DiagnosticsRecord, NonFiniteRecordError, l2_distance, measure
from .geometry import Field, GeometryError, GridGeometry, _antisymmetry_fault, odd_extension
from .nonlinearity import check_eps, phase_flow
from .schema import Key, check, choice, integer, ladder, list_of, number
from .spectral import aligned_empty, free_propagator, free_symbol

__all__ = [
    "SimConfig",
    "Trajectory",
    "IntegrationError",
    "march",
    "step",
    "samples",
    "evolve",
    "evolve_pair",
    "eps_continuation",
    "lockstep_distances",
]

_MAX_STEPS = 10**8

# the keys of a config's `sim` section, which build a SimConfig with its geometry
SIM_KEYS = {
    "lambda": Key(True, number(), "lam"),
    "eps": Key(True, number(lo=0.0)),
    "dt": Key(True, number()),
    "t_final": Key(True, number()),
    "splitting": Key(False, choice("lie", "strang")),
    "record_every": Key(False, integer(lo=1)),
    "hs_values": Key(False, list_of(number(lo=0.0, hi=1.0, open_lo=True))),
    "snapshot_every": Key(False, integer(lo=1)),
}
# the regularizations of `eps_continuation`, as a config's `eps_sequence` gives them
EPS_LADDER = ladder(decreasing=True)


class IntegrationError(RuntimeError):
    """Raised when a run produces non-finite samples.

    `step`, `time` and `run` locate the failure: the step index, its time and
    the index of the failing run in the batch. All three are None when the
    datum itself is non-finite.
    """

    def __init__(self, message: str, step: int | None = None, time: float | None = None,
                 run: int | None = None):
        super().__init__(message)
        self.step, self.time, self.run = step, time, run


@dataclass(frozen=True)
class SimConfig:
    """Physical and numerical parameters of one run, as SIM_KEYS accepts them."""

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
        check(self, SIM_KEYS)
        if self.dt == 0:
            raise ValueError(f"dt must be nonzero finite, got {self.dt}")
        if not self.geometry.top_symbol_rate * abs(self.dt) < math.inf:
            raise ValueError(f"dt {self.dt:g} overflows the free symbol's phase "
                             "4 pi^2 |n/L|^2 dt at the grid's highest mode")
        if self.t_final == 0 or self.t_final * self.dt < 0:
            raise ValueError("t_final must be nonzero finite with the same sign as dt")
        if abs(self.dt) > abs(self.t_final):
            raise ValueError("dt must not exceed t_final")
        if self.record_every * abs(self.dt) > abs(self.t_final) + abs(self.dt) / 2:
            raise ValueError("record_every * dt must not exceed t_final")
        if abs(self.t_final / self.dt) > _MAX_STEPS:
            raise ValueError(f"t_final/dt exceeds the {_MAX_STEPS} step limit")
        if not math.isclose(self.n_steps * self.dt, self.t_final, rel_tol=1e-9):
            raise ValueError("t_final is not an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    @property
    def record_steps(self) -> list[int]:
        """Diagnostic sample steps: 0, every record_every-th step, and the last."""
        return list(_strided(self.n_steps, self.record_every))


def _strided(n: int, *everies: int | None) -> Iterator[int]:
    """The steps 0, n and the multiples of each `every` between them,
    ascending, each once; an `every` of None adds none."""
    i = 0
    while i < n:
        yield i
        i = min([n, *((i // every + 1) * every for every in everies if every)])
    yield n


def _on(every: int | None, n: int, i: int) -> bool:
    """Whether step i is one of _strided(n, every)."""
    return bool(every) and (i % every == 0 or i == n)


@dataclass
class Trajectory:
    """Result of one run: diagnostics on the sample schedule plus snapshots."""

    config: SimConfig
    records: list[DiagnosticsRecord] = dataclass_field(default_factory=list)
    snapshots: list[tuple[float, Field]] = dataclass_field(default_factory=list)


def march(
    data: Sequence[Field], config: SimConfig, steps: Iterable[int],
    eps: Sequence[float] | None = None,
) -> Iterator[tuple[float, list[Field]]]:
    """Advance B runs of `config` in lockstep, yielding (t, [u_1(t), ..., u_B(t)])
    at each requested step index.

    Run k starts from data[k] with regularization eps[k] (config.eps for every
    run by default). Each run gets bit for bit what it would get alone.
    `steps` must be nondecreasing and within [0, n_steps]; the run stops at
    the last of them. They are read one at a time, as the run reaches each,
    so a generator of steps is never held whole, and a step out of order
    raises ValueError when it is read. Yielded fields are fresh arrays the
    caller may keep. The data are copied into the state when the first
    sample is computed and not held after that fill, so data the caller does
    not keep are freed.
    A run whose state or sample turns non-finite, or on a Dirichlet grid
    stops being odd, raises IntegrationError naming the step and the run.
    """
    geometry, lam, dt, n = config.geometry, config.lam, config.dt, config.n_steps
    if any(u.geometry != geometry for u in data):
        raise GeometryError("datum geometry does not match the configuration")
    eps = [config.eps] * len(data) if eps is None else list(eps)
    if len(eps) != len(data):
        raise ValueError(f"need one eps per run, got {len(eps)} for {len(data)} runs")
    check_eps(eps)

    strang = config.splitting == "strang"
    dirichlet = geometry.is_dirichlet
    grid = geometry.transform_grid()
    # the rotation acts on `planes`, the whole state on periodic grids. On
    # Dirichlet grids |u|, hence the phase, is even in the last axis: it is
    # computed on planes 0..n, and plane 2n - j takes the phase of plane j
    n_half = geometry.points[-1]
    shape = (len(data), *grid.points)
    half = shape[:-1] + (n_half + 1,) if dirichlet else shape
    state, modulus, phase = aligned_empty((shape, complex), (half, float), (half, complex))
    planes = state[..., : n_half + 1] if dirichlet else state
    mirrored = state[..., n_half + 1 :]  # used on Dirichlet grids only
    for run, u in zip(state, data):
        run[...] = odd_extension(u).data if dirichlet else u.data
    data = u = None  # the state holds the data: a caller that drops them frees them
    if not np.isfinite(state).all():
        raise IntegrationError("initial datum contains non-finite samples")
    mask_zeros = min(eps) == 0.0
    eps = np.reshape(eps, (-1,) + (1,) * geometry.dim)
    symbol = free_symbol(grid, dt)
    run_points = math.prod(geometry.points)
    closing = 2.0 * lam * (dt / 2.0)  # coefficient of Strang's closing half-rotation

    i = checked = 0  # checked: the last step whose state was checked in full
    for target in steps:
        if not i <= target <= n:
            raise ValueError(f"sample steps must be nondecreasing within [0, {n}], got {target}")
        # an overflow or nan of the steps or of the sample surfaces as the
        # finiteness checks' IntegrationError, not as numpy's warning; the
        # guard closes before a yield
        with np.errstate(over="ignore", invalid="ignore"):
            while i < target:
                i += 1
                coeff = 2.0 * lam * (dt / 2.0 if strang and i == 1 else dt)
                # the state the previous step left is checked before the rotation
                # touches it, in full only where one reduction is not finite: the
                # max of |u| on periodic grids (the ufunc's reduce, without
                # ndarray.max's Python wrapper), the sum of the state on Dirichlet
                # grids, whose |u| covers planes 0..n only
                np.abs(planes, out=modulus)
                if checked != i - 1 and not math.isfinite(
                        float(state.view(float).sum()) if dirichlet
                        else np.maximum.reduce(modulus, axis=None)):
                    _check_finite(state, i - 1, dt)
                phase_flow(modulus, coeff, eps, phase, run_points, mask_zeros)
                planes *= phase
                if dirichlet:
                    np.multiply(mirrored, phase[..., n_half - 1 : 0 : -1], out=mirrored)
                free_propagator(state, symbol)
            _check_finite(state, i, dt)  # the last step before a sample
            checked = i
            if dirichlet:  # the batch's restriction to the half grid, one check for all
                fault = _antisymmetry_fault(state)
                if fault is not None:
                    k, residual = fault
                    raise IntegrationError(
                        f"sample at step {i} (t={i * dt:g}) in run {k} of {len(state)} is "
                        f"not antisymmetric in the last axis (residual {residual:.3e})",
                        step=i, time=i * dt, run=k)
                sample = state[..., :n_half].copy()
                sample[..., 0] = 0.0
            else:
                sample = state.copy()
            if strang and i > 0:  # in the leading elements of the step's buffers
                m, p = (b.ravel()[: sample.size].reshape(sample.shape) for b in (modulus, phase))
                np.abs(sample, out=m)
                phase_flow(m, closing, eps, p, run_points, mask_zeros)
                sample *= p
                _check_finite(sample, i, dt)
        yield i * dt, [Field(geometry, u) for u in sample]


def _check_finite(state: np.ndarray, i: int, dt: float) -> None:
    """Raise an IntegrationError naming the first run whose state after step i
    holds a non-finite sample. A finite sum of every real and imaginary part
    proves them all finite; the full scan runs only where the sum is not."""
    if math.isfinite(float(state.view(float).sum())) or np.isfinite(state).all():
        return
    k = next(k for k, u in enumerate(state) if not np.isfinite(u).all())
    modulus = np.abs(state[k])
    finite_max = float(np.max(modulus, initial=0.0, where=np.isfinite(modulus)))
    raise IntegrationError(
        f"non-finite sample at step {i} (t={i * dt:g}) in run {k} of "
        f"{len(state)}; max finite |u| = {finite_max:g}",
        step=i, time=i * dt, run=k,
    )


def final_state(datum: Field, config: SimConfig) -> Field:
    """Endpoint of the run, skipping all diagnostics."""
    [(_, [end])] = march([datum], config, [config.n_steps])
    return end


def step(field: Field, config: SimConfig) -> Field:
    """One splitting step of size config.dt."""
    return final_state(field, replace(config, t_final=config.dt, record_every=1))


def samples(
    datum: Field, config: SimConfig,
) -> Iterator[tuple[float, DiagnosticsRecord | None, Field | None]]:
    """Run `datum` under `config`, yielding (t, record, snapshot) at each step
    that takes a record or a snapshot.

    Records are taken on `config.record_steps`; snapshots, if snapshot_every
    is set, at every snapshot_every-th step and the final step. The other
    entry is None. Nothing is collected, so memory grows with the number of
    samples only if the consumer keeps them, and the schedule of steps is
    computed as the run reaches each step, not held. Nor is the datum held
    after `march` has filled the run's state with it: passed without a
    reference of the caller's, it is freed before the first sample is
    yielded. A record that is not finite raises IntegrationError naming its
    step.
    Deterministic given (datum, config).
    """
    n, records, snapshots = config.n_steps, config.record_every, config.snapshot_every
    run = march([datum], config, _strided(n, records, snapshots))
    del datum  # `march` holds it until the fill
    for i, (t, [u]) in zip(_strided(n, records, snapshots), run):
        try:
            record = (measure(u, t, config.lam, config.eps, config.hs_values)
                      if _on(records, n, i) else None)
        except NonFiniteRecordError as exc:
            raise IntegrationError(f"non-finite record at step {i} (t={t:g}): "
                                   f"{exc.quantities}", step=i, time=t, run=0) from None
        yield t, record, u if _on(snapshots, n, i) else None


def evolve(datum: Field, config: SimConfig) -> Trajectory:
    """Iterate the splitting to t_final, keeping every record and snapshot of
    `samples` in a Trajectory."""
    traj = Trajectory(config)
    for t, record, snapshot in samples(datum, config):
        if record is not None:
            traj.records.append(record)
        if snapshot is not None:
            traj.snapshots.append((t, snapshot))
    return traj


def lockstep_distances(
    data: list[Field], config: SimConfig, eps: Sequence[float] | None = None,
) -> list[list[tuple[float, float]]]:
    """(t, L^2 distance) series on config.record_steps between the runs of each
    consecutive pair of data (with per-run eps as in `march`).

    The runs advance as one batched march, so only one sample per run is held
    at a time.
    """
    series: list[list[tuple[float, float]]] = [[] for _ in data[1:]]
    for t, fields in march(data, config, config.record_steps, eps):
        for out, u, v in zip(series, fields, fields[1:]):
            out.append((t, l2_distance(u, v)))
    return series


def evolve_pair(datum_a: Field, datum_b: Field, config: SimConfig) -> list[tuple[float, float]]:
    """L^2 distance between the runs of two data on the record schedule."""
    [distances] = lockstep_distances([datum_a, datum_b], config)
    return distances


def eps_continuation(
    datum: Field, config: SimConfig, eps_sequence: list[float]
) -> list[tuple[tuple[float, float], float]]:
    """Sup-in-time L^2 distance between runs at consecutive regularizations.

    eps_sequence must be a ladder `EPS_LADDER` accepts; "sup in time" means
    the maximum over the diagnostic sample times.
    """
    try:
        eps_sequence = EPS_LADDER(eps_sequence)
    except ValueError as exc:
        raise ValueError("; ".join(f"eps_sequence: {r}" for r in exc.args)) from None
    series = lockstep_distances([datum] * len(eps_sequence), config, eps_sequence)
    sups = [max(d for _, d in distances) for distances in series]
    return list(zip(zip(eps_sequence, eps_sequence[1:]), sups))
