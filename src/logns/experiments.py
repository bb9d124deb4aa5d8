"""Named experiments turning the flow's quantitative bounds into reports.

Each run_* function evolves concrete data, compares against the relevant
growth envelope or invariance identity, and returns an ExperimentReport with
named margins. Verdicts follow fixed thresholds. For the Galilean check,
"within integrator tolerance" means ten times the measured self-convergence
error at the run's step size, and the convergence check measures against a
dt/8 reference. Scaling covariance is exact for the scheme itself, so it is
judged against a roundoff budget derived from the run (`_scaling_budget`).

EXPERIMENTS is the one table of the named experiments: the config parser
reads each entry's parameter keys, data and geometry needs from it, and the
CLI dispatches through it.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field as dataclass_field, replace
from typing import NamedTuple

import numpy as np

from . import constants
from .data import DatumSpec, make_datum
from .diagnostics import hs_growth_ratio, l2_distance, mass, measure
from .geometry import Field, LatticeVelocity, galilean_boost, scale_datum
from .integrator import (SimConfig, eps_continuation, evolve_pair, final_state,
                         lockstep_distances, march)
from .spectral import truncate_modes

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentReport",
    "run_lipschitz",
    "run_hs_growth",
    "run_scaling_invariance",
    "run_galilean",
    "run_eps_cauchy",
    "run_h1_approximation",
    "run_convergence_order",
]

BOUND_SLACK = 1e-6
_EXACT_FLOOR = 1e-12  # keeps the Galilean self-error budget nonzero where dt and dt/8 agree
_UNIT_ROUNDOFF = 2.0**-53


@dataclass
class ExperimentReport:
    """Structured result of one named experiment."""

    name: str
    config_digest: str
    passed: bool
    margins: dict[str, float] = dataclass_field(default_factory=dict)
    series: list[tuple[float, float]] | None = None
    n_samples: int = 0

    def __post_init__(self):
        self.passed = bool(self.passed)  # numpy comparisons give np.bool_, which JSON rejects

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _report(name: str, config: SimConfig, passed: bool, margins: dict[str, float],
            series: list[tuple[float, float]] | None, n_samples: int,
            **digest_extras) -> ExperimentReport:
    """The report of experiment `name`; its digest hashes the config and `digest_extras`."""
    def default(obj):
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        if hasattr(obj, "value"):
            return obj.value
        if hasattr(obj, "__dataclass_fields__"):
            return asdict(obj)
        raise TypeError(f"cannot digest {type(obj)}")

    payload = {"name": name, "config": asdict(config), **digest_extras}
    blob = json.dumps(payload, sort_keys=True, default=default)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return ExperimentReport(name, digest, passed, margins, series, n_samples)


def _self_error(datum: Field, config: SimConfig, coarse: Field) -> float:
    """L^2 error of `coarse`, the run's endpoint at config.dt, against a dt/8 run."""
    return l2_distance(coarse, final_state(datum, replace(config, dt=config.dt / 8.0)))


def _scaling_budget(config: SimConfig, log_z2: float, datum_mass: float) -> float:
    """Roundoff budget for the relative error of `run_scaling_invariance`.

    At eps = 0 the scheme is covariant in exact arithmetic: the free step is
    linear and ln|z w| = ln|z| + ln|w| in each rotation, so only roundoff
    separates z u(t) e^{i lam t ln|z|^2} from the run of z phi. With u = 2^-53,
    n steps over N transformed points, a = |lam t ln|z|^2|, and
    l = 1 + |ln r| for the rms modulus r = sqrt(mass / volume) that the scheme
    conserves, the two runs and the prediction differ by about
      u (n (log2 N + 4) + 6 a + |lam t| (8 l + 7) + 5),
    from each step's FFT pairs and rotations, the rotations' ln|w| rounding
    weighted by |w|, and the predicted phase. A rotation by c ln|w| stretches
    a perturbation by at most sqrt(1 + c^2), so the sum is scaled by
    e^{2 lam^2 |t dt|}. The budget is ten times this estimate, the factor the
    Galilean budget puts on its self-error. CHANGES.md derives each term.
    """
    geometry = config.geometry
    grid = geometry.doubled() if geometry.is_dirichlet else geometry
    lam_t = abs(config.lam * config.t_final)
    log_scale = 1.0 + 0.5 * abs(math.log(datum_mass / geometry.volume))
    terms = (config.n_steps * (math.log2(math.prod(grid.points)) + 4.0)
             + 6.0 * abs(log_z2) * lam_t + lam_t * (8.0 * log_scale + 7.0) + 5.0)
    stretch = math.exp(2.0 * config.lam**2 * abs(config.t_final * config.dt))
    return 10.0 * stretch * _UNIT_ROUNDOFF * terms


def _lipschitz_check(distances: list[tuple[float, float]], lam: float) -> tuple[float | None, bool]:
    """Worst d(t) / (e^{2 |lam| |t|} d(0)) over a distance series and whether it
    is within the envelope; when d(0) = 0, (None, whether every d is 0)."""
    d0 = distances[0][1]
    if d0 == 0.0:
        return None, max(d for _, d in distances) == 0.0
    worst = max(d / (math.exp(2.0 * abs(lam) * abs(t)) * d0) for t, d in distances)
    return worst, worst <= 1.0 + BOUND_SLACK


def _fractional_laplacian_constant(dim: int, s: float) -> float:
    """C(d, s) = s 2^{2s} Gamma((d + 2s)/2) / (pi^{d/2} Gamma(1 - s)).

    Di Nezza, Palatucci & Valdinoci, Prop. 3.4: the Gagliardo seminorm squared
    is 2 C(d, s)^{-1} times the |xi|^{2s}-weighted Fourier mass.
    """
    return s * 4.0**s * math.gamma((dim + 2.0 * s) / 2.0) / (
        math.pi ** (dim / 2.0) * math.gamma(1.0 - s)
    )


def gagliardo_equivalence_bounds(dim: int, s: float) -> tuple[float, float]:
    """Envelope of the Gagliardo / multiplier ratio in the H^s growth cross-check.

    The pinned band was tuned in 1-d. At high frequency the ratio tends to
    sqrt(2 / C(d, s)), so in d dimensions the upper end is scaled by
    sqrt(C(1, s) / C(d, s)); the lower end and the 1-d band are unchanged.
    """
    lo, hi = constants.GAGLIARDO_EQUIVALENCE_BOUNDS
    if dim == 1:
        return lo, hi
    c1, cd = (_fractional_laplacian_constant(d, s) for d in (1, dim))
    return lo, hi * math.sqrt(c1 / cd)


def run_lipschitz(spec: DatumSpec, config: SimConfig, *, datum_b: DatumSpec) -> ExperimentReport:
    """Check |u(t) - v(t)| <= e^{2 |lam| t} |u(0) - v(0)| on the sample schedule."""
    distances = evolve_pair(make_datum(spec, config.geometry),
                            make_datum(datum_b, config.geometry), config)
    worst, passed = _lipschitz_check(distances, config.lam)
    margins = {"worst_ratio": 0.0, "degenerate": 1.0} if worst is None else {"worst_ratio": worst}
    return _report("lipschitz", config, passed, margins, distances, len(distances),
                   spec_a=spec, spec_b=datum_b)


def run_hs_growth(spec: DatumSpec, config: SimConfig) -> ExperimentReport:
    """Check |u(t)|_{H^s}^2 <= e^{4 |lam| t} |u(0)|_{H^s}^2 for each tracked s.

    Uses the multiplier norm along the run plus one Gagliardo cross-check at
    the final time against the pinned equivalence interval.
    """
    if not config.hs_values:
        raise ValueError("hs growth experiment needs tracked hs_values")
    datum = make_datum(spec, config.geometry)
    steps = config.record_steps
    fractional = tuple(s for s in config.hs_values if s < 1.0)
    records = []  # the last record also carries the Gagliardo norms of the cross-check
    for i, (t, [u]) in zip(steps, march([datum], config, steps)):
        gagliardo = fractional if i == steps[-1] else ()
        records.append(measure(u, t, config.lam, config.eps, config.hs_values, gagliardo))
    margins: dict[str, float] = {}
    passed = True
    series = []
    for s in config.hs_values:
        ratios = [hs_growth_ratio(rec, records[0], s, config.lam) for rec in records]
        margins[f"max_ratio_s={s:g}"] = max(ratios)
        passed &= max(ratios) <= 1.0 + BOUND_SLACK
        series = [(rec.time, r) for rec, r in zip(records, ratios)]

    final = records[-1]
    for s in fractional:
        ratio = final.gagliardo_norms[s] / final.hs_norms[s]
        margins[f"gagliardo_ratio_s={s:g}"] = ratio
        lo, hi = gagliardo_equivalence_bounds(config.geometry.dim, s)
        passed &= lo <= ratio <= hi

    return _report("hs_growth", config, passed, margins, series, len(records), spec=spec)


def run_scaling_invariance(spec: DatumSpec, config: SimConfig, *, z: complex) -> ExperimentReport:
    """Compare evolve(z phi) against z evolve(phi) e^{i lam t ln |z|^2}.

    Only meaningful at eps = 0 and z != 0: the regularization breaks the
    invariance, and a zero z leaves nothing to compare. Both runs advance as
    one batched march, and the error is judged against `_scaling_budget`.
    """
    if config.eps != 0.0:
        raise ValueError("scaling invariance holds only for the unregularized flow")
    z = complex(z)
    if z == 0:
        raise ValueError("scaling invariance needs a nonzero z")
    datum = make_datum(spec, config.geometry)
    datum_mass = mass(datum)
    scale = abs(z) * math.sqrt(datum_mass)
    log_z2 = math.log(abs(z) ** 2)

    errs = []
    for t, [u, uz] in march([datum, scale_datum(datum, z)], config, config.record_steps):
        predicted = scale_datum(u, z * cmath.exp(1j * config.lam * t * log_z2))
        errs.append((t, l2_distance(uz, predicted) / scale))
    worst = max(e for _, e in errs)
    budget = _scaling_budget(config, log_z2, datum_mass)
    return _report("scaling_invariance", config, worst <= budget,
                   {"max_rel_err": worst, "budget": budget}, errs, len(errs), spec=spec, z=z)


def run_galilean(spec: DatumSpec, config: SimConfig, *,
                 boost_modes: tuple[int, ...]) -> ExperimentReport:
    """Compare boost-then-evolve with evolve-then-boost at the final time.

    The boost velocity is 2 pi boost_modes / lengths (see LatticeVelocity).
    """
    velocity = LatticeVelocity(boost_modes)
    datum = make_datum(spec, config.geometry)
    [(_, [boosted_first, end])] = march([galilean_boost(datum, velocity, 0.0), datum], config,
                                        [config.n_steps])
    boosted_last = galilean_boost(end, velocity, config.n_steps * config.dt)
    discrepancy = l2_distance(boosted_first, boosted_last) / math.sqrt(mass(datum))
    budget = max(10.0 * _self_error(datum, config, end), _EXACT_FLOOR)
    return _report("galilean", config, discrepancy <= budget,
                   {"rel_discrepancy": discrepancy, "budget": budget}, None, 1,
                   spec=spec, modes=list(velocity.modes))


def run_eps_cauchy(spec: DatumSpec, config: SimConfig, *,
                   eps_sequence: list[float]) -> ExperimentReport:
    """Sup-in-time distances between consecutive regularizations must decay."""
    datum = make_datum(spec, config.geometry)
    pairs = eps_continuation(datum, config, list(eps_sequence))
    dists = [d for _, d in pairs]
    margins = {f"sup_dist_{e1:g}_{e2:g}": d for ((e1, e2), d) in pairs}
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    final_ok = dists[-1] <= constants.EPS_CAUCHY_FINAL_MAX * math.sqrt(mass(datum))
    margins["monotone"] = 1.0 if decreasing else 0.0
    margins["final"] = dists[-1]
    return _report("eps_cauchy", config, decreasing and final_ok, margins, None, len(pairs),
                   spec=spec, eps_sequence=list(eps_sequence))


def run_h1_approximation(spec: DatumSpec, config: SimConfig, *,
                         cutoffs: list[float]) -> ExperimentReport:
    """Evolve sharp Fourier truncations of a rough datum and compare pairs.

    Each consecutive-truncation distance must obey the Lipschitz envelope
    applied to the truncation gap at t = 0, and the sup distances must
    decrease as the cutoff grows.
    """
    if len(cutoffs) < 2:
        raise ValueError("need at least two cutoffs")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    datum = make_datum(spec, config.geometry)
    series = lockstep_distances([truncate_modes(datum, k) for k in cutoffs], config)

    margins: dict[str, float] = {}
    passed = True
    sups = []
    for k1, k2, distances in zip(cutoffs, cutoffs[1:], series):
        sups.append(max(d for _, d in distances))
        margins[f"sup_dist_K{k1:g}_K{k2:g}"] = sups[-1]
        worst, within = _lipschitz_check(distances, config.lam)
        passed &= within
        if worst is not None:
            margins[f"worst_ratio_K{k1:g}_K{k2:g}"] = worst
    passed &= all(b < a or (a == b == 0.0) for a, b in zip(sups, sups[1:]))
    return _report("h1_approximation", config, passed, margins, None, len(series[-1]),
                   spec=spec, cutoffs=list(cutoffs))


def run_convergence_order(spec: DatumSpec, config: SimConfig, *,
                          dt_ladder: list[float]) -> ExperimentReport:
    """Measure the splitting order against a refined reference run.

    The reference uses dt_min / 8. Strang should land in [1.7, 2.3], Lie in
    [0.8, 1.2]; an all-roundoff error ladder is flagged as the exact regime.
    """
    if len(dt_ladder) < 2:
        raise ValueError("need at least two step sizes")
    if any(b >= a for a, b in zip(dt_ladder, dt_ladder[1:])):
        raise ValueError("dt_ladder must be strictly decreasing")
    datum = make_datum(spec, config.geometry)
    reference = final_state(datum, replace(config, dt=min(dt_ladder) / 8.0))

    errors = []
    for dt in dt_ladder:
        errors.append(l2_distance(final_state(datum, replace(config, dt=dt)), reference))

    scale = math.sqrt(mass(datum))
    margins: dict[str, float] = {
        f"error_dt={dt:g}": e for dt, e in zip(dt_ladder, errors)
    }
    if max(errors) <= 1e-11 * scale:
        margins["exact_regime"] = 1.0
        margins["order"] = float("nan")
        passed = True
    else:
        slope, _ = np.polyfit(np.log(dt_ladder), np.log(errors), 1)
        margins["order"] = float(slope)
        lo, hi = (1.7, 2.3) if config.splitting == "strang" else (0.8, 1.2)
        passed = lo <= slope <= hi
    return _report("convergence_order", config, passed, margins, None, len(dt_ladder),
                   spec=spec, dt_ladder=list(dt_ladder))


class Experiment(NamedTuple):
    """One named experiment: its runner and what its config must hold.

    The runner is named, not held: `run` looks it up in this module's globals
    at call time, so a wrapper bound over `run_*` (a tracer, a test double) is
    the function called.
    """

    runner: str                       # name of a run_* function of this module
    params: tuple[str, ...] = ()      # keys of the config's `experiment` section
    needs_datum_b: bool = False       # a second datum, passed to the runner as datum_b
    periodic_only: bool = False       # rejects Dirichlet geometries

    def run(self, spec: DatumSpec, config: SimConfig, **params) -> ExperimentReport:
        return globals()[self.runner](spec, config, **params)


# CLI name -> experiment
EXPERIMENTS = {
    "lipschitz": Experiment("run_lipschitz", needs_datum_b=True),
    "hs-growth": Experiment("run_hs_growth"),
    "scaling": Experiment("run_scaling_invariance", ("z",)),
    "galilean": Experiment("run_galilean", ("boost_modes",), periodic_only=True),
    "eps-cauchy": Experiment("run_eps_cauchy", ("eps_sequence",)),
    "h1-approx": Experiment("run_h1_approximation", ("cutoffs",), periodic_only=True),
    "convergence": Experiment("run_convergence_order", ("dt_ladder",)),
}
