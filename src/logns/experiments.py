"""Named experiments turning the flow's quantitative bounds into reports.

Each run_* function evolves concrete data, compares against the relevant
growth envelope or invariance identity, and returns an ExperimentReport with
named margins. Verdicts follow fixed thresholds. The convergence check judges
the observed orders of consecutive rungs of its step ladder against one
another, with no reference run, and halves below the ladder until the last
two orders agree with the splitting. Scaling covariance is exact for the scheme
itself, so it is judged against a roundoff budget derived from the run
(`_scaling_budget`). Galilean covariance is exact for the time-discrete scheme
in continuous space, so its discrepancy is a spatial error, judged against
ten times the two runs' spatial self-errors, measured against the same runs
on the grid with twice the points per axis.

EXPERIMENTS is the one table of the named experiments: the config parser
reads each entry's parameter keys, data and geometry needs from it, and the
CLI dispatches through it. The config parser and every runner check an
experiment's parameters by one function, `parse_params`, for the same reasons.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field as dataclass_field, replace
from typing import NamedTuple

from . import constants
from .data import DatumSpec, check_nonzero, make_datum
from .diagnostics import l2_distance, mass, measure
from .geometry import Field, GridGeometry, galilean_boost
from .integrator import (EPS_LADDER, SimConfig, eps_continuation, evolve_pair, final_state,
                         lockstep_distances, march)
from .schema import Key, complex_number, integer, ladder, list_of, walk
from .spectral import resample_modes, truncate_modes

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
_EXACT_FLOOR = 1e-12  # relative; keeps the Galilean budget nonzero where the N and 2N runs agree
_UNIT_ROUNDOFF = 2.0**-53
_MAX_ADDED_RUNGS = 4  # halvings `run_convergence_order` may add below the ladder


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
        if hasattr(obj, "__dataclass_fields__"):
            return asdict(obj)
        raise TypeError(f"cannot digest {type(obj)}")

    payload = {"name": name, "config": asdict(config), **digest_extras}
    blob = json.dumps(payload, sort_keys=True, default=default)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return ExperimentReport(name, digest, passed, margins, series, n_samples)


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
    lam_t = abs(config.lam * config.t_final)
    log_scale = 1.0 + 0.5 * abs(math.log(datum_mass / config.geometry.volume))
    transformed = math.prod(config.geometry.transform_grid().points)
    terms = (config.n_steps * (math.log2(transformed) + 4.0)
             + 6.0 * abs(log_z2) * lam_t + lam_t * (8.0 * log_scale + 7.0) + 5.0)
    return 10.0 * _stretch(config) * _UNIT_ROUNDOFF * terms


def _stretch(config: SimConfig) -> float:
    """e^{2 lam^2 |t dt|}, or inf where lam^2 or it leaves the float range."""
    try:
        return math.exp(2.0 * config.lam**2 * abs(config.t_final * config.dt))
    except OverflowError:
        return math.inf


def _envelope(series: list[tuple[float, float]], rate: float) -> list[float] | None:
    """v(t) / (e^{rate |t|} v(0)) for each (t, v) of a series, or None when
    v(0) = 0: the one form of the growth bounds v(t) <= e^{rate |t|} v(0)."""
    v0 = series[0][1]
    if v0 == 0.0:
        return None
    ratios = []
    for t, v in series:
        try:
            ratios.append(v / (math.exp(rate * abs(t)) * v0))
        except OverflowError:  # e^{rate |t|} is past the float range: a finite v has ratio 0
            ratios.append(v / math.inf)
    return ratios


def _decreasing(sups: list[float]) -> bool:
    """Whether each sup is below the one before it, or both are 0: runs that
    agree exactly cannot get closer."""
    return all(b < a or a == b == 0.0 for a, b in zip(sups, sups[1:]))


def _lipschitz_check(distances: list[tuple[float, float]], lam: float) -> tuple[float | None, bool]:
    """Worst d(t) / (e^{2 |lam| |t|} d(0)) over a distance series and whether it
    is within the envelope; when d(0) = 0, (None, whether every d is 0)."""
    ratios = _envelope(distances, 2.0 * abs(lam))
    if ratios is None:
        return None, max(d for _, d in distances) == 0.0
    worst = max(ratios)
    return worst, worst <= 1.0 + BOUND_SLACK


def run_lipschitz(spec: DatumSpec, config: SimConfig, *, datum_b: DatumSpec) -> ExperimentReport:
    """Check |u(t) - v(t)| <= e^{2 |lam| t} |u(0) - v(0)| on the sample schedule."""
    distances = evolve_pair(make_datum(spec, config.geometry),
                            make_datum(datum_b, config.geometry, "datum_b"), config)
    worst, passed = _lipschitz_check(distances, config.lam)
    margins = {"worst_ratio": 0.0, "degenerate": 1.0} if worst is None else {"worst_ratio": worst}
    return _report("lipschitz", config, passed, margins, distances, len(distances),
                   spec_a=spec, spec_b=datum_b)


def run_hs_growth(spec: DatumSpec, config: SimConfig) -> ExperimentReport:
    """Check |u(t)|_{H^s}^2 <= e^{4 |lam| t} |u(0)|_{H^s}^2 at every record, in the
    multiplier norm for each tracked s and the Gagliardo norm for each s < 1. The
    latter squared is the conserved mass plus a positive sum of |tau_k u - u|^2,
    each under e^{4 |lam| t}, since grid translations tau_k commute with the scheme."""
    _params("hs-growth", config)
    datum = make_datum(spec, config.geometry)
    fractional = tuple(s for s in config.hs_values if s < 1.0)
    records = [measure(u, t, config.lam, config.eps, config.hs_values, fractional)
               for t, [u] in march([datum], config, config.record_steps)]
    rate = 4.0 * abs(config.lam)
    ratios: dict[str, list[float]] = {}
    for s in config.hs_values:
        # make_datum rejects a zero datum, so no H^s norm of it is 0
        ratios[f"max_ratio_s={s:g}"] = _envelope(
            [(rec.time, rec.hs_norms[s] ** 2) for rec in records], rate)
        if s < 1.0:
            ratios[f"gagliardo_max_ratio_s={s:g}"] = _envelope(
                [(rec.time, rec.gagliardo_norms[s] ** 2) for rec in records], rate)
    margins = {label: max(r) for label, r in ratios.items()}
    # the series: each record's worst ratio over every judged norm
    series = [(rec.time, max(worst)) for rec, *worst in zip(records, *ratios.values())]
    passed = all(worst <= 1.0 + BOUND_SLACK for worst in margins.values())
    return _report("hs_growth", config, passed, margins, series, len(records), spec=spec)


def run_scaling_invariance(spec: DatumSpec, config: SimConfig, *, z: complex) -> ExperimentReport:
    """Compare evolve(z phi) against z evolve(phi) e^{i lam t ln |z|^2}.

    Only meaningful at eps = 0 and z != 0: the regularization breaks the
    invariance, and a zero z leaves nothing to compare. Both runs advance as
    one batched march, and the error is judged against `_scaling_budget`.
    """
    z = _params("scaling", config, z=z)["z"]
    log_z2 = math.log(abs(z) ** 2)
    datum = make_datum(spec, config.geometry)
    datum_mass = mass(datum)
    scale = abs(z) * math.sqrt(datum_mass)

    errs = []
    for t, [u, uz] in march([datum, Field(datum.geometry, z * datum.data)], config,
                            config.record_steps):
        predicted = Field(u.geometry, z * cmath.exp(1j * config.lam * t * log_z2) * u.data)
        errs.append((t, l2_distance(uz, predicted) / scale))
    worst = max(e for _, e in errs)
    budget = _scaling_budget(config, log_z2, datum_mass)
    return _report("scaling_invariance", config, worst <= budget,
                   {"max_rel_err": worst, "budget": budget}, errs, len(errs), spec=spec, z=z)


def run_galilean(spec: DatumSpec, config: SimConfig, *,
                 boost_modes: tuple[int, ...]) -> ExperimentReport:
    """Compare boost-then-evolve with evolve-then-boost at the final time.

    The boost velocity is 2 pi boost_modes / lengths (see `galilean_boost`).
    The time-discrete scheme commutes with a lattice boost, so the discrepancy
    is a spatial error. It is judged against ten times the spatial self-errors
    of the boosted and plain runs: both data, refined to the grid with twice
    the points per axis, march once more, and each end is compared with its
    N-grid run on the N grid's modes.
    """
    modes = list(_params("galilean", config, boost_modes=boost_modes)["boost_modes"])
    geometry = config.geometry
    datum = make_datum(spec, geometry)
    data = [galilean_boost(datum, modes, 0.0), datum]
    [(_, ends)] = march(data, config, [config.n_steps])
    fine = replace(config, geometry=replace(geometry, points=tuple(2 * n for n in geometry.points)))
    [(_, fine_ends)] = march([resample_modes(u, fine.geometry) for u in data], fine,
                             [config.n_steps])
    scale = math.sqrt(mass(datum))
    self_error = sum(l2_distance(u, resample_modes(v, geometry))
                     for u, v in zip(ends, fine_ends)) / scale
    boosted_first, end = ends
    boosted_last = galilean_boost(end, modes, config.n_steps * config.dt)
    discrepancy = l2_distance(boosted_first, boosted_last) / scale
    budget = max(10.0 * self_error, _EXACT_FLOOR)
    return _report("galilean", config, discrepancy <= budget,
                   {"rel_discrepancy": discrepancy, "budget": budget}, None, 1,
                   spec=spec, modes=modes)


def run_eps_cauchy(spec: DatumSpec, config: SimConfig, *,
                   eps_sequence: list[float]) -> ExperimentReport:
    """Sup-in-time distances between consecutive regularizations must decay."""
    eps_sequence = _params("eps-cauchy", config, eps_sequence=eps_sequence)["eps_sequence"]
    datum = make_datum(spec, config.geometry)
    pairs = eps_continuation(datum, config, eps_sequence)
    dists = [d for _, d in pairs]
    margins = {f"sup_dist_{e1:g}_{e2:g}": d for ((e1, e2), d) in pairs}
    decreasing = _decreasing(dists)
    final_ok = dists[-1] <= constants.EPS_CAUCHY_FINAL_MAX * math.sqrt(mass(datum))
    margins["monotone"] = 1.0 if decreasing else 0.0
    margins["final"] = dists[-1]
    return _report("eps_cauchy", config, decreasing and final_ok, margins, None, len(pairs),
                   spec=spec, eps_sequence=eps_sequence)


def run_h1_approximation(spec: DatumSpec, config: SimConfig, *,
                         cutoffs: list[float]) -> ExperimentReport:
    """Evolve sharp Fourier truncations of a rough datum and compare pairs.

    Each consecutive-truncation distance must obey the Lipschitz envelope
    applied to the truncation gap at t = 0, and the sup distances must
    decrease as the cutoff grows. A truncation that vanishes to roundoff, by
    the rule `make_datum` applies to a datum, is rejected: no bound is tested
    on u = 0.
    """
    cutoffs = _params("h1-approx", config, cutoffs=cutoffs)["cutoffs"]
    datum = make_datum(spec, config.geometry)
    truncations = [truncate_modes(datum, k) for k in cutoffs]
    # the truncations are nested, so the first is the smallest
    check_nonzero(truncations[0].data, datum.data,
                  f"cutoffs: the truncation at cutoff {cutoffs[0]:g} vanishes", "a datum norm")
    series = lockstep_distances(truncations, config)

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
    passed &= _decreasing(sups)
    return _report("h1_approximation", config, passed, margins, None, len(series[-1]),
                   spec=spec, cutoffs=cutoffs)


def _rung(config: SimConfig, dt: float) -> SimConfig:
    """`config` at step dt. A rung takes no records, so record_every is set to
    1, which no step size rejects."""
    return replace(config, dt=dt, record_every=1)


def _self_order(rungs: list[float], ratio: float) -> float:
    """The order p of three rungs a > b > c whose consecutive differences have
    the ratio e(a, b) / e(b, c), or nan if none is found.

    If u_dt = u + C dt^p, then e(a, b) = |C| (a^p - b^p), so p solves
    (a^p - b^p) / (b^p - c^p) = ratio. On a geometric ladder, a / b = b / c = q,
    the root is ln(ratio) / ln(q). The left side increases with p from 0 to
    infinity, so bisection finds the one root of any positive finite ratio
    within |p| <= 64, or as far as its powers stay in the float range.
    """
    a, b, c = rungs
    la, lc = math.log(a / b), math.log(b / c)

    def log_lhs(p):  # ln of the left side, which is expm1(p la) / (1 - e^{-p lc})
        if p == 0.0:
            return math.log(la / lc)
        return math.log(math.expm1(p * la) / -math.expm1(-p * lc))

    if not 0.0 < ratio < math.inf:
        return math.nan
    target = math.log(ratio)
    bound = min(64.0, 700.0 / max(la, lc))
    lo, hi = -bound, bound
    if not log_lhs(lo) <= target <= log_lhs(hi):
        return math.nan
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if log_lhs(mid) < target:
            lo = mid
        else:
            hi = mid
    return mid


def run_convergence_order(spec: DatumSpec, config: SimConfig, *,
                          dt_ladder: list[float]) -> ExperimentReport:
    """Judge the splitting order by self-convergence, with no reference run.

    Each rung marches to t_final. Consecutive rungs differ by
    e_k = |u_{dt_k} - u_{dt_{k+1}}|, and each triple of rungs gives an observed
    order p_k (`_self_order`). While the last two orders are not both in the
    band, [1.7, 2.3] for Strang and [0.8, 1.2] for Lie, a rung of half the
    finest step is added, at most `_MAX_ADDED_RUNGS` of them and within the
    step limit; if they run out first, the verdict is FAIL. A ladder whose
    differences are all at roundoff (at most 1e-11 |phi|) passes as the exact
    regime, with no added rung. The margins hold every difference and order,
    the number of added rungs, and `order`, the last order judged, if any.
    """
    dt_ladder = _params("convergence", config, dt_ladder=dt_ladder)["dt_ladder"]
    datum = make_datum(spec, config.geometry)
    dts = list(dt_ladder)
    ends = [final_state(datum, _rung(config, dt)) for dt in dts]
    diffs = [l2_distance(u, v) for u, v in zip(ends, ends[1:])]
    end = ends[-1]
    lo, hi = (1.7, 2.3) if config.splitting == "strang" else (0.8, 1.2)

    exact = max(diffs) <= 1e-11 * math.sqrt(mass(datum))
    orders = [] if exact else [_self_order(dts[k : k + 3], diffs[k] / diffs[k + 1])
                               for k in range(len(diffs) - 1)]

    def judged() -> bool:
        return len(orders) >= 2 and all(lo <= p <= hi for p in orders[-2:])

    while not exact and not judged() and len(dts) - len(dt_ladder) < _MAX_ADDED_RUNGS:
        try:  # halving a valid rung can fail only the step limit
            rung = _rung(config, dts[-1] / 2.0)
        except ValueError:
            break
        finer = final_state(datum, rung)
        dts.append(rung.dt)
        diffs.append(l2_distance(end, finer))
        end = finer
        orders.append(_self_order(dts[-3:], diffs[-2] / diffs[-1]))

    margins = {f"diff_dt={a:g}_{b:g}": e for a, b, e in zip(dts, dts[1:], diffs)}
    margins |= {f"order_dt={a:g}_{b:g}_{c:g}": p
                for a, b, c, p in zip(dts, dts[1:], dts[2:], orders)}
    margins["added_rungs"] = float(len(dts) - len(dt_ladder))
    if exact:
        margins["exact_regime"] = 1.0
    if orders:
        margins["order"] = orders[-1]
    return _report("convergence_order", config, exact or judged(), margins, None, len(dts),
                   spec=spec, dt_ladder=dt_ladder)


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


# the keys of a config's `experiment` section, every parameter key of EXPERIMENTS
EXPERIMENT_KEYS = {
    "z": Key(True, complex_number(nonzero=True)),
    "boost_modes": Key(True, list_of(integer())),
    "eps_sequence": Key(True, EPS_LADDER),
    "cutoffs": Key(True, ladder(decreasing=False, positive=False, entry="cutoff")),
    "dt_ladder": Key(True, ladder(decreasing=True, entry="rung")),
}


def parse_params(name: str, raw: dict, errors: list[str], geometry: GridGeometry | None = None,
                 config: SimConfig | None = None) -> dict:
    """The runner's keyword arguments for experiment `name`, parsed from `raw`.
    Appends to `errors` each fault as "section.key: reason": of a key (EXPERIMENT_KEYS
    and z's range) and, given the run's geometry and config, of a rule across
    sections (periodic-only, boost_modes per axis and the rounding of their
    phase against _EXACT_FLOOR, dt rungs, eps, hs_values)."""
    entry = EXPERIMENTS[name]
    params = walk(raw, {key: EXPERIMENT_KEYS[key] for key in entry.params}, "experiment.", errors)
    if "z" in params:
        try:
            math.log(abs(params["z"]) ** 2)
        except (OverflowError, ValueError):  # |z|^2 beyond the float range, or 0
            errors.append(f"experiment.z: |z|^2 is outside the float range, got {params.pop('z')}")
    if geometry is not None:
        modes = params.get("boost_modes")
        if modes is not None and len(modes) != geometry.dim:
            errors.append(f"experiment.boost_modes: expected one integer per axis "
                          f"({geometry.dim}), got {len(modes)}")
        if entry.periodic_only and geometry.is_dirichlet:
            errors.append(f"geometry.kind: experiment {name} needs a periodic geometry, "
                          f"got {geometry.kind.value!r}")
    if config is not None:
        modes = params.get("boost_modes")
        if modes is not None and len(modes) == config.geometry.dim:
            v = [2.0 * math.pi * m / l for m, l in zip(modes, config.geometry.lengths)]
            rounding = _UNIT_ROUNDOFF * sum(x * x for x in v) * abs(config.t_final)
            if not rounding <= _EXACT_FLOOR:  # its rounding alone could exceed the budget
                errors.append(f"experiment.boost_modes: the boost phase |v|^2 t_final rounds "
                              f"by {rounding:.3g}, above the budget floor {_EXACT_FLOOR:g}")
        for dt in params.get("dt_ladder", ()):
            try:
                _rung(config, dt)
            except ValueError as exc:
                errors.append(f"experiment.dt_ladder: rung {dt:g}: {exc}")
        if name == "scaling" and config.eps != 0.0:
            errors.append(f"sim.eps: experiment scaling needs eps = 0, got {config.eps:g}")
        if name == "scaling" and _stretch(config) == math.inf:  # a vacuous verdict
            errors.append("sim: experiment scaling's roundoff budget is inf: its stretch "
                          "e^{2 lam^2 |t_final dt|} is out of the float range")
        if name == "hs-growth" and not config.hs_values:
            errors.append("sim.hs_values: experiment hs-growth needs at least one exponent")
    return params


def _params(name: str, config: SimConfig, **raw) -> dict:
    """`parse_params` for a runner: raises ValueError with every fault."""
    errors: list[str] = []
    params = parse_params(name, raw, errors, config.geometry, config)
    if errors:
        raise ValueError("; ".join(errors))
    return params


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
