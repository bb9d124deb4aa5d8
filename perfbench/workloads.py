"""The benchmark's workloads: generated inputs, the CLI calls of one unit, and
the checks applied to each call's output.

A unit is the list of `logns` CLI calls a user would make for one task. The
checks come from the repository's own spec: exit codes and verdicts, the mass
drift of the conserving splitting, the e^{4|lam|t} growth envelope of squared
H^s norms, zero boundary planes on Dirichlet grids, finite norms, and, for the
default seed, the final record against stored references.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
MASS_DRIFT_MAX = 1e-11   # relative mass drift the acceptance suite allows
BOUND_SLACK = 1e-6       # slack the experiments give the growth envelopes
REFERENCE_RTOL = 1e-12   # ROADMAP rule for numerical rewrites
REFERENCE_FILE = Path(__file__).with_name("reference.json")

SNAPSHOT_MAGIC = b"LOGNSFLD"
_TORUS_TAG = 0


@dataclass
class Op:
    """One `logns` CLI call of a unit, with the check of what it printed and wrote."""

    label: str
    kind: str                      # simulate | experiment | norms | check-inequality
    argv: list[str]
    check: Callable[[int, str], list[str]]
    steps: int = 0                 # config steps: round(t_final / dt) of the op's config
    clear: list[Path] = field(default_factory=list)  # outputs removed before each call


# --- snapshot files (layout documented in the repository README) ---------------

def write_torus_snapshot(path: Path, data: np.ndarray) -> None:
    d = data.ndim
    header = SNAPSHOT_MAGIC + struct.pack("<III", 1, _TORUS_TAG, d)
    header += struct.pack(f"<{d}I", *data.shape) + struct.pack(f"<{d}d", *([1.0] * d))
    header += struct.pack("<d", 0.0)
    path.write_bytes(header + np.ascontiguousarray(data, dtype="<c16").tobytes())


def read_snapshot_data(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if blob[:8] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path.name}: bad magic")
    (d,) = struct.unpack_from("<I", blob, 16)
    points = struct.unpack_from(f"<{d}I", blob, 20)
    offset = 20 + 4 * d + 8 * d + 8
    count = math.prod(points)
    return np.frombuffer(blob, dtype="<c16", count=count, offset=offset).reshape(points)


def band_limited_field(n: int, cutoff: float, seed: int) -> np.ndarray:
    """Unit-mass random field on the 1-d unit torus with modes |k| <= cutoff."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    coeffs[np.abs(np.fft.fftfreq(n, d=1.0 / n)) > cutoff] = 0.0
    data = np.fft.ifft(coeffs)
    return data / math.sqrt(np.sum(np.abs(data) ** 2) / n)


# --- checks --------------------------------------------------------------------

def _read_timeseries(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


def _load_reference(workload: str) -> dict[str, float]:
    return json.loads(REFERENCE_FILE.read_text())[workload]


def check_simulate(out_dir: Path, lam: float, n_records: int, n_snapshots: int,
                   dirichlet: bool, reference: dict[str, float] | None):
    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        series = _read_timeseries(out_dir / "timeseries.csv")
        t, m = series["time"], series["mass"]
        if len(t) != n_records:
            problems.append(f"{len(t)} records, expected {n_records}")
        drift = float(np.max(np.abs(m - m[0])) / m[0])
        if not drift <= MASS_DRIFT_MAX:
            problems.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_MAX:g}")
        for name, col in series.items():
            if not name.startswith("hs_"):
                continue
            envelope = np.exp(4.0 * abs(lam) * np.abs(t)) * col[0] ** 2 * (1.0 + BOUND_SLACK)
            if not np.all(col**2 <= envelope):
                problems.append(f"{name}: squared norm exceeds the e^(4|lam|t) envelope")
        snapshots = sorted(out_dir.glob("snapshot_*.bin"))
        if len(snapshots) != n_snapshots:
            problems.append(f"{len(snapshots)} snapshots, expected {n_snapshots}")
        if dirichlet:
            for snap in snapshots:
                if np.any(read_snapshot_data(snap)[..., 0] != 0.0):
                    problems.append(f"{snap.name}: boundary plane is not zero")
        if reference is not None:
            for name, want in reference.items():
                got = float(series[name][-1])
                if not abs(got - want) <= REFERENCE_RTOL * abs(want):
                    problems.append(f"final {name} {got!r} differs from reference {want!r}")
        return problems
    return check


def check_experiment(report_path: Path):
    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        verdict = json.loads(report_path.read_text())["verdict"]
        return [] if verdict == "pass" else [f"verdict {verdict}"]
    return check


def check_inequality(code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    return [] if re.search(r"^verdict\s*:\s*PASS$", stdout, re.M) else ["verdict is not PASS"]


def check_norms(s_values: list[float]):
    # time, mass, energy, then the multiplier norm per s and the Gagliardo norm for 0 < s < 1
    expected = 3 + sum(2 if 0.0 < s < 1.0 else 1 for s in s_values)

    def check(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        values = []
        for line in stdout.splitlines():
            for tok in line.partition(":")[2].split():
                try:
                    values.append(float(tok))
                except ValueError:
                    pass
        if len(values) != expected:
            return [f"{len(values)} values printed, expected {expected}"]
        return [] if all(math.isfinite(v) for v in values) else ["non-finite norm"]
    return check


# --- units -----------------------------------------------------------------------

def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _steps(sim: dict) -> int:
    return round(sim["t_final"] / sim["dt"])


def _simulate_op(name: str, work: Path, seed: int, geometry: dict, sim: dict,
                 datum: dict) -> tuple[Op, Path]:
    cfg = _write_config(work / "config.json", {"geometry": geometry, "sim": sim, "datum": datum})
    out = work / "out"
    n = _steps(sim)
    n_snapshots = n // sim["snapshot_every"] + 1
    reference = _load_reference(name) if seed == DEFAULT_SEED else None
    check = check_simulate(out, sim["lambda"], n // sim["record_every"] + 1, n_snapshots,
                           geometry["kind"].startswith("dirichlet"), reference)
    op = Op("simulate", "simulate", ["simulate", "--config", str(cfg), "--out-dir", str(out)],
            check, steps=n, clear=[out])
    return op, out


def _norms_op(snapshot: Path, s_values: list[float], sim: dict) -> Op:
    s_arg = ",".join(f"{s:g}" for s in s_values)
    argv = ["norms", "--snapshot", str(snapshot), "--s", s_arg,
            "--lambda", repr(sim["lambda"]), "--eps", repr(sim["eps"])]
    return Op(f"norms {snapshot.name}", "norms", argv, check_norms(s_values))


def build_torus2d_simulate(work: Path, seed: int) -> list[Op]:
    """256^2 torus, band-limited datum, 200 Strang steps; H^1 norms of every snapshot.

    The Gagliardo norm is capped at 8192 points, so the snapshots are measured
    at s = 1, where `norms` prints only the multiplier norm.
    """
    sim = {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": 0.2, "splitting": "strang",
           "record_every": 20, "hs_values": [0.5], "snapshot_every": 10}
    op, out = _simulate_op(
        "torus2d-simulate", work, seed, {"kind": "torus", "points": [256, 256]}, sim,
        {"kind": "random_band_limited", "cutoff": 32.0, "seed": seed})
    n_snapshots = _steps(sim) // sim["snapshot_every"] + 1
    return [op] + [_norms_op(out / f"snapshot_{i:06d}.bin", [1.0], sim)
                   for i in range(n_snapshots)]


def build_dirichlet_slab_records(work: Path, seed: int) -> list[Op]:
    """64x64 Dirichlet slab (64x128 doubled grid), 500 steps, a record every 2 steps."""
    sim = {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": 0.5, "splitting": "strang",
           "record_every": 2, "hs_values": [0.25, 0.5], "snapshot_every": 50}
    op, out = _simulate_op(
        "dirichlet-slab-records", work, seed,
        {"kind": "dirichlet_slab", "points": [64, 64], "lengths": [1.0, 1.0]}, sim,
        {"kind": "random_band_limited", "cutoff": 16.0, "seed": seed})
    last = _steps(sim) // sim["snapshot_every"]
    return [op, _norms_op(out / f"snapshot_{last:06d}.bin", [0.25, 0.5], sim)]


def build_verify_1d(work: Path, seed: int) -> list[Op]:
    """The seven experiments, the inequality suite and the norm-equivalence fields.

    Configs follow acceptance checks 01, 03-06, 08, 09 and 10 on 1-d tori. The
    seed picks the random data and the centre of the Gaussian bumps.
    """
    center = [round(float(np.random.default_rng(seed).uniform()), 6)]
    gaussian = {"kind": "gaussian_bump", "width": 0.25, "center": center}
    rough = {"kind": "random_rough", "target_s": 0.5, "seed": seed}

    def sim(**kw):
        return {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": 1.0, **kw}

    def torus(n):
        return {"kind": "torus", "points": [n]}

    experiments = [
        ("lipschitz", torus(128), sim(record_every=10),
         {"datum": {"kind": "random_band_limited", "cutoff": 16.0, "seed": 2 * seed + 100},
          "datum_b": {"kind": "random_band_limited", "cutoff": 24.0, "seed": 2 * seed + 101}}),
        ("hs-growth", torus(128), sim(record_every=10, hs_values=[0.25, 0.5]), {"datum": rough}),
        ("scaling", torus(64), sim(eps=0.0, record_every=50),
         {"datum": gaussian, "experiment": {"z": [1.0, 1.0]}}),
        ("galilean", torus(64), sim(), {"datum": gaussian, "experiment": {"boost_modes": [1]}}),
        ("eps-cauchy", torus(128), sim(eps=1e-2, record_every=10),
         {"datum": {**gaussian, "width": 0.08},
          "experiment": {"eps_sequence": [2.0**-k for k in range(2, 13)]}}),
        ("h1-approx", torus(128), sim(record_every=10),
         {"datum": rough, "experiment": {"cutoffs": [8.0, 16.0, 32.0]}}),
        ("convergence", torus(64), sim(eps=1e-2, splitting="strang"),
         {"datum": gaussian, "experiment": {"dt_ladder": [4e-3, 2e-3, 1e-3]}}),
    ]
    ops = []
    for name, geometry, sim_doc, extra in experiments:
        cfg = _write_config(work / f"{name}.json", {"geometry": geometry, "sim": sim_doc, **extra})
        report = work / f"{name}.report.json"
        argv = ["experiment", name, "--config", str(cfg), "--out", str(report)]
        ops.append(Op(f"experiment {name}", "experiment", argv, check_experiment(report),
                      steps=_steps(sim_doc), clear=[report]))

    ops.append(Op("check-inequality", "check-inequality",
                  ["check-inequality", "--samples", "1000000", "--seed", str(seed)],
                  check_inequality))

    for i, cutoff in enumerate((8.0, 16.0, 32.0, 64.0, 96.0)):
        snap = work / f"band_{i}.bin"
        write_torus_snapshot(snap, band_limited_field(256, cutoff, seed * 5 + i))
        ops.append(_norms_op(snap, [0.25, 0.5, 0.75], sim()))
    return ops


# name -> function making the ops of one unit from (work dir, seed)
WORKLOADS: dict[str, Callable[[Path, int], list[Op]]] = {
    "torus2d-simulate": build_torus2d_simulate,
    "verify-1d": build_verify_1d,
    "dirichlet-slab-records": build_dirichlet_slab_records,
}
