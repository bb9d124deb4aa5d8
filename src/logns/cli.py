"""Command-line surface.

Subcommands: simulate, experiment, norms, check-inequality. Exit codes:
0 all verdicts pass, 1 any fail, 2 usage, configuration, file or integration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import nonlinearity
from .diagnostics import measure
from .data import make_datum
from .experiments import EXPERIMENTS, ExperimentReport
from .integrator import IntegrationError, SimConfig, samples
from .io import (
    ConfigDocument,
    ConfigError,
    load_config,
    read_snapshot,
    write_snapshot,
    write_timeseries,
)

__all__ = ["main"]


def _sim_config(doc: ConfigDocument) -> SimConfig:
    return SimConfig(geometry=doc.geometry, **doc.sim)


def _print_report(report: ExperimentReport) -> None:
    print(f"experiment : {report.name}")
    print(f"digest     : {report.config_digest[:16]}")
    print(f"samples    : {report.n_samples}")
    for label in sorted(report.margins):
        print(f"  {label:<32} {report.margins[label]:.6e}")
    print(f"verdict    : {report.verdict.upper()}")


def _report_json(report: ExperimentReport) -> dict:
    out = dataclasses.asdict(report)
    out["verdict"] = report.verdict
    return out


def _cmd_simulate(args) -> int:
    """Write each snapshot as it is sampled and the CSV once, also when the run
    fails: memory does not grow with the snapshot count, and a failed run
    keeps what it sampled before the failure."""
    doc = load_config(args.config)
    config = _sim_config(doc)
    datum = make_datum(doc.datum, config.geometry)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "timeseries.csv"
    records, n_snapshots, t, failed = [], 0, None, False
    try:
        for t, record, snapshot in samples(datum, config):
            if record is not None:
                records.append(record)
            if snapshot is not None:
                write_snapshot(snapshot, t, out_dir / f"snapshot_{n_snapshots:06d}.bin")
                n_snapshots += 1
    except (OSError, ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        failed = True
    finally:
        write_timeseries(records, csv)  # an OSError here reaches main, which exits 2
    if failed:
        last = "" if t is None else f", last sample at t={t:g}"
        print(f"kept {csv} ({len(records)} records, {n_snapshots} snapshots{last})",
              file=sys.stderr)
        return 2
    print(f"wrote {csv} ({len(records)} records, {n_snapshots} snapshots)")
    return 0


def _cmd_experiment(args) -> int:
    doc = load_config(args.config, experiment=args.name)
    report = EXPERIMENTS[args.name].run(doc.datum, _sim_config(doc), **doc.experiment)
    _print_report(report)
    Path(args.out).write_text(json.dumps(_report_json(report), indent=2) + "\n")
    return 0 if report.passed else 1


def _cmd_norms(args) -> int:
    field, t = read_snapshot(args.snapshot)
    s_values = [float(tok) for tok in args.s.split(",") if tok]
    fractional = tuple(s for s in s_values if 0.0 < s < 1.0)
    record = measure(field, t, args.lam, args.eps, tuple(s_values), fractional)
    print(f"time   : {t:.17g}")
    print(f"mass   : {record.mass:.17g}")
    print(f"energy : {record.energy:.17g}")
    for s in s_values:
        line = f"H^{s:g}  : multiplier {record.hs_norms[s]:.17g}"
        if s in record.gagliardo_norms:
            line += f"  gagliardo {record.gagliardo_norms[s]:.17g}"
        print(line)
    return 0


def _cmd_check_inequality(args) -> int:
    """Randomized suite for the monotonicity-gap inequality (and its eps = 0 case)."""
    n = args.samples
    if n < 1:
        raise ValueError(f"--samples must be at least 1, got {n}")
    rng = np.random.default_rng(args.seed)
    worst = -math.inf  # the largest gap - bound - slack over every sample
    ratio = 0.0  # the largest gap / (bound + slack): how close the bound came
    for eps_zero in (False, True):
        remaining = n
        while remaining > 0:
            chunk = min(remaining, 2**16)  # bounds the peak memory
            remaining -= chunk
            moduli = 10.0 ** rng.uniform(-15, 15, size=(2, chunk))
            # moduli * exp(2 pi i r) as cos and sin into one buffer, bitwise
            # the complex exponential without its complex temporaries
            angle = 2.0 * np.pi * rng.random((2, chunk))
            z = np.empty((2, chunk), dtype=complex)
            np.cos(angle, out=z.real)
            np.sin(angle, out=z.imag)
            z.real *= moduli
            z.imag *= moduli
            z1, z2 = z
            if eps_zero:
                e1 = e2 = np.zeros(chunk)
            else:
                e1, e2 = 10.0 ** rng.uniform(-15, 15, size=(2, chunk))
            gap = np.abs(nonlinearity.monotonicity_gap(z1, z2, e1, e2))
            bound = nonlinearity.monotonicity_bound(z1, z2, e1, e2)
            slack = 1e-12 * (1.0 + np.abs(z1 - z2) ** 2)
            worst = max(worst, float(np.max(gap - bound - slack)))
            ratio = max(ratio, float(np.max(gap / (bound + slack))))
    print(f"samples per case : {n}")
    print(f"worst margin     : {worst:.6e} (<= 0 passes)")
    print(f"worst ratio      : {ratio:.6e} (<= 1 passes)")
    print("verdict          :", "PASS" if worst <= 0.0 else "FAIL")
    return 0 if worst <= 0.0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logns",
        description="Split-step spectral solver and verification harness for the "
        "logarithmic Schrodinger equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation, write CSV and snapshots")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="report.json", help="JSON report destination")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("norms", help="print norms of a snapshot file")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--s", required=True, help="comma-separated Sobolev exponents")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("check-inequality", help="randomized monotonicity-gap suite")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_inequality)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
