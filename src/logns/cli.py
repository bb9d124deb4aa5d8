"""Command-line surface.

Subcommands: simulate, experiment, norms, check-inequality. Exit codes:
0 all verdicts pass, 1 any fail, 2 usage, configuration, file, integration or
allocation error, or a `norms` record that is not finite.

The argparse tree is built once, at import, and `main` only parses with it:
building it costs about ten times a parse, which every in-process call (a
library user, the tests, the benchmark's workers) would otherwise pay. The
parser keeps no state between parses, and help is formatted, at the
terminal's width, only when it is printed. A token that starts with `-` and
a digit, `.` and a digit, `inf` or `nan` is a value, not an option:
`--lambda -2e-3` is `--lambda=-2e-3`, and `--config -1.json` names `-1.json`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import nonlinearity
from .diagnostics import measure
from .data import make_datum
from .experiments import EXPERIMENTS, ExperimentReport
from .integrator import IntegrationError, samples
from .io import (
    ConfigError,
    load_config,
    read_snapshot,
    write_snapshot,
    write_timeseries,
)

__all__ = ["main"]


def _print_report(report: ExperimentReport) -> None:
    print(f"experiment : {report.name}")
    print(f"digest     : {report.config_digest[:16]}")
    print(f"samples    : {report.n_samples}")
    width = max([32, *map(len, report.margins)])  # convergence labels can be longer
    for label in sorted(report.margins):
        print(f"  {label:<{width}} {report.margins[label]:.6e}")
    print(f"verdict    : {report.verdict.upper()}")


def _report_json(report: ExperimentReport) -> dict:
    out = dataclasses.asdict(report)
    out["verdict"] = report.verdict
    return out


def _cmd_simulate(args) -> int:
    """Write each snapshot as it is sampled and the CSV once, also when the run
    fails: memory does not grow with the snapshot count, and a failed run
    keeps what it sampled before the failure. The datum is made before the
    output directory and handed to `samples` without a name here, so it is
    freed once the run's state holds it."""
    doc = load_config(args.config)
    run = samples(make_datum(doc.datum, doc.sim.geometry), doc.sim)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "timeseries.csv"
    records, n_snapshots, t, failed = [], 0, None, False
    try:
        for t, record, snapshot in run:
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
    report = EXPERIMENTS[args.name].run(doc.datum, doc.sim, **doc.experiment)
    _print_report(report)
    Path(args.out).write_text(json.dumps(_report_json(report), indent=2) + "\n")
    return 0 if report.passed else 1


def _cmd_norms(args) -> int:
    s_values = [float(tok) for tok in args.s.split(",") if tok]
    for flag, v in (("--lambda", args.lam), ("--eps", args.eps), *(("--s", s) for s in s_values)):
        if not math.isfinite(v):
            raise ValueError(f"{flag} must be finite, got {v}")
    field, t = read_snapshot(args.snapshot)
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


# the moduli and eps of `check-inequality` are log-uniform on [1e-15, 1e15]
_LOG_SPAN = 15.0 * math.log(10.0)
_DRAW = 2**16  # pairs per chunk of the stream: fixes the sample stream
_BLOCK = 2**13  # pairs per kernel call: 64 KiB per float array, bounds the memory


def _cmd_check_inequality(args) -> int:
    """Randomized suite for the monotonicity-gap inequality (and its eps = 0 case).

    The gap, its bound and the slack do not change when z1 and z2 are rotated
    together, so only their relative phase matters. Each pair is drawn as
    z1 = r1 (real) and z2 = r2 w / |w|, with w a standard complex normal: w / |w|
    is uniform on the circle, so the relative phase is uniform, as it is for
    two independent uniform phases, and needs no cos or sin.

    The stream is cut in chunks of _DRAW pairs. A chunk of c pairs starts with
    the moduli, rows x c uniforms in row-major order (r1, r2 and, unless
    eps_zero, eps1, eps2), and goes on with w, one normal draw per block of
    _BLOCK pairs. The moduli are not held for the whole chunk: at its start,
    spare generator k is set to the main generator's state advanced by k c,
    and draws row k one block at a time, while the main generator, advanced
    past the rows x c uniforms, draws each block's w just before its block is
    evaluated. `random` takes one 64-bit output per double, so every modulus
    has the bits of a whole-chunk draw, and the buffers, allocated once, hold
    one block. The kernels take the real z1 as it is and the scalar eps = 0
    of the eps_zero case as a scalar; the slack, the margin and the ratio are
    formed in place, the slack's |z1 - z2| from z2's buffer once the kernels
    have read it. Every kernel is elementwise and the reductions are a count
    and maxima, so the output does not depend on the block size.
    """
    n, seed = args.samples, args.seed
    if n < 1:
        raise ValueError(f"--samples must be at least 1, got {n}")
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    # one generator per row of moduli, made once per call (building one costs a
    # seeding, or without a seed an OS entropy read); each chunk sets its state
    rows_rng = [np.random.Generator(np.random.PCG64(seed)) for _ in range(4)]
    block_size = min(n, _DRAW, _BLOCK)
    moduli_buf = np.empty(4 * block_size)  # r1, r2 and, unless eps_zero, eps1, eps2
    normal_buf = np.empty(2 * block_size)  # w of one block, as complex pairs
    non_finite = 0  # samples whose gap or bound is inf or nan: any one fails
    worst = -math.inf  # the largest gap - bound - slack over the finite samples
    ratio = 0.0  # the largest gap / (bound + slack): how close the bound came
    for eps_zero in (False, True):
        rows = 2 if eps_zero else 4
        remaining = n
        while remaining > 0:
            chunk = min(remaining, _DRAW)
            remaining -= chunk
            state = rng.bit_generator.state
            for k, row_rng in enumerate(rows_rng[:rows]):
                row_rng.bit_generator.state = state
                row_rng.bit_generator.advance(k * chunk)
            rng.bit_generator.advance(rows * chunk)
            for lo in range(0, chunk, _BLOCK):
                size = min(_BLOCK, chunk - lo)
                # bitwise rng.uniform(-_LOG_SPAN, _LOG_SPAN, size=(rows, chunk))[:, block]
                moduli = moduli_buf[: rows * size].reshape(rows, size)
                for row, row_rng in zip(moduli, rows_rng):
                    row_rng.random(out=row)
                moduli *= 2.0 * _LOG_SPAN
                moduli -= _LOG_SPAN
                np.exp(moduli, out=moduli)
                r1, r2 = moduli[0], moduli[1]
                e1, e2 = (0.0, 0.0) if eps_zero else (moduli[2], moduli[3])
                z2 = rng.standard_normal(out=normal_buf[: 2 * size]).view(complex)
                z2 *= r2 / np.abs(z2)
                gap = np.abs(nonlinearity.monotonicity_gap(r1, z2, e1, e2))
                bound = nonlinearity.monotonicity_bound(r1, z2, e1, e2)
                # 1e-12 (1 + |z1 - z2|^2), formed in place: z2 is the block's own
                # buffer, which becomes z2 - z1, of modulus |z1 - z2| bit for bit
                z2.real -= r1
                slack = np.abs(z2)
                slack *= slack
                slack += 1.0
                slack *= 1e-12
                finite = np.isfinite(gap)
                finite &= np.isfinite(bound)
                non_finite += r1.size - int(np.count_nonzero(finite))
                margin = gap - bound
                margin -= slack
                worst = max(worst, float(np.maximum.reduce(margin, axis=None, where=finite,
                                                           initial=-math.inf)))
                quotient = np.add(bound, slack, out=slack)
                np.divide(gap, quotient, out=quotient)
                ratio = max(ratio, float(np.maximum.reduce(quotient, axis=None, where=finite,
                                                           initial=0.0)))
    passed = non_finite == 0 and worst <= 0.0
    print(f"samples per case : {n}")
    print(f"non-finite       : {non_finite} (gap or bound; 0 passes)")
    print(f"worst margin     : {worst:.6e} (<= 0 passes)")
    print(f"worst ratio      : {ratio:.6e} (<= 1 passes)")
    print("verdict          :", "PASS" if passed else "FAIL")
    return 0 if passed else 1


class _Parser(argparse.ArgumentParser):
    """Reads negative numbers as values, as the module docstring says, where
    Python 3.11's own rule takes `-2e-3` for an option. `add_subparsers`
    builds each command's parser from this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except (OSError, ValueError, IntegrationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
