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
from .diagnostics import exponent_label, measure
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


def _cmd_simulate(args) -> int:
    """Write the CSV's header, then each row and each snapshot as it is
    sampled: memory does not grow with the record or snapshot count, and a
    failed run keeps what it sampled before the failure. A CSV that cannot be
    opened stops the command before the run. The datum is made before the
    output directory and handed to `samples` without a name here, so it is
    freed once the run's state holds it."""
    doc = load_config(args.config)
    run = samples(make_datum(doc.datum, doc.sim.geometry), doc.sim)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "timeseries.csv"
    n_records, n_snapshots, t, failed = 0, 0, None, False

    def records():
        nonlocal n_records, n_snapshots, t, failed
        try:
            for t, record, snapshot in run:
                if record is not None:
                    yield record  # its row is written before the run goes on
                    n_records += 1
                if snapshot is not None:
                    write_snapshot(snapshot, t, out_dir / f"snapshot_{n_snapshots:06d}.bin")
                    n_snapshots += 1
        except (OSError, ValueError, IntegrationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True

    # an OSError of the CSV itself reaches main, which exits 2
    write_timeseries(records(), csv, doc.sim.hs_values)
    if failed:
        last = "" if t is None else f", last sample at t={t:g}"
        print(f"kept {csv} ({n_records} records, {n_snapshots} snapshots{last})",
              file=sys.stderr)
        return 2
    print(f"wrote {csv} ({n_records} records, {n_snapshots} snapshots)")
    return 0


def _cmd_experiment(args) -> int:
    doc = load_config(args.config, experiment=args.name)
    report = EXPERIMENTS[args.name].run(doc.datum, doc.sim, **doc.experiment)
    _print_report(report)
    text = json.dumps({**dataclasses.asdict(report), "verdict": report.verdict}, indent=2)
    try:
        Path(args.out).write_text(text + "\n")
    except OSError as exc:  # a fault at close does not name the file
        raise OSError(f"cannot write report to {args.out}: {exc}") from exc
    return 0 if report.passed else 1


def _number(flag: str, token: str, kind: type = float):
    """`token` as `kind` reads it, if made of ASCII signs, points, digits and letters."""
    try:
        return kind(re.fullmatch(r"[-+.0-9A-Za-z]+", token)[0])  # no match: None[0], a TypeError
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{flag} must be {what}, got {token!r}") from None


def _cmd_norms(args) -> int:
    try:
        s_values = [_number("--s", tok) for tok in args.s.split(",")]
    except ValueError:
        raise ValueError(f"--s must be a comma-separated list of numbers, got {args.s!r}") from None
    lam, eps = _number("--lambda", args.lam), _number("--eps", args.eps)
    for flag, v in (("--lambda", lam), ("--eps", eps), *(("--s", s) for s in s_values)):
        if not math.isfinite(v):
            raise ValueError(f"{flag} must be finite, got {v}")
    field, t = read_snapshot(args.snapshot)
    fractional = tuple(s for s in s_values if 0.0 < s < 1.0)
    record = measure(field, t, lam, eps, tuple(s_values), fractional)
    print(f"time   : {t:.17g}")
    print(f"mass   : {record.mass:.17g}")
    print(f"energy : {record.energy:.17g}")
    for s in s_values:
        line = f"H^{exponent_label(s)}  : multiplier {record.hs_norms[s]:.17g}"
        if s in record.gagliardo_norms:
            line += f"  gagliardo {record.gagliardo_norms[s]:.17g}"
        print(line)
    return 0


# the moduli and eps of `check-inequality` are log-uniform on [1e-15, 1e15]
_LOG_SPAN = 15.0 * math.log(10.0)
_BLOCK = 2**13  # pairs per draw and kernel call: fixes the stream, bounds the memory


def _draw_z2(u: np.ndarray, r2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r2 e^{i theta} in the complex `out`, theta = pi (2u - 1) for each uniform u
    (overwritten). u = 0 gives tan(theta / 2) = -1.6e16: z2 = -r2 to 1.2e-16 r2."""
    u -= 0.5
    u *= math.pi
    cos = np.empty_like(u)  # freed on return; q in the strided out.real took 25 % longer
    nonlinearity._half_angle_phase(u, u, cos, cos)
    np.multiply(u, r2, out=out.imag)
    np.multiply(cos, r2, out=out.real)
    return out


def _cmd_check_inequality(args) -> int:
    """Randomized suite for the monotonicity-gap inequality (and its eps = 0 case).

    The gap, its bound and the slack do not change when z1 and z2 are rotated
    together, so only their relative phase matters. Each pair is drawn as
    z1 = r1 (real) and z2 = r2 e^{i theta}, theta = pi (2u - 1) for one uniform
    u: the relative phase is uniform, as for two independent uniform phases.

    The one generator's stream is cut in blocks of _BLOCK pairs. A block of c
    pairs is one draw of 5 x c uniforms in row-major order (r1, r2, eps1,
    eps2, u); both cases are judged on it, the kernels running with the scalar
    eps = 0 and then with (eps1, eps2) on the same r1 and z2, so each case has
    n i.i.d. pairs. Two buffers, allocated once, hold a block: the draw, 40 B
    a pair, and z2, 16 B a pair. The slack 1e-12 (1 + |z1 - z2|^2) is formed
    once per block from the eps = 0 bound, in r2's row; the margin and the
    ratio are formed in place. At 10^6 pairs the traced peak is 1,208,690 B.
    """
    n, seed = _number("--samples", args.samples, int), _number("--seed", args.seed, int)
    if n < 1:
        raise ValueError(f"--samples must be at least 1, got {n}")
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    block_size = min(n, _BLOCK)
    draw_buf = np.empty(5 * block_size)  # r1, r2 (then the slack), eps1, eps2, u
    z2_buf = np.empty(block_size, dtype=complex)
    non_finite = 0  # samples whose gap or bound is inf or nan: any one fails
    worst = -math.inf  # the largest gap - bound - slack over the finite samples
    ratio = 0.0  # the largest gap / (bound + slack): how close the bound came
    for lo in range(0, n, _BLOCK):
        size = min(_BLOCK, n - lo)
        draw = rng.random(out=draw_buf[: 5 * size]).reshape(5, size)
        moduli = draw[:4]
        moduli *= 2.0 * _LOG_SPAN
        moduli -= _LOG_SPAN
        np.exp(moduli, out=moduli)
        r1 = moduli[0]
        z2 = _draw_z2(draw[4], moduli[1], z2_buf[:size])
        slack = None
        for e1, e2 in ((0.0, 0.0), (moduli[2], moduli[3])):
            gap = np.abs(nonlinearity.monotonicity_gap(r1, z2, e1, e2))
            bound = nonlinearity.monotonicity_bound(r1, z2, e1, e2)
            if slack is None:  # eps = 0: the bound 0 d + d d is fl(d^2), d = |z1 - z2|
                slack = np.add(bound, 1.0, out=moduli[1])  # r2's row: z2 holds r2
                slack *= 1e-12
            finite = np.isfinite(gap)
            finite &= np.isfinite(bound)
            non_finite += size - int(np.count_nonzero(finite))
            margin = gap - bound
            margin -= slack
            worst = max(worst, float(np.maximum.reduce(margin, axis=None, where=finite,
                                                       initial=-math.inf)))
            quotient = np.add(bound, slack, out=margin)
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
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("check-inequality", help="randomized monotonicity-gap suite")
    p.add_argument("--samples", default="1000000")
    p.add_argument("--seed", default="0")
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
