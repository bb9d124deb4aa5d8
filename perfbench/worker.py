"""Worker process of the benchmark: one per run, calling `logns.cli.main` in-process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --spawned-at T [--setup-only]

`--spawned-at` is the parent's `time.time()` just before it started this
process, so set-up time covers interpreter start, importing numpy and `logns`
and writing the generated inputs. The last line of stdout is one JSON object
with the raw measurements; `run.py` turns it into metrics.

Untraced (`--trace 0`): units run back to back until `--seconds` have passed
(at least `MIN_UNITS`), and each CLI call is timed from outside, with the
`SpeedProbe` timed before the first call and after each one. Every worker also
times the probe right after its set-up. Traced (`--trace 1`): untraced and
traced units alternate, without probes, so the traced run gives per-layer
stats and the tracing overhead against the untraced units of the same process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
MIN_UNITS = 3
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 3

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import logns  # noqa: E402
from logns import cli  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def run_op(op: Op, tracer: Tracer | None) -> dict:
    for path in op.clear:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)
    before = tracer.snapshot() if tracer is not None else None
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as exc:  # the op failed; count it and keep the run going
        elapsed = time.perf_counter() - start
        problems = [f"{type(exc).__name__}: {exc}"]
        raised = True
    else:
        raised = False
        elapsed = time.perf_counter() - start
        try:
            problems = op.check(code, out.getvalue())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output check: {type(exc).__name__}: {exc}"]
        if code != 0 and err.getvalue().strip():
            problems.append(err.getvalue().strip().splitlines()[-1])
    result = {"label": op.label, "kind": op.kind, "steps": op.steps, "s": elapsed,
              "problems": problems, "raised": raised}
    if tracer is not None and op.steps:
        after = tracer.snapshot()
        result["counts"] = {k: after[k] - before[k]
                            for k in ("numpy.fft.calls", "nonlinearity.phase_flow.calls")}
    return result


class SpeedProbe:
    """A fixed reference kernel, timed between the CLI calls of a unit.

    The host's speed drifts by tens of percent within seconds and over minutes,
    and it slows large-array numpy code more than interpreter-bound code. The
    probe mixes both kinds of work, so the time of a call over the time of the
    probes on either side of it follows the program and not the host. The
    probe's code and inputs are fixed: changing them changes every metric.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20231101)
        self.grid = rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128))
        self.small = rng.standard_normal((64, 64)) + 0j

    def __call__(self) -> float:
        start = time.perf_counter()
        a = self.grid
        for _ in range(8):  # split steps: FFT pair and phase rotation on a 64x128 grid
            b = np.fft.ifftn(np.fft.fftn(a) * 0.999)
            a = b * np.exp(1j * np.log(np.abs(b) + 1e-3))
        total = 0.0
        for shift in range(64):  # small numpy calls in a loop, like the Gagliardo sum
            total += float(np.sum(np.abs(np.roll(self.small, shift, axis=1) - self.small) ** 2))
        for i in range(20000):  # the interpreter alone
            total += i
        return time.perf_counter() - start


def run_unit(ops: list[Op], tracer: Tracer | None = None,
             probe: SpeedProbe | None = None) -> dict:
    if tracer is not None:
        tracer.reset()
    results = []
    before = probe() if probe is not None else 0.0
    for op in ops:
        result = run_op(op, tracer)
        if probe is not None:
            after = probe()
            result["probe_s"] = 0.5 * (before + after)
            before = after
        results.append(result)
    unit = {"wall_s": sum(r["s"] for r in results), "ops": results}
    if tracer is not None:
        unit["layers"] = tracer.snapshot()
    return unit


def setup(workload: str, seed: int) -> tuple[Path, list[Op]]:
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    return work, WORKLOADS[workload](work, seed)


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(logns.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"logns imported from {logns.__file__}, not from this checkout", file=sys.stderr)
        return 2

    work, ops = setup(args.workload, args.seed)
    setup_s = time.time() - args.spawned_at
    probe = SpeedProbe()
    result = {"setup_s": setup_s, "setup_probe_s": median(probe() for _ in range(SETUP_PROBES)),
              "env": environment(args.seed)}
    try:
        if not args.setup_only:
            deadline = time.perf_counter() + args.seconds
            if args.trace:
                tracer = Tracer()
                untraced, traced = [], []
                while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
                    untraced.append(run_unit(ops))
                    with tracer.installed():
                        traced.append(run_unit(ops, tracer))
                result.update(units=untraced, traced_units=traced)
            else:
                units = []
                while len(units) < MIN_UNITS or time.perf_counter() < deadline:
                    units.append(run_unit(ops, probe=probe))
                result["units"] = units
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another worker's directory is still there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
