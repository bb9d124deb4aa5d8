"""Benchmark of the `logns` CLI: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `logns` from `src/` there and
writes only under `.perfbench_work/`, which it removes again.

Workloads (see `workloads.py`):
  torus2d-simulate        the stepping floor: 200 Strang steps on a 256^2 torus
  verify-1d               the cost of a verdict: seven experiments, the
                          inequality suite and norm-equivalence fields in 1-d
  dirichlet-slab-records  odd extension, dense records, and a Gagliardo norm
                          of a snapshot read back

One run first starts `SETUP_SPAWNS` workers that only set up, then one worker
that measures for `--seconds`; each worker is a fresh `python3` process that
runs the CLI calls in-process and is waited for. Every timing is a median.

The host this was built on (a 2-vCPU VM on a shared 2.1 GHz Xeon) changes
speed by up to 1.8x within seconds and stays slow for minutes at a time, so raw
wall times of two runs of the same code differ by more than a regression
worth catching. Each worker therefore times a fixed reference kernel, the
`SpeedProbe` in `worker.py`, right after its set-up and around every timed
call, and each timing is reported at the probe's reference speed:
seconds * PROBE_REF_S / probe seconds. The unscaled medians are printed too.

End-to-end metrics (`--trace 0`), all at the probe's reference speed:
  setup_s      process start to the first timed call (import numpy and logns,
               write the inputs); median over every worker of the run
  wall_s       one workload unit: the sum of its CLI call times
  steps_per_s  config steps (t_final / dt of each simulate or experiment
               config) over the time of those calls, per unit
  norms_s      one `logns norms` call
  peak_rss_mb  ru_maxrss of the measuring worker (not scaled)

Per-layer metrics (`--trace 1`) are `<module>.<function>.<q>` for q in calls,
self_s, total_s and points, per unit, plus the io byte counters, FFT calls and
phase rotations per config step, and `trace.overhead_frac`, the traced unit
wall time over the untraced one minus 1. Counts repeat exactly.

`attempted` counts CLI calls; a call fails on a nonzero exit, an exception or a
failed output check. `correct` is false when an output check fails, or when a
count differs between the traced units of one run. The last
line of stdout is the JSON result; the lines before it give every metric by
name and unit with its sample count, the failures, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 9
# the probe's time on the host above when it runs at full speed; scaled timings
# read as seconds on that host at full speed
PROBE_REF_S = 0.0055
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
                 timeout: float) -> dict:
    # one thread per process: the load comes from this single worker
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.time()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _op_failures(units: list[dict]) -> tuple[int, int, list[str], bool]:
    attempted = failed = 0
    messages: dict[str, int] = {}
    correct = True
    for unit in units:
        for op in unit["ops"]:
            attempted += 1
            if op["problems"]:
                failed += 1
                for problem in op["problems"]:
                    key = f"{op['label']}: {problem}"
                    messages[key] = messages.get(key, 0) + 1
                # an exception leaves no output to check; anything else is a wrong output
                correct &= op["raised"]
    return attempted, failed, [f"{k} (x{n})" for k, n in messages.items()], correct


def timings(main: dict, setups: list[dict], op_s: Callable[[dict], float],
            setup_s: Callable[[dict], float]) -> dict:
    units = main["units"]
    stepping = [[op for op in u["ops"] if op["steps"]] for u in units]
    return {
        "setup_s": median(setup_s(w) for w in setups),
        "wall_s": median(sum(op_s(op) for op in u["ops"]) for u in units),
        "steps_per_s": median(sum(op["steps"] for op in ops) / sum(op_s(op) for op in ops)
                              for ops in stepping),
        "norms_s": median(op_s(op) for u in units for op in u["ops"] if op["kind"] == "norms"),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict, dict]:
    """Metrics at the probe's reference speed, their sample counts, and unscaled values."""
    values = timings(main, setups, lambda op: op["s"] * PROBE_REF_S / op["probe_s"],
                     lambda w: w["setup_s"] * PROBE_REF_S / w["setup_probe_s"])
    raw = timings(main, setups, lambda op: op["s"], lambda w: w["setup_s"])
    units = main["units"]
    samples = {"setup_s": len(setups), "wall_s": len(units), "steps_per_s": len(units),
               "norms_s": sum(op["kind"] == "norms" for u in units for op in u["ops"]),
               "peak_rss_mb": 1}
    return values, samples, raw


def per_layer(main: dict) -> tuple[dict, dict, list[str]]:
    traced = main["traced_units"]
    problems = []
    layers = [u["layers"] for u in traced]
    values = {}
    for name, first in layers[0].items():
        if isinstance(first, int):  # calls, points and bytes repeat exactly
            counts = {layer[name] for layer in layers}
            if len(counts) != 1:
                problems.append(f"{name} differs between traced units: {sorted(counts)}")
            values[name] = first
        else:
            values[name] = median(layer[name] for layer in layers)
    stepping = [op for op in traced[0]["ops"] if op["steps"]]
    steps = sum(op["steps"] for op in stepping)
    for key, name in (("numpy.fft.calls", "numpy.fft.per_step"),
                      ("nonlinearity.phase_flow.calls", "nonlinearity.phase_flow.per_step")):
        values[name] = sum(op["counts"][key] for op in stepping) / steps
    untraced = median(u["wall_s"] for u in main["units"])
    values["trace.overhead_frac"] = median(u["wall_s"] for u in traced) / untraced - 1.0
    samples = dict.fromkeys(values, len(traced))
    return values, samples, problems


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 declared: list[dict]) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups = [spawn_worker(workload, seed, seconds, trace, True, deadline - time.monotonic())
              for _ in range(SETUP_SPAWNS)]
    main = spawn_worker(workload, seed, seconds, trace, False, deadline - time.monotonic())
    setups.append(main)

    units = main["units"] + main.get("traced_units", [])
    attempted, failed, messages, correct = _op_failures(units)
    raw = {}
    if trace:
        values, samples, problems = per_layer(main)
        if problems:
            correct = False
            messages += problems
    else:
        values, samples, raw = end_to_end(main, setups)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "samples": {m["name"]: samples[m["name"]] for m in declared}, "unscaled": raw,
            "messages": messages, "env": main["env"]}


def report(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, metric in result["metrics"].items():
        unscaled = result["unscaled"].get(name)
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']:<10} "
              f"(n={result['samples'][name]}"
              + (f", unscaled {unscaled:.6g})" if unscaled is not None else ")"))
    for message in result["messages"]:
        print(f"  failure: {message}")
    print(f"  env: {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (spec_path.is_file() and (ROOT / "src" / "logns" / "__init__.py").is_file()):
        print(f"needs BENCHMARK.json and src/logns under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, declared)
                   for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for workload, result in results.items():
        report(workload, result)
    if len(results) == 1:
        (final,) = results.values()
        metrics = final["metrics"]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
