"""The traced benchmark's contract with the package.

`perfbench/run.py --trace 1` reports a per-layer metric for every
`<module>.<function>` layer that BENCHMARK.json declares, from the stats of
perfbench's tracer, which wraps the functions named in each traced module's
`__all__`. A layer that drops out of `__all__` makes the traced run fail, so
this test installs the tracer in-process and checks that every declared layer
is wrapped, and that a command reaches the wrapped function. Conversely, a
function in a traced `__all__` is public API: code of the package other than
its own definition must use it, or BENCHMARK.json must declare it as a layer.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from test_cli import MATRIX_GEOMETRIES, matrix_config

from logns.cli import main
from logns.experiments import EXPERIMENTS
from logns.geometry import DomainKind

ROOT = Path(__file__).resolve().parents[1]


def load_tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", module)
    spec.loader.exec_module(module)
    return module


def installed_tracer(monkeypatch):
    tracer_module = load_tracer_module(monkeypatch)
    for short in tracer_module.TRACED_MODULES:
        importlib.import_module(f"logns.{short}")
    return tracer_module.Tracer().installed()


def declared_layers() -> set[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # `<layer>.<quantity>` with a two-part layer name; io byte counters and
    # trace.overhead_frac are run totals, not layers
    return {m["name"].rsplit(".", 1)[0] for m in declared if m["name"].count(".") == 2}


def used_names(tree: ast.Module, module: str, own: bool) -> set[str]:
    """The names of `logns.<module>` that the module parsed as `tree` uses: a
    name imported by `from .<module> import name`, or `<module>.name` after
    `from . import <module>`; in `<module>` itself (`own`), any name used
    outside its own top-level definition."""
    if own:
        return {sub.id for node in tree.body for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and getattr(node, "name", None) != sub.id}
    imported, aliases = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == module:
                imported |= {a.asname or a.name: a.name for a in node.names}
            elif node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            used.add(imported[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_no_dead_public_api(monkeypatch):
    """Every function in a traced module's `__all__` is used elsewhere in the
    package or is a layer that BENCHMARK.json declares."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in (ROOT / "src" / "logns").glob("*.py")}
    layers = declared_layers()
    dead = []
    for short in load_tracer_module(monkeypatch).TRACED_MODULES:
        module = importlib.import_module(f"logns.{short}")
        used = set().union(*(used_names(tree, short, stem == short)
                             for stem, tree in trees.items()))
        dead += [f"{short}.{name}" for name in module.__all__
                 if callable(fn := getattr(module, name)) and not isinstance(fn, type)
                 and name not in used and f"{short}.{name}" not in layers]
    assert dead == []


def test_every_declared_layer_is_traced(monkeypatch):
    layers = declared_layers()
    assert "spectral.hs_multiplier_norm" in layers and "integrator.step" in layers

    with installed_tracer(monkeypatch) as tracer:
        traced = set(tracer.stats)
    assert layers <= traced, f"declared but not traced: {sorted(layers - traced)}"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_command_calls_its_traced_runner_once(monkeypatch, tmp_path, capsys, name):
    """The registry reaches each runner through the module, where the tracer wraps it."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(matrix_config(name, MATRIX_GEOMETRIES[DomainKind.TORUS])))
    with installed_tracer(monkeypatch) as tracer:
        code = main(["experiment", name, "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code in (0, 1), capsys.readouterr().err
    calls = {entry.runner: tracer.stats[f"experiments.{entry.runner}"].calls
             for entry in EXPERIMENTS.values()}
    assert calls == {entry.runner: int(key == name) for key, entry in EXPERIMENTS.items()}


@pytest.mark.parametrize("geometry", [{"kind": "torus", "points": [32]},
                                      {"kind": "dirichlet_interval", "points": [32], "lengths": [1.0]}],
                         ids=["torus", "interval"])
def test_a_run_reaches_the_step_and_record_layers(monkeypatch, tmp_path, capsys, geometry):
    """The declared layers are the kernels a run calls: one FFT pair and one
    rotation per step, Strang's closing half-rotation at each sample after
    step 0, and one multiplier norm per record and tracked exponent."""
    doc = {"geometry": geometry,
           "sim": {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": 0.01,
                   "splitting": "strang", "record_every": 3, "snapshot_every": 4,
                   "hs_values": [0.5, 1.0]},
           "datum": {"kind": "gaussian_bump", "width": 0.1}}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with installed_tracer(monkeypatch) as tracer:
        code = main(["simulate", "--config", str(tmp_path / "config.json"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    steps, records, snapshots = 10, {0, 3, 6, 9, 10}, {0, 4, 8, 10}
    calls = {name: tracer.stats[name].calls for name in (
        "spectral.free_propagator", "nonlinearity.phase_flow", "spectral.hs_multiplier_norm")}
    assert calls == {"spectral.free_propagator": steps,
                     "nonlinearity.phase_flow": steps + len((records | snapshots) - {0}),
                     "spectral.hs_multiplier_norm": len(records) * 2}
