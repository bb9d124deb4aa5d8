"""The traced benchmark's contract with the package.

`perfbench/run.py --trace 1` reports a per-layer metric for every
`<module>.<function>` layer that BENCHMARK.json declares, from the stats of
perfbench's tracer, which wraps the functions named in each traced module's
`__all__`. A layer that drops out of `__all__` makes the traced run fail, so
this test installs the tracer in-process and checks that every declared layer
is wrapped.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", module)
    spec.loader.exec_module(module)
    return module


def test_every_declared_layer_is_traced(monkeypatch):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # `<layer>.<quantity>` with a two-part layer name; io byte counters and
    # trace.overhead_frac are run totals, not layers
    layers = {m["name"].rsplit(".", 1)[0] for m in declared if m["name"].count(".") == 2}
    assert "spectral.hs_multiplier_norm" in layers and "integrator.step" in layers

    tracer_module = load_tracer_module(monkeypatch)
    for short in tracer_module.TRACED_MODULES:
        importlib.import_module(f"logns.{short}")
    tracer = tracer_module.Tracer()
    with tracer.installed():
        traced = set(tracer.stats)
    assert layers <= traced, f"declared but not traced: {sorted(layers - traced)}"
