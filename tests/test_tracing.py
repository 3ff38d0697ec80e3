"""The benchmark's traced runs (perfbench/tracing.py) wrap package names at
module boundaries; every name they wrap must exist and keep its shape."""

from pathlib import Path

import numpy as np

import dtvol.cli  # noqa: F401  (the tracer also wraps the CLI's bindings)
from dtvol import solver, volume
from dtvol.words import KnotParam


def test_traced_run_of_every_library_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing

    tr = tracing.Tracer()
    before = tracing.install(tr)
    try:
        volume.cone_volume(KnotParam(2, -1), 0.0, 1e-9)
        volume.volume_curve(KnotParam(4, 1), list(np.linspace(0.5, np.pi, 3)), 1e-9)
        solver.find_alpha_K(KnotParam(4, 1))
    finally:
        tr.uninstall()
    spans = tr.summary()
    assert spans["solver.branch"][0] == 2
    assert spans["solver.alpha_K"][0] == 1
    data = {"spans": spans, "counts": tr.counts, "caches": tracing.cache_deltas(before),
            "overhead": 1.0}
    metrics, _ = tracing.layer_metrics(data, 3)
    assert metrics["solver.branch.candidates"] == 1.0
    assert metrics["volume.evals_per_volume"] > 0
