"""The benchmark's per-layer tracer (bench/layers.py) still fits the
program: the names it wraps exist where their callers look them up, and the
counters it derives agree with each other on a traced simulate run."""

import importlib
import os

import curveflow.app

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_counts_a_simulate_run_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    layers = importlib.import_module("layers")
    originals = {name: getattr(module, attr) for name, (module, attr) in layers.SPANS.items()}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scheme = sp-bdf2\nshape = ellipse\nN = 16\ntau = 0.01\nT = 0.05\ngamma = 0\nout = {tmp_path / 'out'}\n")
    tracer = layers.Tracer()
    tracer.install()
    try:
        rc = curveflow.app.main(["simulate", "--config", str(cfg)])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert rc == 0
    assert metrics["linalg.solves"] > 0
    # every system has N = 16 vertices and both borders: 3N + 2 unknowns
    assert metrics["linalg.unknowns"] == 50 * metrics["linalg.solves"]
    assert metrics["linalg.two_border_solves"] == metrics["linalg.solves"]
    assert metrics["femcore.assemble_calls"] == metrics["linalg.solves"]
    # one bordered system per Newton run
    assert tracer.calls["schemes.assemble_system"] == metrics["schemes.newton_solves"] > 0
    for name, (module, attr) in layers.SPANS.items():
        assert getattr(module, attr) is originals[name], name
