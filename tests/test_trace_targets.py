"""The benchmark's tracer still finds every name it patches.

``perfbench/tracing.py`` wraps functions, methods and a cached property
of kauffpoly by name.  A rename or deletion in the package breaks every
``--trace 1`` benchmark run, so the tracer is installed here once and
taken off again.
"""

import importlib.util
from pathlib import Path

import kauffpoly.verification  # noqa: F401  (imports every traced layer)
from kauffpoly.diagram import Diagram, parse_pd

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("kauffpoly_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    tracing = load_tracing()
    splice = Diagram.__dict__["splice"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        parse_pd("X(1,2,2,1)").splice(0, "A")
        assert len(tracer) > 0
    finally:
        tracer.uninstall()
    assert Diagram.__dict__["splice"] is splice
