"""The benchmark's tracer still finds every name it patches.

``perfbench/tracing.py`` wraps functions, methods and a cached property
of kauffpoly by name.  A rename or deletion in the package breaks every
``--trace 1`` benchmark run, so the tracer is installed here once and
taken off again.  ``LaurentPoly`` and ``BivariatePoly`` bind the same
shared operator functions, so an undo that restored one class's
entries and not the other's would leave a class wrapped; every patched
method must be the original object again afterwards.
"""

import importlib
import importlib.util
from pathlib import Path

import kauffpoly.verification  # noqa: F401  (imports every traced layer)
from kauffpoly.diagram import parse_pd
from kauffpoly.laurent import BivariatePoly, LaurentPoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("kauffpoly_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls():
    tracing = load_tracing()
    classes = {
        cls_name: getattr(importlib.import_module(f"kauffpoly.{mod}"), cls_name)
        for mod, cls_name in tracing.METHODS
    }
    assert {"Diagram", "LaurentPoly", "BivariatePoly"} <= classes.keys()
    originals = {
        (cls_name, name): classes[cls_name].__dict__[name]
        for (_, cls_name), methods in tracing.METHODS.items()
        for name in methods
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (cls_name, name), original in originals.items():
            assert classes[cls_name].__dict__[name] is not original, f"{cls_name}.{name}"
        parse_pd("X(1,2,2,1)").splice(0, "A")
        LaurentPoly.one() + 1
        BivariatePoly.one() * BivariatePoly.one()
        assert len(tracer) > 0
    finally:
        tracer.uninstall()
    for (cls_name, name), original in originals.items():
        assert classes[cls_name].__dict__[name] is original, f"{cls_name}.{name}"
