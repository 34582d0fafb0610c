"""Every layer the benchmark's tracer wraps still exists in fillpoly.

perfbench/tracer.py names each wrapped function by module and attribute,
and each wrapped method by class and attribute, looked up in the class's
own __dict__.  A name a refactor drops would fail only the benchmark, so
the tables are read here; the tracer is loaded by path, not installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.FUNCTIONS, tracer.METHODS


def test_every_traced_function_resolves():
    functions, _ = _tracer_tables()
    for _, module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            "%s.%s" % (module, attr)


def test_every_traced_method_resolves():
    _, methods = _tracer_tables()
    for _, module, cls_name, attrs, _ in methods:
        cls = getattr(importlib.import_module(module), cls_name)
        for attr in attrs:
            assert callable(vars(cls).get(attr)), \
                "%s.%s.%s" % (module, cls_name, attr)
