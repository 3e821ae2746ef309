"""perfbench/tracer.py wraps package functions by name and binds some of
their arguments: a rename or removal would fail every traced benchmark run
while the rest of the suite passes."""

import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """The tracer module, loaded by path; its main runs only as a script."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = load_tracer()
    labels = set()
    for mod_name, names in tracer.SPANNED.items():
        for name in names:
            assert callable(getattr(tracer.MODULES[mod_name], name, None)), (mod_name, name)
            labels.add(f"{mod_name}.{name}")
    assert set(tracer.COUNTS) | set(tracer.KEYS) <= labels
    # the tracer keys vector_orbit's spans on its bound root and q
    bound = inspect.signature(tracer.congruence.vector_orbit).bind((-11, 21, 24, 28), 24)
    bound.apply_defaults()
    assert tracer.KEYS["congruence.vector_orbit"](bound.arguments) == [[-11, 21, 24, 28], 24]
