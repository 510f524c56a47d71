"""Every name the benchmark's tracer wraps is an attribute of the library.

A renamed function would otherwise show up only as ``missing`` in a traced
run's stamp, with zeros in its per-layer figures.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.traced_names()


def test_every_traced_name_resolves():
    missing = []
    for name in _traced_names():
        layer, _, qual = name.partition(".")
        owner = importlib.import_module(f"ascolim.{layer}")
        for part in qual.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
