"""The tables of perfbench/tracing.py must match the package's lookups.

Only the tracer's tables are read; ``install`` is never called, so nothing
is patched.  A rename in the package that leaves a table entry dangling
would otherwise surface only as a crash of ``perfbench/run.py --trace 1``;
a new module-level alias of a traced function, left out of the table, would
leave every call through it silently untraced.
"""

import importlib
import pkgutil
from pathlib import Path

import sobolev1d

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = [
        f"{module.__name__}.{attr}"
        for places in tracing.FUNCTIONS.values()
        for module, attr in places
        if not hasattr(module, attr)
    ]
    missing += [
        f"{cls.__name__}.{attr}"
        for cls, methods, _ in tracing.METHODS.values()
        for attr in methods
        if not hasattr(cls, attr)
    ]
    assert missing == []


def test_every_lookup_of_a_traced_function_is_listed(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    traced = {
        id(getattr(module, attr)): name
        for name, places in tracing.FUNCTIONS.items()
        for module, attr in places
    }
    listed = {
        (module.__name__, attr) for places in tracing.FUNCTIONS.values() for module, attr in places
    }
    unlisted = [
        f"{module.__name__}.{attr} ({traced[id(value)]})"
        for info in pkgutil.iter_modules(sobolev1d.__path__)
        for module in [importlib.import_module(f"sobolev1d.{info.name}")]
        for attr, value in vars(module).items()
        if id(value) in traced and (module.__name__, attr) not in listed
    ]
    assert unlisted == []
