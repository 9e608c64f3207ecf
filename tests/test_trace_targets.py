"""Every package name that perfbench/tracing.py patches must still resolve.

Only the tracer's tables are read; ``install`` is never called, so nothing
is patched.  A rename in the package that leaves a table entry dangling
would otherwise surface only as a crash of ``perfbench/run.py --trace 1``.
"""

from pathlib import Path

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
