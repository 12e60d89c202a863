"""Public-API audit: every exported symbol actually exists and imports.

Walks every module in the ``repro`` package, imports it, and checks that
each name in its ``__all__`` resolves to a real attribute. This catches
the classic drift where a symbol is renamed or removed but its
re-export (or ``__all__`` entry) lingers — ``from repro import X`` then
breaks only for the one user who needed X.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import repro


def _iter_module_names():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


MODULE_NAMES = sorted(_iter_module_names())


def test_package_walk_found_the_tree():
    # Guard against the walker silently seeing an empty/partial tree.
    assert len(MODULE_NAMES) > 50
    for expected in (
        "repro.core.scrubber",
        "repro.core.streaming",
        "repro.obs",
        "repro.obs.registry",
        "repro.experiments.table3_models",
    ):
        assert expected in MODULE_NAMES


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_module_imports_and_all_matches(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    assert len(set(exported)) == len(exported), (
        f"{module_name}.__all__ contains duplicates"
    )
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, (
        f"{module_name}.__all__ names undefined symbols: {missing}"
    )


def test_star_import_surface():
    """``from repro import *`` binds every advertised symbol."""
    namespace = {}
    exec("from repro import *", namespace)
    missing = [name for name in repro.__all__ if name not in namespace]
    assert not missing


def test_obs_symbols_reachable_from_package_root():
    assert repro.obs.MetricRegistry is not None
    assert "obs" in repro.__all__
    assert "StreamingStats" in repro.__all__
    assert repro.StreamingStats is not None


def test_names_the_e2e_benchmark_pins_resolve(monkeypatch):
    """``benchmarks/e2e`` wraps callables of ``src/`` by import path and
    reads three engine attributes. A rename fails here in seconds, not
    only in the two-minute ``e2e-harness`` CI job. The benchmark is only
    read: its table is imported, nothing in it runs.
    """
    e2e = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    monkeypatch.syspath_prepend(str(e2e))
    try:
        targets = importlib.import_module("layers").TARGETS
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    assert len(targets) > 20
    for target in targets:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            assert hasattr(owner, part), f"{target.module}: no {target.attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{target.module}: {target.attr} is not callable"

    from repro.core.parallel import ShardedStreamingScrubber
    from repro.core.resilience import SupervisedProcessBackend

    # test_harness.py's example of an attribute a class only inherits.
    assert callable(SupervisedProcessBackend.echo)
    assert "echo" not in vars(SupervisedProcessBackend)
    with ShardedStreamingScrubber(n_shards=1, backend="serial") as engine:
        assert engine.stats.retrainings == 0
        assert callable(engine.merged_snapshot)
        assert callable(engine.capture_state)
