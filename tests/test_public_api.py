"""Public-API audit: every exported symbol actually exists and imports.

Walks every module in the ``repro`` package, imports it, and checks that
each name in its ``__all__`` resolves to a real attribute. This catches
the classic drift where a symbol is renamed or removed but its
re-export (or ``__all__`` entry) lingers — ``from repro import X`` then
breaks only for the one user who needed X.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.project import Project, attr_chain, import_table, runtime_imports


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


#: Modules nothing imports by name, and why each is still run.
CENSUS_ALLOWED = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.scenarios.catalog": "imported by its package for the side "
    "effect: it registers the scenarios `repro scenarios` runs",
}


def _unreached_modules(root: Path) -> list[str]:
    """Modules of ``src/repro`` that no caller's imports lead to.

    Callers are the non-``__init__`` modules of ``src/``, the e2e
    benchmark and the examples; tests are not. A name imported from a
    package is followed through the package's own import table to the
    module that defines it, so a re-export alone reaches nothing; a
    package that defines the name itself (``EXPERIMENTS``,
    ``ALL_PASSES``: a registry) is a caller like any other.
    """
    src = Project.load(root / "src")
    callers = [m for m in src.package_modules if m.path.name != "__init__.py"]
    for directory in ("benchmarks/e2e", "examples"):
        callers += Project.load(root / directory).modules
    reached: set[str] = set()
    seen = {m.name for m in callers}

    def follow(dotted: str) -> None:
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = src.by_name.get(".".join(parts[:cut]))
            if module is None:
                continue
            reached.add(module.name)
            if cut < len(parts) and module.path.name == "__init__.py":
                target = import_table(module).get(parts[cut])
                if target is not None:
                    follow(".".join([target, *parts[cut + 1:]]))
                elif module.name not in seen:
                    seen.add(module.name)
                    callers.append(module)
            return

    for caller in callers:  # grows while registries are found
        table = import_table(caller)
        for _, target in runtime_imports(caller):
            follow(target)
        for node in ast.walk(caller.tree):
            chain = attr_chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in table:
                follow(".".join([table[chain[0]], *chain[1:]]))
    return [
        m.name
        for m in src.package_modules
        if m.path.name != "__init__.py" and m.name not in reached
    ]


def test_every_module_has_a_caller():
    """Nothing in ``src/`` that nothing runs: a module only a package
    ``__init__`` or its own test imports is deleted, not kept."""
    assert len(CENSUS_ALLOWED) <= 3
    root = Path(__file__).resolve().parents[1]
    assert sorted(_unreached_modules(root)) == sorted(CENSUS_ALLOWED)


def test_blackhole_pair_has_one_renderer():
    """The announce/withdraw pair is the paper's label; only
    ``bgp/messages.py``'s ``blackhole_updates`` constructs it, so a
    stream has one definition, not renderings that agree by inspection."""
    src = Project.load(Path(__file__).resolve().parents[1] / "src")
    calls: dict[str, list[str]] = {"Announcement": [], "Withdrawal": []}
    for module in src.package_modules:
        table = import_table(module)
        for node in ast.walk(module.tree):
            chain = attr_chain(node.func) if isinstance(node, ast.Call) else None
            if not chain or chain[-1] not in calls:
                continue
            origin = table.get(chain[0], "")
            if module.name == "repro.bgp.messages" or origin.startswith("repro.bgp"):
                calls[chain[-1]].append(module.name)
    assert calls == {
        "Announcement": ["repro.bgp.messages"],
        "Withdrawal": ["repro.bgp.messages"],
    }
