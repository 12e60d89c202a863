"""The scrubber process loads only the code it runs.

The engine, its forked workers and the ``stream``/``stats``/
``scenarios``/``lint`` commands must not import scipy (only
``LinearSVM.fit`` and two figure modules use it) nor the experiment
registry (every figure module and the corpus builders behind them):
together they doubled the resident set and tripled the start-up time
of a ``repro stream`` process. Each check runs in a fresh interpreter
under ``-X importtime``, whose log names every module the process
imported, so nothing this test process already loaded can hide one.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.core.models.linear import LinearSVM

_IMPORTED = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)\s*$", re.MULTILINE)


def _run(*args: str) -> tuple[str, set[str]]:
    """Run ``python -X importtime *args``: its stdout and imported modules."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout, set(_IMPORTED.findall(proc.stderr))


def _figure_modules(modules: set[str]) -> list[str]:
    return sorted(
        m for m in modules
        if re.match(r"repro\.experiments\.(fig|table)", m)
    )


def _scipy(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


@pytest.mark.parametrize(
    "args",
    [
        ("-c", "import repro"),
        ("-c", "import repro.core.parallel"),
        ("-m", "repro", "stream", "--help"),
        ("-m", "repro", "scenarios", "list"),
    ],
    ids=["import-repro", "import-parallel", "stream-help", "scenarios-list"],
)
def test_engine_path_loads_no_scipy_and_no_figure_module(args):
    _, modules = _run(*args)
    assert "repro.core.streaming" in modules or "repro.cli" in modules
    assert _scipy(modules) == []
    assert _figure_modules(modules) == []


def test_list_names_every_registered_experiment_without_scipy():
    from repro.experiments import EXPERIMENTS

    out, modules = _run("-m", "repro", "list")
    assert [line.split()[0] for line in out.splitlines()] == list(EXPERIMENTS)
    assert _scipy(modules) == []


def test_scales_import_builds_no_registry():
    _, modules = _run("-c", "from repro.experiments import SCALES")
    assert _figure_modules(modules) == []
    assert "repro.experiments.datasets" not in modules


@pytest.mark.parametrize(
    ("params", "coef", "intercept"),
    [
        (
            {},
            [4.46025871587808, -0.05691386081759466, -4.517954243364474,
             -0.017490616044368315, -0.06818098056815565],
            -0.03381208531647286,
        ),
        (
            {"loss": "hinge", "class_weight": "balanced", "C": 0.1},
            [2.3528756606560175, -0.02797077867618082, -2.411400363198804,
             -0.03203158007823305, -0.08658621821726295],
            0.024131728816014057,
        ),
    ],
    ids=["squared-hinge", "hinge-balanced"],
)
def test_linear_svm_fit_converges_to_the_pinned_coefficients(params, coef, intercept):
    """The L-BFGS import moved into ``fit``; the solution did not move.
    The pins are the coefficients the module-level import produced."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(1500, 5))
    y = (X[:, 0] - X[:, 2] > 0).astype(int)
    model = LinearSVM(**params).fit(X[:1000], y[:1000])
    np.testing.assert_allclose(model.coef_, coef, rtol=1e-6, atol=1e-9)
    assert model.intercept_ == pytest.approx(intercept, rel=1e-6, abs=1e-9)
