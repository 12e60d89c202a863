"""Docs lint: keep the markdown documentation in sync with the code.

Two contracts are enforced:

1. Every *relative* markdown link in README.md, DESIGN.md, and
   ``docs/*.md`` points at a file that exists (external ``http(s)://``
   and ``mailto:`` links are out of scope — no network in tests).
2. The obs name catalogue, the instrument call sites, and
   ``docs/METRICS.md`` agree. This used to be a regex scrape of
   ``counter("...")`` literals; it is now delegated to the obs-names
   pass of ``repro.analysis`` (rules RS401–RS404), whose AST walk sees
   through import aliasing and skips strings in docstrings/comments
   the regex used to match.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.analysis import default_config, format_human, run_lint
from repro.obs import names

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
METRICS_DOC = DOCS_DIR / "METRICS.md"

LINT_TARGETS = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"]
    + list(DOCS_DIR.glob("*.md"))
)

#: ``[text](target)`` — target captured up to the closing paren.
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")


def _relative_links(path):
    for match in _MD_LINK.finditer(path.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        yield target


def test_lint_targets_exist():
    assert METRICS_DOC.is_file()
    assert len(LINT_TARGETS) >= 4  # README, DESIGN, ARCHITECTURE, METRICS


@pytest.mark.parametrize(
    "doc", LINT_TARGETS, ids=[p.name for p in LINT_TARGETS]
)
def test_relative_markdown_links_resolve(doc):
    broken = []
    for target in _relative_links(doc):
        resolved = (doc.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name} has broken relative links: {broken}"


def test_name_catalogue_is_nontrivial():
    # Guard: if the catalogue import path breaks, the contract test
    # below would vacuously pass on an empty set.
    assert len(names.ALL_COUNTERS) >= 15
    assert len(names.ALL_GAUGES) >= 4
    assert len(names.ALL_SPANS) >= 15


def test_metric_names_emissions_and_docs_agree():
    """The obs-names contract (RS401–RS404) holds on the real tree.

    Catalogued names are all emitted somewhere, no call site bypasses
    the catalogue with a string literal, every emitted name has a
    METRICS.md row, and every instrument kind matches its constant's
    prefix.
    """
    config = dataclasses.replace(default_config(REPO_ROOT), cache_path=None)
    result = run_lint(config, rules=["RS401", "RS402", "RS403", "RS404"])
    assert result.findings == [], format_human(result)


#: A metrics-table row: its name, then ``file.py:Symbol`` pointers.
_METRIC_ROW = re.compile(r"^\| `([\w.]+)` \|")
_POINTER = re.compile(r"`(src/repro/[\w/]+\.py):([\w.]+)`")


def _resolve(path, symbol):
    """The ``def``/``class`` node ``symbol`` (``func`` or
    ``Class.method``) names in ``path``, or None."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    scope = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
    for part in symbol.split("."):
        scope = next(
            (n for n in getattr(scope, "body", ()) if isinstance(n, defs) and n.name == part),
            None,
        )
    return scope


def _names_metric(node, metric):
    """Whether ``node``'s body spells ``metric``: as a ``names`` constant
    or as the literal."""
    constants = {k for k, v in vars(names).items() if k.isupper() and v == metric}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in constants:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in constants:
            return True
        if isinstance(sub, ast.Constant) and sub.value == metric:
            return True
    return False


def test_documented_metrics_point_back_at_real_code():
    """Every `file.py:symbol` pointer in the metrics tables names a
    function or method whose body emits that row's metric."""
    wrong = []
    for line in METRICS_DOC.read_text(encoding="utf-8").splitlines():
        row = _METRIC_ROW.match(line)
        if row is None:
            continue
        for path, symbol in _POINTER.findall(line):
            node = _resolve(path, symbol) if (REPO_ROOT / path).is_file() else None
            if node is None or not _names_metric(node, row.group(1)):
                wrong.append(f"{row.group(1)} -> {path}:{symbol}")
    assert not wrong, f"docs/METRICS.md points at code that does not emit: {wrong}"
