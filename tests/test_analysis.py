"""Tests for the ``repro.analysis`` static-analysis framework.

The heart is a fixture corpus — a miniature project laid out like the
real one (``repro`` package, obs/netflow/core/... layers, a shard-worker
entry point, a name catalogue and a METRICS.md) that gives **every rule
id at least one positive and one negative case**. Tests assert on
``(rule, path, line)`` triples located by searching the fixture source
for the violating text, so they stay robust against fixture edits.

Framework behaviour (suppression grammar, fingerprint stability,
path/rule filters, the result cache) is covered on top; one test runs
the analyzer over the *real* tree — the repository must lint clean,
kept green by CI — and the mutation tests at the end re-introduce, on
copies of real source, the regressions each rule family exists to
catch.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import textwrap

import pytest

from repro.analysis import (
    RULES,
    Finding,
    LintConfig,
    default_config,
    format_human,
    format_json,
    report_fingerprint,
    run_lint,
    scan_suppressions,
)

# --------------------------------------------------------------------------
# The fixture corpus
# --------------------------------------------------------------------------

CORPUS = {
    rel: textwrap.dedent(text)
    for rel, text in {
        "repro/__init__.py": "",
        "repro/obs/__init__.py": """\
            def counter(name, value=1, **labels):
                return name


            def gauge(name, value=0, **labels):
                return name


            def histogram(name, value=0, **labels):
                return name


            def span(name, **labels):
                return name
            """,
        "repro/obs/names.py": """\
            C_FLOWS = "pipeline.flows"
            C_DEAD = "pipeline.dead"
            G_DEPTH = "queue.depth"
            SPAN_INGEST = "ingest"
            """,
        # RS101 negative: the obs layer owns the clock.
        "repro/obs/clock.py": """\
            import time


            def now():
                return time.time()
            """,
        # RS301 positive (netflow -> core is a layering violation);
        # RS103 negative (sorted(set(...)) is deterministic).
        "repro/netflow/parse.py": """\
            from repro.core.engine import tick


            def parse(xs):
                return [x for x in sorted(set(xs))]
            """,
        # RS301 negative: bgp may import netflow.
        "repro/bgp/feed.py": """\
            from repro.netflow.parse import parse


            def feed(xs):
                return parse(xs)
            """,
        # RS103 negative: traffic is outside the set-iteration scopes.
        "repro/traffic/gen.py": """\
            def spread(xs):
                return [x for x in set(xs)]
            """,
        # The determinism + obs-names showcase.
        "repro/core/engine.py": """\
            import random
            import time

            import numpy as np

            from repro.obs import counter, gauge, span
            from repro.obs import names


            def tick():
                t = time.time()
                r = random.random()
                legacy = np.random.rand(3)
                ok = np.random.default_rng(0).random()
                rr = random.Random(7).random()
                for x in set([1, 2]):
                    t += x
                h = hash("key")
                counter(names.C_FLOWS)
                gauge(names.C_FLOWS)
                counter("raw.literal")
                gauge(names.G_DEPTH)
                span(names.SPAN_INGEST)
                return t, r, legacy, ok, rr, h


            def pace():
                time.sleep(0)


            def stable(xs, hash=None):
                return hash(xs) if hash else 0
            """,
        # Sketch worker state: the per-worker counting path must keep
        # all mutation on instance state (negative); a module-global
        # sketch cache written on the worker path is a race (positive).
        "repro/core/features/__init__.py": "",
        "repro/core/features/sketches.py": """\
            SKETCH_CACHE = {}


            class BinSketch:
                def __init__(self):
                    self.table = [0] * 4

                def absorb(self, key):
                    SKETCH_CACHE[key] = key
                    self.table[key % 4] += 1
                    return self.table


            def coordinator_merge(state):
                SKETCH_CACHE.clear()
                return state
            """,
        # The shard-safety showcase.
        "repro/core/parallel/__init__.py": "",
        "repro/core/parallel/backends.py": """\
            from repro.core.features.sketches import BinSketch

            SHARED = {}
            TOTALS = 0


            class Worker:
                cache = {}

                def __init__(self):
                    self.local = []

                def handle(self, item):
                    type(self).generation = item
                    self.bump_cache(item)
                    self.local.append(item)
                    bump()
                    return make_counter()

                @classmethod
                def bump_cache(cls, item):
                    cls.cache[item] = 1


            class Ring:
                def __init__(self):
                    SHARED["ring"] = 1

                @classmethod
                def attach(cls):
                    return cls()


            def bump():
                global TOTALS
                TOTALS += 1


            def make_counter():
                n = 0

                def inc():
                    nonlocal n
                    n += 1
                    return n

                return inc


            def _worker_main(conn):
                w = Worker()
                SHARED["x"] = 1
                sketch = BinSketch()
                sketch.absorb(2)
                Ring.attach()
                return w.handle(1)


            def coordinator_only():
                global TOTALS
                TOTALS = 0


            def unreached():
                m = 0

                def dec():
                    nonlocal m
                    m -= 1
                    return m

                return dec

            """,
        # Suppression grammar: one used, one missing its reason, one
        # naming an unknown rule, one matching nothing.
        "repro/core/suppressed.py": """\
            import random


            def sampler():
                value = random.random()  # repro: lint-ignore[RS102] fixture: justified use
                bad = random.random()  # repro: lint-ignore[RS102]
                worse = random.random()  # repro: lint-ignore[RS999] confident but wrong
                return value, bad, worse


            # repro: lint-ignore[RS101] nothing below reads the clock
            SETTING = 1
            """,
        # RS302 positive (pandas) next to its negative (numpy).
        "repro/experiments/report.py": """\
            import numpy as np
            import pandas as pd


            def report(frame):
                return pd.DataFrame(frame), np.asarray(frame)
            """,
        # RS301 positive: a subpackage absent from the layer contract.
        "repro/rogue/thing.py": """\
            from repro.obs import counter


            def emit():
                return counter("rogue.metric")
            """,
        # RS501/RS502 positives: bare writes and renames in a
        # recovery-critical module that bypass the durable writer.
        "repro/core/recovery/__init__.py": "",
        "repro/core/recovery/snapshot.py": """\
            import os
            from pathlib import Path


            def save(path, data):
                with open(path, "w") as handle:  # bare write
                    handle.write(data)
                Path(path).write_bytes(data.encode())
                os.replace(path + ".tmp", path)  # rename, no fsync


            def load(path):
                with open(path) as handle:  # read-only: allowed
                    return handle.read()
            """,
        # RS501/RS502 negative: the sanctioned writer module itself.
        "repro/core/recovery/durable.py": """\
            import os


            def durable_write(path, data):
                tmp = str(path) + ".tmp"
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            """,
        # RS501 negative: writes outside the durable scope are fine.
        "repro/core/exporter.py": """\
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
        # The resource-lifecycle (RS601–RS603) showcase: every function
        # exercises one path shape the CFG dataflow must get right.
        "repro/core/parallel/lifecycle.py": """\
            from repro.core.parallel.shm import ShmRing


            def leak_normal(cond):
                branchy = ShmRing()
                if cond:
                    branchy.close()
                return None


            def discard_result():
                ShmRing.attach("stale")


            def leaks_on_raise():
                fragile = ShmRing()
                fragile.write_flows(1)
                fragile.close()


            def closes_in_finally():
                guarded = ShmRing()
                try:
                    guarded.write_flows(1)
                finally:
                    guarded.close()


            def handler_reraises():
                handled = ShmRing()
                try:
                    handled.write_flows(1)
                except Exception:
                    handled.close()
                    raise
                handled.close()


            def managed(path):
                with open(path) as handle:
                    return handle.read()


            def conditional_acquire(cond):
                optional = ShmRing() if cond else None
                if optional is not None:
                    optional.close()


            def alias_escapes():
                source = ShmRing()
                other = source
                other.close()


            def spawn_worker(ctx):
                proc = ctx.Process(target=None)
                proc.start()
                proc.join()


            class RingOwner:
                def __init__(self, validate):
                    self._ring = ShmRing()
                    if validate:
                        self._validate()

                def _validate(self):
                    return True

                def close(self):
                    self._ring.close()


            class SafeRingOwner:
                def __init__(self, validate):
                    self._careful = ShmRing()
                    try:
                        if validate:
                            self._validate()
                    except BaseException:
                        self.close()
                        raise

                def _validate(self):
                    return True

                def close(self):
                    self._careful.close()


            class RingHoarder:
                def __init__(self):
                    loot = ShmRing()
                    self._plunder = loot
            """,
    }.items()
}

METRICS_DOC = textwrap.dedent(
    """\
    # Metrics

    | name | kind |
    | --- | --- |
    | `pipeline.flows` | counter |
    | `queue.depth` | gauge |
    | `ingest` | span |
    | `raw.literal` | counter |
    | `rogue.metric` | counter |
    """
)


def build_project(tmp_path, files, metrics=None):
    """Materialise a fixture tree and return its LintConfig."""
    src = tmp_path / "src"
    for rel, text in files.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    for directory in src.rglob("**/"):
        init = directory / "__init__.py"
        if directory != src and not init.exists():
            init.write_text("", encoding="utf-8")
    doc = None
    if metrics is not None:
        doc = tmp_path / "docs" / "METRICS.md"
        doc.parent.mkdir(exist_ok=True)
        doc.write_text(metrics, encoding="utf-8")
    return LintConfig(src_root=src, rel_to=tmp_path, metrics_doc=doc)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    config = build_project(tmp, CORPUS, metrics=METRICS_DOC)
    return config, run_lint(config)


def line_of(rel, needle, occurrence=1):
    """1-based line of the nth occurrence of ``needle`` in a corpus file."""
    for lineno, text in enumerate(CORPUS[rel].splitlines(), 1):
        if needle in text:
            occurrence -= 1
            if occurrence == 0:
                return lineno
    raise AssertionError(f"{needle!r} not found in {rel}")


def hits(result, rule):
    """(path, line) of every reported finding of one rule."""
    return {(f.path, f.line) for f in result.findings if f.rule == rule}


def src(rel):
    return f"src/{rel}"


# --------------------------------------------------------------------------
# Per-rule positive + negative cases
# --------------------------------------------------------------------------


def test_every_rule_id_fires_on_the_corpus(corpus):
    _, result = corpus
    assert {f.rule for f in result.findings} == set(RULES)
    assert len(RULES) == 20


def test_rs101_wall_clock(corpus):
    _, result = corpus
    engine = src("repro/core/engine.py")
    assert hits(result, "RS101") == {
        (engine, line_of("repro/core/engine.py", "time.time()"))
    }
    # Negatives: the obs layer is exempt; time.sleep is not a read.
    assert src("repro/obs/clock.py") not in {
        f.path for f in result.findings
    }


def test_rs102_global_rng(corpus):
    _, result = corpus
    engine = "repro/core/engine.py"
    sup = "repro/core/suppressed.py"
    assert hits(result, "RS102") == {
        (src(engine), line_of(engine, "random.random()")),
        (src(engine), line_of(engine, "np.random.rand(3)")),
        # Suppression lacking a reason / naming an unknown rule does
        # not take effect, so these two still surface.
        (src(sup), line_of(sup, "bad = random.random()")),
        (src(sup), line_of(sup, "worse = random.random()")),
    }
    # Negatives: explicit-Generator and seeded-instance APIs.
    clean = {
        line_of(engine, "np.random.default_rng(0)"),
        line_of(engine, "random.Random(7)"),
    }
    assert not {
        f.line for f in result.findings if f.path == src(engine)
    } & clean


def test_rs103_set_iteration(corpus):
    _, result = corpus
    engine = "repro/core/engine.py"
    assert hits(result, "RS103") == {
        (src(engine), line_of(engine, "for x in set([1, 2])"))
    }
    # Negatives: sorted(set(...)) in-scope, raw set out of scope.
    assert src("repro/netflow/parse.py") not in {
        f.path for f in result.findings if f.rule == "RS103"
    }
    assert src("repro/traffic/gen.py") not in {
        f.path for f in result.findings
    }


def test_rs104_salted_hash(corpus):
    _, result = corpus
    engine = "repro/core/engine.py"
    assert hits(result, "RS104") == {
        (src(engine), line_of(engine, 'hash("key")'))
    }
    # Negative: `hash` rebound as a parameter shadows the builtin.
    assert (
        src(engine),
        line_of(engine, "hash(xs) if hash"),
    ) not in hits(result, "RS104")


def test_rs201_module_global_writes(corpus):
    _, result = corpus
    backends = "repro/core/parallel/backends.py"
    sketches = "repro/core/features/sketches.py"
    assert hits(result, "RS201") == {
        (src(backends), line_of(backends, "TOTALS += 1")),
        (src(backends), line_of(backends, 'SHARED["x"] = 1')),
        # Reached through an alternate constructor's cls(...) call.
        (src(backends), line_of(backends, 'SHARED["ring"] = 1')),
        # Worker-reachable write to the module-global sketch cache.
        (src(sketches), line_of(sketches, "SKETCH_CACHE[key] = key")),
    }
    # Negative: the same global write in a function the worker never
    # reaches is not a race.
    assert (
        src(backends),
        line_of(backends, "TOTALS = 0"),
    ) not in hits(result, "RS201")
    # Negatives: the sketch's own table is instance state (worker-
    # owned), and the coordinator-side merge never runs in a worker.
    sketch_hits = {
        f.line for f in result.findings if f.path == src(sketches)
    }
    assert line_of(sketches, "self.table[key % 4] += 1") not in sketch_hits
    assert line_of(sketches, "SKETCH_CACHE.clear()") not in sketch_hits


def test_rs201_sketch_chain_names_the_route(corpus):
    _, result = corpus
    sketches = src("repro/core/features/sketches.py")
    (finding,) = [
        f for f in result.findings
        if f.rule == "RS201" and f.path == sketches
    ]
    assert "_worker_main" in finding.message
    assert "absorb" in finding.message


def test_rs202_class_attribute_writes(corpus):
    _, result = corpus
    backends = "repro/core/parallel/backends.py"
    assert hits(result, "RS202") == {
        (src(backends), line_of(backends, "type(self).generation")),
        (src(backends), line_of(backends, "cls.cache[item] = 1")),
    }
    # Negative: instance state is worker-owned.
    assert (
        src(backends),
        line_of(backends, "self.local.append(item)"),
    ) not in hits(result, "RS202")


def test_rs203_closure_writes(corpus):
    _, result = corpus
    backends = "repro/core/parallel/backends.py"
    assert hits(result, "RS203") == {
        (src(backends), line_of(backends, "n += 1"))
    }
    # Negative: the closure in unreached() is never worker-reachable.
    assert (
        src(backends),
        line_of(backends, "m -= 1"),
    ) not in hits(result, "RS203")


def test_rs203_chain_names_the_route(corpus):
    _, result = corpus
    (finding,) = [f for f in result.findings if f.rule == "RS203"]
    assert "_worker_main" in finding.message
    assert "make_counter" in finding.message


def test_rs301_layer_contract(corpus):
    _, result = corpus
    assert hits(result, "RS301") == {
        (
            src("repro/netflow/parse.py"),
            line_of("repro/netflow/parse.py", "from repro.core.engine"),
        ),
        (
            src("repro/rogue/thing.py"),
            line_of("repro/rogue/thing.py", "from repro.obs"),
        ),
    }
    # Negative: bgp -> netflow is a declared edge.
    assert src("repro/bgp/feed.py") not in {
        f.path for f in result.findings
    }


def test_rs302_external_dependency(corpus):
    _, result = corpus
    report = "repro/experiments/report.py"
    assert hits(result, "RS302") == {
        (src(report), line_of(report, "import pandas"))
    }
    assert (
        src(report),
        line_of(report, "import numpy"),
    ) not in hits(result, "RS302")


def test_rs401_dead_catalogue_name(corpus):
    _, result = corpus
    dead = [f for f in result.findings if f.rule == "RS401"]
    assert [f.path for f in dead] == [src("repro/obs/names.py")]
    assert "C_DEAD" in dead[0].message
    assert "C_FLOWS" not in dead[0].message


def test_rs402_literal_bypasses_catalogue(corpus):
    _, result = corpus
    literals = {
        f.message.split("'")[1]
        for f in result.findings
        if f.rule == "RS402"
    }
    assert literals == {"raw.literal", "rogue.metric"}


def test_rs403_undocumented_name(corpus):
    _, result = corpus
    undocumented = [f for f in result.findings if f.rule == "RS403"]
    assert len(undocumented) == 1
    assert "pipeline.dead" in undocumented[0].message
    assert not any(
        "pipeline.flows" in f.message for f in undocumented
    )


def test_rs404_kind_mismatch(corpus):
    _, result = corpus
    engine = "repro/core/engine.py"
    assert hits(result, "RS404") == {
        (src(engine), line_of(engine, "gauge(names.C_FLOWS)"))
    }
    clean = {
        line_of(engine, "counter(names.C_FLOWS)"),
        line_of(engine, "gauge(names.G_DEPTH)"),
        line_of(engine, "span(names.SPAN_INGEST)"),
    }
    assert not {
        f.line for f in result.findings if f.rule == "RS404"
    } & clean


def test_rs501_bare_writes_in_durable_modules(corpus):
    _, result = corpus
    snap = "repro/core/recovery/snapshot.py"
    assert hits(result, "RS501") == {
        (src(snap), line_of(snap, 'open(path, "w")')),
        (src(snap), line_of(snap, "write_bytes")),
    }


def test_rs502_bare_rename_in_durable_modules(corpus):
    _, result = corpus
    snap = "repro/core/recovery/snapshot.py"
    assert hits(result, "RS502") == {
        (src(snap), line_of(snap, "os.replace(path")),
    }


LIFE = "repro/core/parallel/lifecycle.py"


def test_rs601_normal_path_leak(corpus):
    _, result = corpus
    assert hits(result, "RS601") == {
        # Released only on one branch: the else-path leaks.
        (src(LIFE), line_of(LIFE, "branchy = ShmRing()")),
        # The return value of a constructor dropped on the floor.
        (src(LIFE), line_of(LIFE, 'ShmRing.attach("stale")')),
    }
    # Negatives: try/finally, with-managed, refinement-guarded,
    # aliased and transferred-to-self acquisitions are all settled.
    clean = {
        line_of(LIFE, "guarded = ShmRing()"),
        line_of(LIFE, "with open(path) as handle"),
        line_of(LIFE, "optional = ShmRing() if cond else None"),
        line_of(LIFE, "source = ShmRing()"),
        line_of(LIFE, "loot = ShmRing()"),
    }
    assert not {f.line for f in result.findings if f.path == src(LIFE)} & clean


def test_rs602_exception_path_leak(corpus):
    _, result = corpus
    assert hits(result, "RS602") == {
        # write_flows may raise before the close at the end.
        (src(LIFE), line_of(LIFE, "fragile = ShmRing()")),
        # Process.start may raise before join settles it.
        (src(LIFE), line_of(LIFE, "proc = ctx.Process(target=None)")),
    }
    # Negative: a handler that releases and re-raises settles the
    # exception path.
    assert (src(LIFE), line_of(LIFE, "handled = ShmRing()")) not in hits(
        result, "RS602"
    )


def test_rs603_init_strands_resource(corpus):
    _, result = corpus
    assert hits(result, "RS603") == {
        # _validate() may raise after the ring landed on self._ring.
        (src(LIFE), line_of(LIFE, "self._ring = ShmRing()")),
    }
    # Negative: the except-BaseException/close/raise shape settles it.
    assert (
        src(LIFE),
        line_of(LIFE, "self._careful = ShmRing()"),
    ) not in hits(result, "RS603")


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------


def test_rs001_malformed_suppressions(corpus):
    _, result = corpus
    sup = "repro/core/suppressed.py"
    assert hits(result, "RS001") == {
        (src(sup), line_of(sup, "bad = random.random()")),
        (src(sup), line_of(sup, "worse = random.random()")),
    }


def test_rs002_unused_suppression(corpus):
    _, result = corpus
    sup = "repro/core/suppressed.py"
    assert hits(result, "RS002") == {
        (src(sup), line_of(sup, "nothing below reads the clock"))
    }


def test_valid_suppression_absorbs_its_finding(corpus):
    _, result = corpus
    sup = "repro/core/suppressed.py"
    target = line_of(sup, "value = random.random()")
    # Not reported...
    assert (src(sup), target) not in hits(result, "RS102")
    # ...but recorded as suppressed, with the reason attached.
    (pair,) = [
        (f, s)
        for f, s in result.suppressed
        if f.path == src(sup) and f.line == target
    ]
    assert pair[0].rule == "RS102"
    assert pair[1].reason == "fixture: justified use"


def test_suppression_comments_in_strings_are_ignored():
    suppressions, malformed = scan_suppressions(
        "x.py",
        'DOC = "# repro: lint-ignore[RS101] not a real comment"\n',
    )
    assert suppressions == [] and malformed == []


def test_standalone_suppression_targets_next_code_line():
    source = (
        "# repro: lint-ignore[RS102] covers the call below\n"
        "\n"
        "# an unrelated comment\n"
        "value = 1\n"
    )
    (sup,), malformed = scan_suppressions("x.py", source)
    assert malformed == []
    assert sup.line == 1 and sup.target_line == 4


def test_fingerprint_is_line_independent():
    a = Finding(rule="RS101", path="a.py", line=3, col=1,
                message="m", symbol="f", key="clock:time.time")
    b = Finding(rule="RS101", path="a.py", line=99, col=7,
                message="m", symbol="f", key="clock:time.time")
    c = Finding(rule="RS101", path="a.py", line=3, col=1,
                message="m", symbol="f", key="clock:time.monotonic")
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


# --------------------------------------------------------------------------
# Runner filters and output formats
# --------------------------------------------------------------------------


def test_rules_filter(corpus):
    config, _ = corpus
    result = run_lint(config, rules=["RS302"])
    assert {f.rule for f in result.findings} == {"RS302"}


def test_paths_filter(corpus):
    config, _ = corpus
    result = run_lint(config, paths=("src/repro/experiments",))
    assert result.findings, "path filter dropped everything"
    assert all(
        f.path.startswith("src/repro/experiments/")
        for f in result.findings
    )
    # The suppressed tally follows the same scope: the corpus's one
    # live suppression sits in core/suppressed.py.
    assert result.suppressed == []
    scoped = run_lint(config, paths=("src/repro/core/suppressed.py",))
    assert len(scoped.suppressed) == 1


def test_path_matching_no_module_is_an_error(corpus):
    config, _ = corpus
    with pytest.raises(ValueError, match="src/repro/coer"):
        run_lint(config, paths=("src/repro/coer",))


def test_json_format_is_stable(corpus):
    _, result = corpus
    payload = json.loads(format_json(result))
    assert payload["version"] == 2
    assert set(payload["counts"]) == {"findings", "suppressed"}
    assert payload["counts"]["findings"] == len(payload["findings"])
    for row in payload["findings"]:
        assert set(row) >= {"rule", "path", "line", "col", "message",
                            "fingerprint"}
    assert set(payload["rules"]) == set(RULES)


def test_human_format_renders_every_finding(corpus):
    _, result = corpus
    text = format_human(result)
    assert f"{len(result.findings)} finding(s)" in text
    for finding in result.findings:
        assert f"{finding.path}:{finding.line}" in text


# --------------------------------------------------------------------------
# The real tree
# --------------------------------------------------------------------------


def test_real_repository_lints_clean():
    """The acceptance criterion: ``repro lint`` is green on src/.

    Every violation in the tree has either been fixed or carries an
    inline suppression with a reason.
    """
    result = run_lint(dataclasses.replace(default_config(), cache_path=None))
    assert result.findings == [], format_human(result)
    assert result.modules_scanned > 100
    # The justified debt is visible, not hidden: the suppressions the
    # tree does carry are all used (RS002 would fire otherwise).
    assert len(result.suppressed) >= 8


# --------------------------------------------------------------------------
# The result cache
# --------------------------------------------------------------------------


def _report_key(result):
    """Everything a report carries, for exact cold-vs-warm comparison."""
    return (
        result.findings,
        [(f, s.reason) for f, s in result.suppressed],
        result.modules_scanned,
        format_json(result),
    )


def _cached_corpus(tmp_path):
    """The corpus with the cache enabled, and the same config without."""
    plain = build_project(tmp_path, CORPUS, metrics=METRICS_DOC)
    cached = dataclasses.replace(
        plain, cache_path=tmp_path / "lint-cache.json"
    )
    return cached, plain


def test_cache_warm_run_is_byte_identical(tmp_path):
    config, plain = _cached_corpus(tmp_path)
    cold = run_lint(config)
    assert config.cache_path.exists()
    warm = run_lint(config)
    assert _report_key(warm) == _report_key(cold)
    # And both match the cache-less run.
    assert _report_key(run_lint(plain)) == _report_key(cold)
    # Filters apply after replay exactly as after a cold run.
    scope = dict(paths=("src/repro/core",), rules=["RS102", "RS002"])
    assert _report_key(run_lint(config, **scope)) == _report_key(
        run_lint(plain, **scope)
    )


def test_cache_warm_run_never_parses(tmp_path, monkeypatch):
    """The gate that fails if the cache stops caching: an unchanged
    tree is replayed with zero ``ast.parse`` calls."""
    config, _ = _cached_corpus(tmp_path)
    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(args)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    cold = run_lint(config)
    assert len(parses) == cold.modules_scanned > 0
    del parses[:]
    warm = run_lint(config)
    assert parses == []
    assert format_json(warm) == format_json(cold)


def test_cache_invalidates_on_edit(tmp_path):
    config, _ = _cached_corpus(tmp_path)
    cold = run_lint(config)
    engine = src("repro/core/engine.py")
    clock_line = (engine, line_of("repro/core/engine.py", "time.time()"))
    assert clock_line in hits(cold, "RS101")
    path = tmp_path / engine
    path.write_text(
        path.read_text(encoding="utf-8").replace("t = time.time()", "t = 0.0"),
        encoding="utf-8",
    )
    warm = run_lint(config)
    assert hits(warm, "RS101") == set()
    # Untouched modules keep their findings.
    assert hits(warm, "RS501") == hits(cold, "RS501")


def test_cache_corrupt_file_degrades_to_cold(tmp_path):
    config, plain = _cached_corpus(tmp_path)
    expected = _report_key(run_lint(plain))
    for garbage in ("{not json", "[]", '{"version": 1, "modules": {}}'):
        config.cache_path.write_text(garbage, encoding="utf-8")
        assert _report_key(run_lint(config)) == expected
        # The bad cache was replaced with a valid one.
        assert json.loads(config.cache_path.read_text(encoding="utf-8"))[
            "fingerprint"
        ] == report_fingerprint(config)


def test_cache_analyzer_fingerprint_tracks_config(tmp_path, monkeypatch):
    """The fingerprint covers every input of a report — the analyzer's
    own sources, each module, the metrics doc — and nothing else."""
    from repro.analysis import cache as cache_module

    analyzer = tmp_path / "analyzer"
    analyzer.mkdir()
    (analyzer / "rule.py").write_text("MESSAGE = 'old'\n", encoding="utf-8")
    monkeypatch.setattr(cache_module, "_ANALYSIS_DIR", analyzer)
    config, _ = _cached_corpus(tmp_path)
    seen = {report_fingerprint(config)}

    def edit(path):
        path.write_text(
            path.read_text(encoding="utf-8") + "\n# touched\n",
            encoding="utf-8",
        )
        seen.add(report_fingerprint(config))

    edit(analyzer / "rule.py")
    edit(tmp_path / src("repro/bgp/feed.py"))
    edit(config.metrics_doc)
    (tmp_path / src("repro/bgp/extra.py")).write_text("", encoding="utf-8")
    seen.add(report_fingerprint(config))
    assert len(seen) == 5, "an input changed but the fingerprint did not"
    # Cache location is not part of the report's identity.
    moved = dataclasses.replace(config, cache_path=tmp_path / "elsewhere.json")
    assert report_fingerprint(moved) in seen


# --------------------------------------------------------------------------
# Mutation acceptance: each surviving family catches, on a copy of real
# source, the regression it exists for — and is silent on the pristine copy
# --------------------------------------------------------------------------


def _real_source(rel):
    return (default_config().src_root / rel).read_text(encoding="utf-8")


def _mutation_findings(tmp_path, rel, old, new, rules, metrics=None):
    """Findings of ``rules`` on a one-file copy with ``old`` -> ``new``.

    Asserts the pristine copy is clean first, so exactly the mutation
    is what fires.
    """
    source = _real_source(rel)
    assert source.count(old) == 1, f"{old!r} is not unique in {rel}"
    pristine = build_project(tmp_path / "pristine", {rel: source}, metrics)
    assert run_lint(pristine, rules=rules).findings == []
    mutated = build_project(
        tmp_path / "mutated", {rel: source.replace(old, new)}, metrics
    )
    return run_lint(mutated, rules=rules).findings


_LIFECYCLE_RULES = ("RS601", "RS602", "RS603")


def test_mutation_dropped_close_in_shmring_init(tmp_path):
    """Lifecycle: deleting the attach-path close() in ShmRing.__init__."""
    (finding,) = _mutation_findings(
        tmp_path,
        "repro/core/parallel/shm.py",
        "                self._shm.close()\n                raise\n",
        "                raise\n",
        _LIFECYCLE_RULES,
    )
    assert finding.rule == "RS603"
    assert finding.symbol.endswith("ShmRing.__init__")


def test_mutation_backend_before_validation_in_engine_init(tmp_path):
    """Lifecycle: PR 15's start-up leak — the backend (workers, rings)
    created before the arguments that can still be rejected."""
    acquire = (
        "        self._backend = make_backend(\n"
        "            backend, self.plan.n_shards, **(backend_options or {})\n"
        "        )\n"
    )
    validate = "        if agg not in AGG_MODES:\n"
    rel = "repro/core/parallel/engine.py"
    source = _real_source(rel)
    checks = source[source.index(validate): source.index(acquire)]
    (finding,) = _mutation_findings(
        tmp_path,
        rel,
        checks + acquire,
        acquire.replace("self.plan.n_shards", "n_shards") + checks,
        _LIFECYCLE_RULES,
    )
    assert finding.rule == "RS603"
    assert finding.symbol == "ShardedStreamingScrubber.__init__"
    assert "shard backend" in finding.message


def test_mutation_salted_hash_seed_in_reflectors(tmp_path):
    """Determinism: the historical bug — reflector churn seeded with
    ``hash(name)``, a different workload per interpreter launch."""
    (finding,) = _mutation_findings(
        tmp_path,
        "repro/traffic/reflectors.py",
        "zlib.crc32(name.encode()) & 0xFFFF",
        "hash(name) & 0xFFFF",
        ("RS101", "RS102", "RS103", "RS104"),
    )
    assert finding.rule == "RS104"
    assert finding.symbol.endswith("pool_at_epoch")


def test_mutation_module_dict_write_in_classify_shard(tmp_path):
    """Shard safety: module state mutated on the path every worker runs."""
    span = "    with obs.use_registry(registry):\n        with obs.span(names.SPAN_PARALLEL_SHARD_CLASSIFY):\n"
    (finding,) = _mutation_findings(
        tmp_path,
        "repro/core/parallel/backends.py",
        span,
        '    BACKENDS["last"] = flows\n' + span,
        ("RS201", "RS202", "RS203"),
    )
    assert finding.rule == "RS201"
    assert finding.symbol == "classify_shard"
    assert "via _worker_main -> classify_shard" in finding.message


def test_mutation_bare_open_in_snapshot_store(tmp_path):
    """Durability: a checkpoint manifest written around durable_write."""
    (finding,) = _mutation_findings(
        tmp_path,
        "repro/core/recovery/snapshot.py",
        "durable_write(manifest_path, _canonical_json(manifest))",
        'open(manifest_path, "wb").write(_canonical_json(manifest))',
        ("RS501", "RS502"),
    )
    assert finding.rule == "RS501"
    assert finding.symbol == "CheckpointStore.save"


def test_mutation_layer_inversion_in_netflow(tmp_path):
    """Layering: the substrate reaching up into ``core``."""
    (finding,) = _mutation_findings(
        tmp_path,
        "repro/netflow/dataset.py",
        "from repro.netflow.record import FlowRecord\n",
        "from repro.core.scrubber import IXPScrubber\n"
        "from repro.netflow.record import FlowRecord\n",
        ("RS301", "RS302"),
    )
    assert finding.rule == "RS301"
    assert "'netflow' must not import layer 'core'" in finding.message


def test_mutation_deleted_metrics_row(tmp_path):
    """Obs names: a catalogued metric whose METRICS.md row is deleted."""
    doc = default_config().metrics_doc.read_text(encoding="utf-8")
    catalogue = _real_source("repro/obs/names.py")
    # A catalogued name whose table row is its only mention in the doc.
    name, row = next(
        (match.group(1), match.group(0))
        for match in re.finditer(r"^\| `([\w.]+)` \|.*\n", doc, flags=re.M)
        if doc.count(f"`{match.group(1)}`") == 1
        and f'"{match.group(1)}"' in catalogue
    )
    names = {"repro/obs/names.py": catalogue}
    pristine = build_project(tmp_path / "pristine", names, metrics=doc)
    assert run_lint(pristine, rules=["RS403"]).findings == []
    mutated = build_project(
        tmp_path / "mutated", names, metrics=doc.replace(row, "")
    )
    (finding,) = run_lint(mutated, rules=["RS403"]).findings
    assert repr(name) in finding.message
