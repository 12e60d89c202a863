"""The finding model: what a lint pass reports and how it is identified.

A :class:`Finding` is one violation of a project contract, anchored to
a file/line/column and carrying a stable rule id from the catalogue
below. Two identities matter:

* the *location* (``path:line:col``) — what the human reads; it moves
  freely as code is edited;
* the *fingerprint* — a content hash of ``(rule, path, symbol, key)``
  deliberately **excluding** the line number, so a consumer of the
  JSON report can track one violation while unrelated edits shift the
  file around it.

``key`` is a short pass-chosen slug naming the violating construct
(e.g. ``"clock:time.perf_counter"``); it defaults to the message.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["Finding", "RULES", "rule_exists"]

#: The rule catalogue: every id a pass (or the framework itself) can
#: emit, with the one-line description shown in ``repro lint`` output
#: and documented in docs/ANALYSIS.md. Suppression comments and
#: ``--rules`` filters are validated against this table.
RULES: dict[str, str] = {
    # framework
    "RS001": "malformed suppression (missing reason or unknown rule id)",
    "RS002": "unused suppression (no finding on the suppressed line)",
    # determinism
    "RS101": "wall-clock read outside repro.obs (time.time, datetime.now, perf_counter, ...)",
    "RS102": "unseeded / legacy global RNG (random.* module functions, np.random legacy API)",
    "RS103": "iteration over an unordered set in a serialization-adjacent layer",
    "RS104": "builtin hash() is salted per process for str/bytes; use a stable hash",
    # shard safety
    "RS201": "module-global write reachable from shard-worker code",
    "RS202": "class-level attribute write reachable from shard-worker code",
    "RS203": "closure (nonlocal) write reachable from shard-worker code",
    # layering
    "RS301": "import violates the ARCHITECTURE.md layer contract",
    "RS302": "third-party import outside the dependency allowlist",
    # obs names
    "RS401": "obs name catalogued but never emitted/referenced by the pipeline",
    "RS402": "emitted metric/span name bypasses the obs/names.py catalogue",
    "RS403": "emitted metric/span name has no docs/METRICS.md row",
    "RS404": "instrument kind does not match the name's catalogue prefix",
    # durability
    "RS501": "bare write in a recovery-critical module (bypasses durable_write)",
    "RS502": "os.rename/os.replace in a recovery-critical module without fsync discipline",
    # resource lifecycle (CFG dataflow)
    "RS601": "acquired resource may leak on a normal path out of the function",
    "RS602": "acquired resource leaks on an exception path (no cleanup handler)",
    "RS603": "partial __init__: a raise after acquisition strands the resource on self",
}


def rule_exists(rule_id: str) -> bool:
    return rule_id in RULES


@dataclass(frozen=True)
class Finding:
    """One contract violation at a concrete source location."""

    rule: str
    path: str  # posix, relative to the linted root
    line: int
    col: int
    message: str
    symbol: str = ""  # enclosing function/class qualname, if any
    key: str = field(default="", compare=False)

    @property
    def fingerprint(self) -> str:
        payload = "|".join(
            (self.rule, self.path, self.symbol, self.key or self.message)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        where = f"{self.path}:{self.line}:{self.col}"
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{where} {self.rule} {self.message}{sym}"
