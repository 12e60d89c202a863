"""Model persistence: save/load a fitted IXP Scrubber without pickle.

A deployed scrubber consists of curated tagging rules, the item-encoder
vocabularies, per-domain WoE tables, the fitted numeric transformer
chain, and the classifier. It is saved as its pickled state (fit-only
scratch left out) through the checkpoint's bitwise JSON value codec,
:mod:`repro.core.recovery.state_codec`: the state a shard worker
receives in a model broadcast and a checkpoint carries, so a saved,
broadcast or resumed model is the fitted one, bit for bit. Models can
be shipped between vantage points, versioned, and audited — which
matters for a system whose selling point is operator control. Loading
builds only the classes of :data:`MODEL_TYPES`.

Public API: :func:`save_scrubber`, :func:`load_scrubber`,
:func:`scrubber_to_dict`, :func:`scrubber_from_dict`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.encoding.pca import PCA
from repro.core.encoding.transforms import (
    FeatureReducer,
    Imputer,
    MinMaxNormalizer,
    Standardizer,
)
from repro.core.encoding.woe import WoEEncoder, WoETable
from repro.core.models.baselines import DummyClassifier
from repro.core.models.bayes import BernoulliNB, ComplementNB, GaussianNB, MultinomialNB
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.kernels import ForestKernel, TreeKernel
from repro.core.models.linear import LinearSVM
from repro.core.models.nn import NeuralNetwork
from repro.core.models.pipeline import ModelPipeline
from repro.core.models.tree import DecisionTree
from repro.core.recovery.errors import CorruptSnapshotError
from repro.core.recovery.state_codec import decode_value, encode_value
from repro.core.rules.items import ItemEncoder
from repro.core.rules.model import PortMatch, RuleSet, RuleStatus, TaggingRule
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.netflow.dataset import BIN_SECONDS

#: Format version; bump on breaking layout changes. Version 3 writes
#: each object's pickled state through the checkpoint value codec;
#: version 4 writes each WoE table as its sorted key / WoE arrays.
FORMAT_VERSION = 4

#: Every class a saved scrubber is built from, by name: the codec's
#: allowlist, on the way out and on the way in.
MODEL_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        IXPScrubber, ScrubberConfig,
        RuleSet, TaggingRule, PortMatch, RuleStatus, ItemEncoder,
        WoEEncoder, WoETable,
        ModelPipeline, FeatureReducer, Imputer, Standardizer, MinMaxNormalizer, PCA,
        GradientBoostedTrees, ForestKernel, DecisionTree, TreeKernel, LinearSVM,
        NeuralNetwork, GaussianNB, MultinomialNB, ComplementNB, BernoulliNB,
        DummyClassifier,
    )
}


def scrubber_to_dict(scrubber: IXPScrubber) -> dict[str, Any]:
    """Serialise a (fitted or unfitted) scrubber to a JSON-safe dict."""
    return {
        "format_version": FORMAT_VERSION,
        "bin_seconds": BIN_SECONDS,
        "scrubber": encode_value(scrubber, MODEL_TYPES),
    }


def scrubber_from_dict(data: dict[str, Any]) -> IXPScrubber:
    """Rebuild a scrubber from :func:`scrubber_to_dict` output.

    A document of another format version or bin width raises
    ``ValueError``; one that does not decode to a scrubber, or holds a
    WoE table :meth:`~repro.core.encoding.woe.WoETable.check` refuses,
    raises :class:`~repro.core.recovery.errors.CorruptSnapshotError`.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported scrubber format version: {version}")
    if data.get("bin_seconds") != BIN_SECONDS:
        raise ValueError(
            f"scrubber was saved with {data.get('bin_seconds')}-second bins; "
            f"this build aggregates in {BIN_SECONDS}-second bins only"
        )
    scrubber = decode_value(data["scrubber"], MODEL_TYPES)
    if not isinstance(scrubber, IXPScrubber):
        raise CorruptSnapshotError(
            f"model document holds a {type(scrubber).__name__}, not an IXPScrubber"
        )
    try:
        for table in scrubber.woe.tables.values():
            table.check()
    except (AttributeError, ValueError) as exc:
        raise CorruptSnapshotError(f"model document holds a malformed WoE table: {exc}") from exc
    return scrubber


def save_scrubber(scrubber: IXPScrubber, path: str | Path) -> None:
    """Write a scrubber to a JSON file (atomically and durably).

    Model files are recovery-critical — a checkpointed engine may be
    the only holder of the current model — so the write goes through
    the temp + fsync + rename idiom of :mod:`repro.core.recovery`
    rather than a bare ``write_text`` a crash could tear.
    """
    from repro.core.recovery.durable import durable_write

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = (json.dumps(scrubber_to_dict(scrubber)) + "\n").encode("utf-8")
    durable_write(path, payload)


def load_scrubber(path: str | Path) -> IXPScrubber:
    """Read a scrubber previously written by :func:`save_scrubber`."""
    return scrubber_from_dict(json.loads(Path(path).read_text()))
