"""Model persistence: save/load a fitted IXP Scrubber without pickle.

A deployed scrubber consists of curated tagging rules, the item-encoder
vocabularies, per-domain WoE tables, the fitted numeric transformer
chain, and the classifier. All of it serialises to one JSON document
(arrays as lists — the models are small: a fitted GBT is a few thousand
numbers), so models can be shipped between vantage points, versioned,
and audited — which matters for a system whose selling point is operator
control.

Public API: :func:`save_scrubber`, :func:`load_scrubber`,
:func:`scrubber_to_dict`, :func:`scrubber_from_dict`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.core.encoding.pca import PCA
from repro.core.encoding.transforms import (
    FeatureReducer,
    Imputer,
    MinMaxNormalizer,
    Standardizer,
    Transformer,
)
from repro.core.encoding.woe import WoEEncoder, WoETable
from repro.core.models.base import Classifier
from repro.core.models.baselines import DummyClassifier
from repro.core.models.bayes import BernoulliNB, ComplementNB, GaussianNB, MultinomialNB
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.kernels import ForestKernel, TreeKernel
from repro.core.models.linear import LinearSVM
from repro.core.models.nn import NeuralNetwork
from repro.core.models.pipeline import ModelPipeline
from repro.core.models.tree import DecisionTree
from repro.core.rules.items import ItemEncoder
from repro.core.rules.model import RuleSet
from repro.core.rules.serialization import rule_from_dict, rule_to_dict
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.netflow.dataset import BIN_SECONDS

#: Format version; bump on breaking layout changes. Version 2 stores
#: tree models as flat kernel arrays instead of nested node objects.
FORMAT_VERSION = 2


def _array(values: Optional[np.ndarray]) -> Any:
    return None if values is None else np.asarray(values).tolist()


def _maybe_array(values: Any, dtype=np.float64) -> Optional[np.ndarray]:
    return None if values is None else np.asarray(values, dtype=dtype)


# ----------------------------------------------------------------------
# WoE / item encoders
# ----------------------------------------------------------------------
def _woe_to_dict(woe: WoEEncoder) -> dict[str, Any]:
    return {
        "min_count": woe.min_count,
        "fitted": woe.is_fitted,
        "tables": {
            domain: {str(value): score for value, score in table.mapping.items()}
            for domain, table in woe.tables.items()
        },
    }


def _woe_from_dict(data: dict[str, Any]) -> WoEEncoder:
    woe = WoEEncoder(min_count=int(data["min_count"]))
    for domain, mapping in data["tables"].items():
        woe.tables[domain] = WoETable(
            domain=domain,
            mapping={int(value): float(score) for value, score in mapping.items()},
        )
    woe._fitted = bool(data["fitted"])
    return woe


def _item_encoder_to_dict(encoder: Optional[ItemEncoder]) -> Optional[dict[str, Any]]:
    if encoder is None:
        return None
    return {
        "src_ports": sorted(encoder.src_ports),
        "dst_ports": sorted(encoder.dst_ports),
    }


def _item_encoder_from_dict(data: Optional[dict[str, Any]]) -> Optional[ItemEncoder]:
    if data is None:
        return None
    return ItemEncoder(
        src_ports=frozenset(int(p) for p in data["src_ports"]),
        dst_ports=frozenset(int(p) for p in data["dst_ports"]),
    )


# ----------------------------------------------------------------------
# Transformers
# ----------------------------------------------------------------------
def _transformer_to_dict(transformer: Transformer) -> dict[str, Any]:
    if isinstance(transformer, Imputer):
        return {"kind": "imputer", "fill_value": transformer.fill_value}
    if isinstance(transformer, FeatureReducer):
        return {
            "kind": "feature_reducer",
            "threshold": transformer.threshold,
            "keep": _array(transformer.keep_),
        }
    if isinstance(transformer, Standardizer):
        return {
            "kind": "standardizer",
            "mean": _array(transformer.mean_),
            "scale": _array(transformer.scale_),
        }
    if isinstance(transformer, MinMaxNormalizer):
        return {
            "kind": "minmax",
            "min": _array(transformer.min_),
            "range": _array(transformer.range_),
        }
    if isinstance(transformer, PCA):
        return {
            "kind": "pca",
            "n_components": transformer.n_components,
            "mean": _array(transformer.mean_),
            "components": _array(transformer.components_),
            "explained_variance_ratio": _array(transformer.explained_variance_ratio_),
        }
    raise TypeError(f"cannot serialise transformer {type(transformer).__name__}")


def _transformer_from_dict(data: dict[str, Any]) -> Transformer:
    kind = data["kind"]
    if kind == "imputer":
        return Imputer(fill_value=float(data["fill_value"]))
    if kind == "feature_reducer":
        reducer = FeatureReducer(threshold=float(data["threshold"]))
        keep = _maybe_array(data["keep"], dtype=bool)
        reducer.keep_ = keep
        return reducer
    if kind == "standardizer":
        standardizer = Standardizer()
        standardizer.mean_ = _maybe_array(data["mean"])
        standardizer.scale_ = _maybe_array(data["scale"])
        return standardizer
    if kind == "minmax":
        normalizer = MinMaxNormalizer()
        normalizer.min_ = _maybe_array(data["min"])
        normalizer.range_ = _maybe_array(data["range"])
        return normalizer
    if kind == "pca":
        pca = PCA(n_components=int(data["n_components"]))
        pca.mean_ = _maybe_array(data["mean"])
        pca.components_ = _maybe_array(data["components"])
        pca.explained_variance_ratio_ = _maybe_array(data["explained_variance_ratio"])
        return pca
    raise ValueError(f"unknown transformer kind {kind!r}")


# ----------------------------------------------------------------------
# Tree structures (format v2: flat kernel arrays, no nested nodes)
# ----------------------------------------------------------------------
def _forest_to_dict(forest: Optional[ForestKernel]) -> Optional[dict[str, Any]]:
    if forest is None:
        return None
    return {
        "feature": _array(forest.feature),
        "threshold": _array(forest.threshold),
        "split_bin": _array(forest.split_bin),
        "left": _array(forest.left),
        "right": _array(forest.right),
        "value": _array(forest.value),
        "offsets": _array(forest.offsets),
    }


def _forest_from_dict(data: Optional[dict[str, Any]]) -> Optional[ForestKernel]:
    if data is None:
        return None
    return ForestKernel(
        feature=np.asarray(data["feature"], dtype=np.int32),
        threshold=np.asarray(data["threshold"], dtype=np.float64),
        split_bin=np.asarray(data["split_bin"], dtype=np.int32),
        left=np.asarray(data["left"], dtype=np.int32),
        right=np.asarray(data["right"], dtype=np.int32),
        value=np.asarray(data["value"], dtype=np.float64),
        offsets=np.asarray(data["offsets"], dtype=np.int64),
    )


def _tree_kernel_to_dict(kernel: Optional[TreeKernel]) -> Optional[dict[str, Any]]:
    if kernel is None:
        return None
    return {
        "feature": _array(kernel.feature),
        "threshold": _array(kernel.threshold),
        "split_bin": _array(kernel.split_bin),
        "left": _array(kernel.left),
        "right": _array(kernel.right),
        "value": _array(kernel.value),
        "n": _array(kernel.n),
        "impurity": _array(kernel.impurity),
    }


def _tree_kernel_from_dict(data: Optional[dict[str, Any]]) -> Optional[TreeKernel]:
    if data is None:
        return None
    return TreeKernel(
        feature=np.asarray(data["feature"], dtype=np.int32),
        threshold=np.asarray(data["threshold"], dtype=np.float64),
        split_bin=np.asarray(data["split_bin"], dtype=np.int32),
        left=np.asarray(data["left"], dtype=np.int32),
        right=np.asarray(data["right"], dtype=np.int32),
        value=np.asarray(data["value"], dtype=np.float64),
        n=_maybe_array(data["n"], dtype=np.int64),
        impurity=_maybe_array(data["impurity"]),
    )


# ----------------------------------------------------------------------
# Classifiers
# ----------------------------------------------------------------------
def _classifier_to_dict(classifier: Classifier) -> dict[str, Any]:
    if isinstance(classifier, GradientBoostedTrees):
        return {
            "kind": "gbt",
            "params": classifier.get_params(),
            "min_child_weight": classifier.min_child_weight,
            "base_score": classifier.base_score_,
            "forest": _forest_to_dict(classifier.forest_),
            "feature_gain": _array(classifier.feature_gain_),
            "feature_splits": _array(classifier.feature_splits_),
        }
    if isinstance(classifier, DecisionTree):
        return {
            "kind": "cart",
            "params": classifier.get_params(),
            "n_train": classifier._n_train,
            "tree": _tree_kernel_to_dict(classifier.kernel_),
        }
    if isinstance(classifier, LinearSVM):
        return {
            "kind": "lsvm",
            "params": classifier.get_params(),
            "coef": _array(classifier.coef_),
            "intercept": classifier.intercept_,
        }
    if isinstance(classifier, NeuralNetwork):
        params = None
        if classifier._params is not None:
            params = {k: _array(v) for k, v in classifier._params.items()}
        return {
            "kind": "nn",
            "params": classifier.get_params(),
            "batch_size": classifier.batch_size,
            "seed": classifier.seed,
            "weights": params,
        }
    if isinstance(classifier, GaussianNB):
        return {
            "kind": "nb-g",
            "params": classifier.get_params(),
            "theta": _array(classifier.theta_),
            "var": _array(classifier.var_),
            "class_log_prior": _array(classifier.class_log_prior_),
        }
    if isinstance(classifier, (MultinomialNB, ComplementNB, BernoulliNB)):
        kind = {"NB-M": "nb-m", "NB-C": "nb-c", "NB-B": "nb-b"}[classifier.name]
        out = {
            "kind": kind,
            "params": classifier.get_params(),
            "feature_log_prob": _array(classifier.feature_log_prob_),
            "class_log_prior": _array(classifier.class_log_prior_),
        }
        if isinstance(classifier, BernoulliNB):
            out["class_count"] = _array(classifier.class_count_)
        return out
    if isinstance(classifier, DummyClassifier):
        return {"kind": "dummy", "params": classifier.get_params(), "fitted": classifier._fitted}
    raise TypeError(f"cannot serialise classifier {type(classifier).__name__}")


def _classifier_from_dict(data: dict[str, Any]) -> Classifier:
    kind = data["kind"]
    if kind == "gbt":
        params = dict(data["params"])
        model = GradientBoostedTrees(
            min_child_weight=float(data["min_child_weight"]), **params
        )
        model.base_score_ = float(data["base_score"])
        model.forest_ = _forest_from_dict(data["forest"])
        model.feature_gain_ = _maybe_array(data["feature_gain"])
        model.feature_splits_ = _maybe_array(data["feature_splits"], dtype=np.int64)
        return model
    if kind == "cart":
        model = DecisionTree(**data["params"])
        model._n_train = int(data["n_train"])
        model.kernel_ = _tree_kernel_from_dict(data["tree"])
        return model
    if kind == "lsvm":
        model = LinearSVM(**data["params"])
        model.coef_ = _maybe_array(data["coef"])
        model.intercept_ = float(data["intercept"])
        return model
    if kind == "nn":
        model = NeuralNetwork(
            batch_size=int(data["batch_size"]), seed=int(data["seed"]), **data["params"]
        )
        if data["weights"] is not None:
            model._params = {k: np.asarray(v) for k, v in data["weights"].items()}
        return model
    if kind == "nb-g":
        model = GaussianNB(**data["params"])
        model.theta_ = _maybe_array(data["theta"])
        model.var_ = _maybe_array(data["var"])
        model.class_log_prior_ = _maybe_array(data["class_log_prior"])
        return model
    if kind in ("nb-m", "nb-c", "nb-b"):
        cls = {"nb-m": MultinomialNB, "nb-c": ComplementNB, "nb-b": BernoulliNB}[kind]
        model = cls(**data["params"])
        model.feature_log_prob_ = _maybe_array(data["feature_log_prob"])
        model.class_log_prior_ = _maybe_array(data["class_log_prior"])
        if kind == "nb-b":
            model.class_count_ = _maybe_array(data["class_count"])
        return model
    if kind == "dummy":
        model = DummyClassifier(**data["params"])
        model._fitted = bool(data["fitted"])
        return model
    raise ValueError(f"unknown classifier kind {kind!r}")


# ----------------------------------------------------------------------
# Whole scrubbers
# ----------------------------------------------------------------------
def scrubber_to_dict(scrubber: IXPScrubber) -> dict[str, Any]:
    """Serialise a (fitted or unfitted) scrubber to a JSON-safe dict."""
    config = scrubber.config
    pipeline = None
    if scrubber.pipeline is not None:
        pipeline = {
            "transformers": [
                _transformer_to_dict(t) for t in scrubber.pipeline.transformers
            ],
            "classifier": _classifier_to_dict(scrubber.pipeline.classifier),
        }
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "model": config.model,
            "model_params": config.model_params,
            "min_support": config.min_support,
            "min_confidence": config.min_confidence,
            "confidence_loss": config.confidence_loss,
            "support_loss": config.support_loss,
            "auto_accept_rules": config.auto_accept_rules,
            "bin_seconds": BIN_SECONDS,
        },
        "rules": [rule_to_dict(r) for r in scrubber.rule_set],
        "item_encoder": _item_encoder_to_dict(scrubber.item_encoder),
        "woe": _woe_to_dict(scrubber.woe),
        "pipeline": pipeline,
    }


def scrubber_from_dict(data: dict[str, Any]) -> IXPScrubber:
    """Rebuild a scrubber from :func:`scrubber_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported scrubber format version: {version}")
    raw_config = data["config"]
    if int(raw_config["bin_seconds"]) != BIN_SECONDS:
        raise ValueError(
            f"scrubber was saved with {raw_config['bin_seconds']}-second bins; "
            f"this build aggregates in {BIN_SECONDS}-second bins only"
        )
    config = ScrubberConfig(
        model=raw_config["model"],
        model_params=dict(raw_config["model_params"]),
        min_support=float(raw_config["min_support"]),
        min_confidence=float(raw_config["min_confidence"]),
        confidence_loss=float(raw_config["confidence_loss"]),
        support_loss=float(raw_config["support_loss"]),
        auto_accept_rules=bool(raw_config["auto_accept_rules"]),
    )
    scrubber = IXPScrubber(config)
    scrubber.rule_set = RuleSet(rule_from_dict(r) for r in data["rules"])
    scrubber.item_encoder = _item_encoder_from_dict(data["item_encoder"])
    scrubber.woe = _woe_from_dict(data["woe"])
    if data["pipeline"] is not None:
        transformers = [
            _transformer_from_dict(t) for t in data["pipeline"]["transformers"]
        ]
        classifier = _classifier_from_dict(data["pipeline"]["classifier"])
        scrubber.pipeline = ModelPipeline(transformers, classifier)
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
