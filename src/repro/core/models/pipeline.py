"""Model pipelines: preprocessing chain + classifier (Fig. 8).

Each of the paper's models runs behind its own preprocessing pipeline:

* XGB / DT:    FR -> I -> WoE -> C        (trees need no scaling)
* LSVM:        FR -> I -> WoE -> S -> C
* NB-G:        FR -> I -> WoE -> S -> C
* NB-M/C/B:    FR -> I -> WoE -> N -> C   (non-negative features)
* NN:          FR -> I -> WoE -> S -> PCA -> C

The WoE stage lives *outside* these pipelines (it consumes aggregated
records, not matrices; see :class:`repro.core.scrubber.IXPScrubber`), so
the pipeline here is the numeric chain after WoE assembly. For scoring,
:meth:`ModelPipeline.compile` folds its FR -> I head into that assembly.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.encoding.pca import PCA
from repro.core.encoding.transforms import (
    FeatureReducer,
    Imputer,
    MinMaxNormalizer,
    Standardizer,
    Transformer,
)
from repro.core.models.base import Classifier
from repro.core.models.bayes import BernoulliNB, ComplementNB, GaussianNB, MultinomialNB
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.linear import LinearSVM
from repro.core.models.nn import NeuralNetwork
from repro.core.models.tree import DecisionTree


class ModelPipeline:
    """A fitted chain of transformers feeding a classifier."""

    def __init__(self, transformers: Sequence[Transformer], classifier: Classifier):
        self.transformers = list(transformers)
        self.classifier = classifier

    @property
    def name(self) -> str:
        return self.classifier.name

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ModelPipeline":
        for transformer in self.transformers:
            X = transformer.fit_transform(X)
        self.classifier.fit(X, y)
        return self

    def _transform(self, X: np.ndarray) -> np.ndarray:
        for transformer in self.transformers:
            X = transformer.transform(X)
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classifier.predict(self._transform(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.classifier.predict_proba(self._transform(X))

    def compile(
        self, columns: Sequence[str]
    ) -> tuple[tuple[str, ...], Optional[float], "ModelPipeline"]:
        """This fitted pipeline over input ``columns``, as the columns it
        reads, their NaN fill and the pipeline that scores just those.

        Every Fig. 8 chain opens FR -> I. Both fold into the caller's
        gather: FR's kept columns are what it reads, I's value is its
        fill. A tree model next in line is renumbered onto the columns
        its splits name (:meth:`Classifier.compact`). Gathering those
        columns, filling NaN and scoring with the returned pipeline
        gives :meth:`predict_proba`'s result on all ``columns``, bit for
        bit: every step left sees the same values in the same order.
        """
        read = np.arange(len(columns))
        fill: Optional[float] = None
        rest = list(self.transformers)
        if rest and isinstance(rest[0], FeatureReducer):
            reducer = rest.pop(0)
            if reducer.keep_ is None:
                raise RuntimeError("FeatureReducer is not fitted")
            read = read[reducer.keep_]
        if rest and isinstance(rest[0], Imputer):
            fill = rest.pop(0).fill_value
        classifier = self.classifier
        if not rest:
            used, classifier = classifier.compact()
            if used is not None:
                read = read[used]
        return tuple(columns[i] for i in read), fill, ModelPipeline(rest, classifier)


#: Factories for each Table 3/5 model name. Keyword arguments override
#: the tuned defaults (Appendix C's bold grid picks, scaled to this
#: reproduction where noted).
def _xgb_pipeline(**params: object) -> ModelPipeline:
    return ModelPipeline(
        [FeatureReducer(), Imputer()], GradientBoostedTrees(**params)  # type: ignore[arg-type]
    )


def _dt_pipeline(**params: object) -> ModelPipeline:
    return ModelPipeline([FeatureReducer(), Imputer()], DecisionTree(**params))  # type: ignore[arg-type]


def _lsvm_pipeline(**params: object) -> ModelPipeline:
    return ModelPipeline(
        [FeatureReducer(), Imputer(), Standardizer()], LinearSVM(**params)  # type: ignore[arg-type]
    )


def _nbg_pipeline(**params: object) -> ModelPipeline:
    return ModelPipeline(
        [FeatureReducer(), Imputer(), Standardizer()], GaussianNB(**params)  # type: ignore[arg-type]
    )


def _nbm_pipeline(**params: object) -> ModelPipeline:
    return ModelPipeline(
        [FeatureReducer(), Imputer(), MinMaxNormalizer()], MultinomialNB(**params)  # type: ignore[arg-type]
    )


def _nbc_pipeline(**params: object) -> ModelPipeline:
    return ModelPipeline(
        [FeatureReducer(), Imputer(), MinMaxNormalizer()], ComplementNB(**params)  # type: ignore[arg-type]
    )


def _nbb_pipeline(**params: object) -> ModelPipeline:
    return ModelPipeline(
        [FeatureReducer(), Imputer(), MinMaxNormalizer()], BernoulliNB(**params)  # type: ignore[arg-type]
    )


def _nn_pipeline(n_pca_components: int = 50, **params: object) -> ModelPipeline:
    return ModelPipeline(
        [FeatureReducer(), Imputer(), Standardizer(), PCA(n_pca_components)],
        NeuralNetwork(**params),  # type: ignore[arg-type]
    )


PIPELINE_FACTORIES: dict[str, Callable[..., ModelPipeline]] = {
    "XGB": _xgb_pipeline,
    "NN": _nn_pipeline,
    "LSVM": _lsvm_pipeline,
    "NB-G": _nbg_pipeline,
    "DT": _dt_pipeline,
    "NB-C": _nbc_pipeline,
    "NB-M": _nbm_pipeline,
    "NB-B": _nbb_pipeline,
}

#: Table 3 model order (the reduced table, without the weak NB variants).
TABLE3_MODELS = ("XGB", "NN", "LSVM", "NB-G", "DT")

#: Table 5 model order (all models).
TABLE5_MODELS = ("XGB", "NN", "LSVM", "NB-G", "DT", "NB-C", "NB-M", "NB-B")


def make_pipeline(name: str, **params: object) -> ModelPipeline:
    """Build the Fig. 8 pipeline for a model name."""
    try:
        factory = PIPELINE_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(PIPELINE_FACTORIES)}"
        ) from None
    return factory(**params)
