"""Step 2 classifiers, metrics, selection, and model pipelines."""

from repro.core.models.base import Classifier, check_fit_inputs
from repro.core.models.baselines import DummyClassifier, RuleBasedClassifier
from repro.core.models.bayes import (
    BernoulliNB,
    ComplementNB,
    GaussianNB,
    MultinomialNB,
)
from repro.core.models.binning import QuantileBinner
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.kernels import ForestKernel, HistogramScratch, TreeKernel
from repro.core.models.linear import LinearSVM
from repro.core.models.metrics import (
    DEFAULT_BETA,
    ConfusionMatrix,
    f1_score,
    fbeta_score,
    prediction_cost_mcc,
)
from repro.core.models.nn import NeuralNetwork
from repro.core.models.pipeline import (
    PIPELINE_FACTORIES,
    TABLE3_MODELS,
    TABLE5_MODELS,
    ModelPipeline,
    make_pipeline,
)
from repro.core.models.selection import (
    GridSearchResult,
    grid_search,
    k_fold,
    parameter_grid,
    train_test_split,
)
from repro.core.models.tree import DecisionTree

__all__ = [
    "BernoulliNB",
    "Classifier",
    "ComplementNB",
    "ConfusionMatrix",
    "DEFAULT_BETA",
    "DecisionTree",
    "DummyClassifier",
    "ForestKernel",
    "GaussianNB",
    "GradientBoostedTrees",
    "GridSearchResult",
    "HistogramScratch",
    "LinearSVM",
    "ModelPipeline",
    "MultinomialNB",
    "NeuralNetwork",
    "PIPELINE_FACTORIES",
    "QuantileBinner",
    "RuleBasedClassifier",
    "TABLE3_MODELS",
    "TABLE5_MODELS",
    "TreeKernel",
    "check_fit_inputs",
    "f1_score",
    "fbeta_score",
    "grid_search",
    "k_fold",
    "make_pipeline",
    "parameter_grid",
    "prediction_cost_mcc",
    "train_test_split",
]
