"""Round-trip tests for model persistence.

A saved model is its pickled state through the checkpoint value codec,
so saving, checkpointing and pickling a model must all restore the same
state, bit for bit (:class:`TestOneModelState`), and loading builds no
class outside the allowlist (:class:`TestAllowlist`).
"""

import enum
import json
import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.core.encoding.pca import PCA
from repro.core.encoding.transforms import (
    FeatureReducer,
    Imputer,
    MinMaxNormalizer,
    Standardizer,
)
from repro.core.models.baselines import DummyClassifier
from repro.core.models.bayes import BernoulliNB, ComplementNB, GaussianNB, MultinomialNB
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.linear import LinearSVM
from repro.core.models.nn import NeuralNetwork
from repro.core.models.pipeline import ModelPipeline
from repro.core.models.tree import DecisionTree
from repro.core.persistence import (
    MODEL_TYPES,
    load_scrubber,
    save_scrubber,
    scrubber_from_dict,
    scrubber_to_dict,
)
from repro.core.recovery import (
    CheckpointConfigError,
    CheckpointStore,
    CorruptSnapshotError,
    decode_value,
    encode_value,
)
from repro.core.recovery.snapshot import _canonical_json
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.core.streaming import StreamingScrubber


def small_data(seed=0, n=300):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    return X, y


def roundtrip(model):
    """``model`` through the saved form: its encoded state as JSON text."""
    return decode_value(json.loads(json.dumps(encode_value(model, MODEL_TYPES))), MODEL_TYPES)


@pytest.fixture(scope="module")
def fitted():
    from repro.core.labeling import balance
    from repro.ixp.fabric import IXPFabric
    from repro.ixp.profiles import IXPProfile
    from repro.traffic.workload import WorkloadGenerator

    profile = IXPProfile(
        name="IXP-PERSIST", region=9, n_members=8, traffic_scale=0.01,
        attacks_per_day=12.0, attack_intensity=25.0,
        benign_flows_per_target=5.0, benign_targets_per_minute=24,
        bins_per_day=48, seed=77,
    )
    fabric = IXPFabric(profile)
    capture = WorkloadGenerator(fabric).generate(0, 2)
    balanced = balance(capture.labeled_flows(), np.random.default_rng(1))
    scrubber = IXPScrubber(
        ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    )
    scrubber.fit(balanced.flows)
    return scrubber, balanced.flows


@pytest.fixture(scope="module")
def tiny_aggregated():
    from repro.core.features.aggregation import aggregate
    from repro.netflow.dataset import FlowDataset
    from tests.conftest import make_flow

    rng = np.random.default_rng(3)
    records = []
    for b in range(60):
        t = b * 60
        for k in range(3):
            records.append(
                make_flow(time=t + k, src_ip=int(rng.integers(100, 160)),
                          dst_ip=1, src_port=123, packets=40,
                          bytes_=18720, blackhole=True)
            )
        for k in range(3):
            records.append(
                make_flow(time=t + 30 + k, src_ip=int(rng.integers(300, 360)),
                          dst_ip=2, src_port=443, protocol=6,
                          packets=10, bytes_=12000)
            )
    return aggregate(FlowDataset.from_records(records))


class TestTransformerRoundtrip:
    @pytest.mark.parametrize(
        "transformer",
        [Imputer(fill_value=-2.0), Standardizer(), MinMaxNormalizer(), FeatureReducer(), PCA(3)],
        ids=lambda t: type(t).__name__,
    )
    def test_roundtrip_preserves_transform(self, transformer):
        X, _ = small_data()
        transformer.fit(X)
        restored = roundtrip(transformer)
        np.testing.assert_allclose(restored.transform(X), transformer.transform(X))


class TestClassifierRoundtrip:
    @pytest.mark.parametrize(
        "classifier",
        [
            GradientBoostedTrees(n_estimators=6, max_depth=3),
            DecisionTree(max_depth=4),
            LinearSVM(),
            NeuralNetwork(n_hidden=8, epochs=5, seed=2),
            GaussianNB(),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_roundtrip_preserves_predictions(self, classifier):
        X, y = small_data()
        classifier.fit(X, y)
        restored = roundtrip(classifier)
        np.testing.assert_array_equal(restored.predict(X), classifier.predict(X))

    @pytest.mark.parametrize(
        "classifier",
        [MultinomialNB(), ComplementNB(), BernoulliNB(binarize=0.5)],
        ids=lambda c: type(c).__name__,
    )
    def test_discrete_nb_roundtrip(self, classifier):
        X, y = small_data()
        X = np.abs(X)  # non-negative features
        classifier.fit(X, y)
        restored = roundtrip(classifier)
        np.testing.assert_array_equal(restored.predict(X), classifier.predict(X))

    def test_gbt_importances_preserved(self):
        X, y = small_data()
        model = GradientBoostedTrees(n_estimators=4, max_depth=3).fit(X, y)
        restored = roundtrip(model)
        np.testing.assert_allclose(restored.average_gain(), model.average_gain())


class TestScrubberRoundtrip:
    def test_dict_roundtrip_predictions(self, fitted):
        scrubber, flows = fitted
        restored = scrubber_from_dict(scrubber_to_dict(scrubber))
        data = scrubber.aggregate_flows(flows)
        np.testing.assert_array_equal(
            restored.predict_aggregated(data), scrubber.predict_aggregated(data)
        )

    def test_rules_preserved(self, fitted):
        scrubber, _ = fitted
        restored = scrubber_from_dict(scrubber_to_dict(scrubber))
        assert len(restored.rule_set) == len(scrubber.rule_set)
        assert {r.rule_id for r in restored.accepted_rules} == {
            r.rule_id for r in scrubber.accepted_rules
        }

    def test_woe_preserved(self, fitted):
        scrubber, _ = fitted
        restored = scrubber_from_dict(scrubber_to_dict(scrubber))
        for domain, table in scrubber.woe.tables.items():
            assert restored.woe.tables[domain].mapping == table.mapping

    def test_restored_woe_refuses_update_and_refits(self, fitted):
        """The format keeps the tables, not the evidence counts behind
        them: ``update`` would rebuild every table from the new batch
        alone, dropping what the first window taught it."""
        scrubber, flows = fitted
        restored = scrubber_from_dict(scrubber_to_dict(scrubber))
        data = scrubber.aggregate_flows(flows)
        before = {d: dict(t.mapping) for d, t in restored.woe.tables.items()}
        with pytest.raises(RuntimeError, match="refit"):
            restored.woe.update(data)
        assert {d: t.mapping for d, t in restored.woe.tables.items()} == before
        restored.woe.fit(data)  # the way out, and updatable again after it
        restored.woe.update(data, decay=0.5)
        assert restored.woe.tables.keys() == before.keys()

    def test_file_roundtrip(self, fitted, tmp_path):
        scrubber, flows = fitted
        path = tmp_path / "scrubber.json"
        save_scrubber(scrubber, path)
        restored = load_scrubber(path)
        data = scrubber.aggregate_flows(flows)
        np.testing.assert_array_equal(
            restored.predict_aggregated(data), scrubber.predict_aggregated(data)
        )

    def test_end_to_end_flow_prediction(self, fitted, tmp_path):
        scrubber, flows = fitted
        path = tmp_path / "scrubber.json"
        save_scrubber(scrubber, path)
        restored = load_scrubber(path)
        original = scrubber.predict_flows(flows)
        roundtripped = restored.predict_flows(flows)
        assert [v.is_ddos for v in original] == [v.is_ddos for v in roundtripped]

    def test_unfitted_scrubber_roundtrip(self):
        scrubber = IXPScrubber()
        restored = scrubber_from_dict(scrubber_to_dict(scrubber))
        assert restored.pipeline is None
        assert not restored.woe.is_fitted

    def test_rejects_unknown_version(self, fitted):
        scrubber, _ = fitted
        data = scrubber_to_dict(scrubber)
        data["format_version"] = 999
        with pytest.raises(ValueError, match="version"):
            scrubber_from_dict(data)

    def test_config_preserved(self, fitted):
        scrubber, _ = fitted
        restored = scrubber_from_dict(scrubber_to_dict(scrubber))
        assert restored.config == scrubber.config

    def test_bin_width_is_written_and_any_other_is_refused(self, fitted):
        """Regression: ``ScrubberConfig(bin_seconds=30)`` numbered
        verdicts in 30-s bins over an engine that closes 60-s ones. The
        field is gone; the format keeps the key and reads only 60."""
        scrubber, _ = fitted
        with pytest.raises(TypeError):
            ScrubberConfig(bin_seconds=30)
        data = scrubber_to_dict(scrubber)
        assert data["bin_seconds"] == 60
        data["bin_seconds"] = 30
        with pytest.raises(ValueError, match="30-second bins"):
            scrubber_from_dict(data)


class TestAllModelPipelinesRoundtrip:
    """Every Table 5 model type survives a scrubber save/load."""

    @pytest.mark.parametrize(
        "model,params",
        [
            ("XGB", {"n_estimators": 5}),
            ("DT", {"max_depth": 4}),
            ("LSVM", {}),
            ("NB-G", {}),
            ("NB-M", {}),
            ("NB-C", {}),
            ("NB-B", {}),
            ("NN", {"n_pca_components": 10, "epochs": 3, "n_hidden": 4}),
        ],
    )
    def test_roundtrip(self, tiny_aggregated, model, params):
        scrubber = IXPScrubber(ScrubberConfig(model=model, model_params=params))
        scrubber.fit_aggregated(tiny_aggregated)
        restored = scrubber_from_dict(scrubber_to_dict(scrubber))
        np.testing.assert_array_equal(
            restored.predict_aggregated(tiny_aggregated),
            scrubber.predict_aggregated(tiny_aggregated),
        )


# ----------------------------------------------------------------------
# One model state: save, checkpoint and pickle restore the same model.
# ----------------------------------------------------------------------
def state_of(value):
    """What a restore of ``value`` must reproduce, as nested tuples: the
    type of every object, its pickled state, float bits, array dtype,
    shape and bytes, and the order of every list and of every dict with
    non-string keys. String-keyed dicts (attribute namespaces, keyword
    sets) compare order-free: the checkpoint writer sorts their keys."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, float):
        return (type(value).__name__, value.hex())
    if value is None or isinstance(value, (bool, int, str, np.generic)):
        return (type(value).__name__, value)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(state_of(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, tuple(sorted(state_of(v) for v in value)))
    if isinstance(value, dict):
        items = [(state_of(k), state_of(v)) for k, v in value.items()]
        if all(isinstance(k, str) for k in value):
            items.sort(key=lambda item: item[0])
        return ("dict", tuple(items))
    return (type(value).__name__, state_of(value.__reduce_ex__(2)[2]))


def saved(scrubber, tmp_path):
    save_scrubber(scrubber, tmp_path / "model.json")
    return load_scrubber(tmp_path / "model.json")


def checkpointed(scrubber, tmp_path):
    engine = StreamingScrubber()
    engine._scrubber = scrubber  # warm_start would refuse the unfitted case
    payload = _canonical_json(engine.capture_state())
    return StreamingScrubber().restore_state(json.loads(payload)).model


def pickled(scrubber, tmp_path):
    return pickle.loads(pickle.dumps(scrubber))


RESTORES = (saved, checkpointed, pickled)


def _deployed(transformers, classifier):
    scrubber = IXPScrubber()
    scrubber.pipeline = ModelPipeline(transformers, classifier)
    return scrubber


def _transformer_case(make):
    def build(request):
        X, y = small_data()
        return _deployed([make().fit(X)], DummyClassifier().fit(X, y))
    return build


def _classifier_case(make, non_negative=False):
    def build(request):
        X, y = small_data()
        return _deployed([], make().fit(np.abs(X) if non_negative else X, y))
    return build


def _pipeline_case(model, params):
    def build(request):
        scrubber = IXPScrubber(ScrubberConfig(model=model, model_params=params))
        return scrubber.fit_aggregated(request.getfixturevalue("tiny_aggregated"))
    return build


#: Every model of this file's round-trip tests, deployed in a scrubber.
MODEL_CASES = {
    "Imputer": _transformer_case(lambda: Imputer(fill_value=-2.0)),
    "Standardizer": _transformer_case(Standardizer),
    "MinMaxNormalizer": _transformer_case(MinMaxNormalizer),
    "FeatureReducer": _transformer_case(FeatureReducer),
    "PCA": _transformer_case(lambda: PCA(3)),
    "GradientBoostedTrees": _classifier_case(lambda: GradientBoostedTrees(n_estimators=6, max_depth=3)),
    "DecisionTree": _classifier_case(lambda: DecisionTree(max_depth=4)),
    "LinearSVM": _classifier_case(LinearSVM),
    "NeuralNetwork": _classifier_case(lambda: NeuralNetwork(n_hidden=8, epochs=5, seed=2)),
    "GaussianNB": _classifier_case(GaussianNB),
    "MultinomialNB": _classifier_case(MultinomialNB, non_negative=True),
    "ComplementNB": _classifier_case(ComplementNB, non_negative=True),
    "BernoulliNB": _classifier_case(lambda: BernoulliNB(binarize=0.5), non_negative=True),
    "DummyClassifier": _classifier_case(DummyClassifier),
    "unfitted-scrubber": lambda request: IXPScrubber(),
    "fitted-scrubber": lambda request: request.getfixturevalue("fitted")[0],
    **{
        f"pipeline-{model}": _pipeline_case(model, params)
        for model, params in [
            ("XGB", {"n_estimators": 5}),
            ("DT", {"max_depth": 4}),
            ("LSVM", {}),
            ("NB-G", {}),
            ("NB-M", {}),
            ("NB-C", {}),
            ("NB-B", {}),
            ("NN", {"n_pca_components": 10, "epochs": 3, "n_hidden": 4}),
        ]
    },
}


class TestOneModelState:
    @pytest.mark.parametrize("case", list(MODEL_CASES))
    def test_save_checkpoint_and_pickle_restore_the_same_state(self, case, request, tmp_path):
        scrubber = MODEL_CASES[case](request)
        want = state_of(scrubber)
        for restore in RESTORES:
            assert state_of(restore(scrubber, tmp_path)) == want, restore.__name__

    @pytest.mark.parametrize("restore", RESTORES, ids=lambda r: r.__name__)
    def test_rules_woe_and_scores_are_bit_exact(self, fitted, restore, tmp_path):
        scrubber, flows = fitted
        copy = restore(scrubber, tmp_path)

        def rules(s):
            return [(r.rule_id, r.confidence.hex(), r.support.hex(), r.status) for r in s.rule_set]

        assert rules(copy) == rules(scrubber)
        assert list(copy.woe.tables) == list(scrubber.woe.tables)
        for domain, table in scrubber.woe.tables.items():
            assert list(copy.woe.tables[domain].mapping.items()) == list(table.mapping.items())
        data = scrubber.aggregate_flows(flows)
        assert copy.score_aggregated(data).tobytes() == scrubber.score_aggregated(data).tobytes()

    def test_fit_scratch_is_not_shipped(self, fitted):
        """The broadcast pickle carries the deployed model only: no
        quantile binner, no WoE evidence counts."""
        scrubber, flows = fitted
        scrubber.predict_aggregated(scrubber.aggregate_flows(flows))  # routes the forest
        assert scrubber.pipeline.classifier.forest_._route is not None
        copy = pickle.loads(pickle.dumps(scrubber))
        assert not hasattr(copy.pipeline.classifier, "_binner")
        assert copy.woe._counts == {} and copy.woe.is_fitted
        assert copy.pipeline.classifier.forest_._route is None


# ----------------------------------------------------------------------
# The allowlist: nothing outside it is ever built.
# ----------------------------------------------------------------------
class TestAllowlist:
    @pytest.mark.parametrize(
        "name", ["subprocess.Popen", "os.system", "builtins.eval", "Popen", "system", "eval"]
    )
    @pytest.mark.parametrize("tag", ["object", "enum"])
    def test_foreign_type_is_refused_before_anything_is_built(self, name, tag):
        # The state holds an unknown tag: a decoder that built (or even
        # decoded) before checking the type would fail on that instead.
        document = {"__repro__": tag, "type": name, "state": {"__repro__": "mystery"},
                    "value": {"__repro__": "mystery"}}
        with pytest.raises(CorruptSnapshotError, match="disallowed"):
            decode_value(document, MODEL_TYPES)
        data = {"format_version": 3, "bin_seconds": 60, "scrubber": document}
        with pytest.raises(CorruptSnapshotError, match="disallowed"):
            scrubber_from_dict(data)

    def test_enum_and_object_tags_do_not_mix(self):
        with pytest.raises(CorruptSnapshotError, match="disallowed"):
            decode_value({"__repro__": "enum", "type": "IXPScrubber", "value": 1}, MODEL_TYPES)
        with pytest.raises(CorruptSnapshotError, match="disallowed"):
            decode_value({"__repro__": "object", "type": "RuleStatus", "state": {}}, MODEL_TYPES)

    def test_without_an_allowlist_no_object_is_encoded_or_built(self, fitted):
        scrubber, _ = fitted
        with pytest.raises(TypeError):
            encode_value(scrubber)
        with pytest.raises(CorruptSnapshotError, match="disallowed"):
            decode_value(encode_value(scrubber, MODEL_TYPES))


# ----------------------------------------------------------------------
# A snapshot whose model does not decode is refused with a typed error.
# ----------------------------------------------------------------------
def _pop_scrubber(model):
    model.pop("scrubber")


def _state_not_a_dict(model):
    model["scrubber"]["state"] = 5


def _unknown_tag_inside(model):
    model["scrubber"]["state"]["woe"] = {"__repro__": "mystery"}


def _foreign_type(model):
    model["scrubber"]["state"]["pipeline"]["type"] = "subprocess.Popen"


def _not_a_scrubber(model):
    model["scrubber"] = model["scrubber"]["state"]["config"]


class TestSnapshotModelRefusal:
    @pytest.fixture
    def state(self, fitted):
        engine = StreamingScrubber().warm_start(fitted[0])
        return json.loads(_canonical_json(engine.capture_state()))

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_foreign_format_version_is_a_config_error(self, state, version):
        state["model"]["format_version"] = version
        with pytest.raises(CheckpointConfigError, match=f"format version: {version}"):
            StreamingScrubber().restore_state(state)

    @pytest.mark.parametrize(
        "damage",
        [_pop_scrubber, _state_not_a_dict, _unknown_tag_inside, _foreign_type, _not_a_scrubber],
        ids=lambda d: d.__name__.strip("_"),
    )
    def test_malformed_model_is_corrupt(self, state, damage):
        damage(state["model"])
        with pytest.raises(CorruptSnapshotError):
            StreamingScrubber().restore_state(state)

    def test_model_that_is_not_a_document_is_corrupt(self, state):
        state["model"] = ["not", "a", "model"]
        with pytest.raises(CorruptSnapshotError):
            StreamingScrubber().restore_state(state)

    def test_cli_resume_exits_3(self, capsys, tmp_path):
        argv = ["stream", "--days", "1", "--shards", "2", "--backend", "serial",
                "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "2"]
        assert main(argv) == 0
        store = CheckpointStore(tmp_path)
        tick, state, _ = store.latest()
        state["model"]["format_version"] = 2
        store.save(tick, state)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--resume"])
        assert exc.value.code == 3
        assert "unsupported scrubber format version: 2" in capsys.readouterr().err
