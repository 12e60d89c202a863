"""Round-trip tests for model persistence."""

import numpy as np
import pytest

from repro.core.encoding.pca import PCA
from repro.core.encoding.transforms import (
    FeatureReducer,
    Imputer,
    MinMaxNormalizer,
    Standardizer,
)
from repro.core.models.bayes import BernoulliNB, ComplementNB, GaussianNB, MultinomialNB
from repro.core.models.boosting import GradientBoostedTrees
from repro.core.models.linear import LinearSVM
from repro.core.models.nn import NeuralNetwork
from repro.core.models.tree import DecisionTree
from repro.core.persistence import (
    _classifier_from_dict,
    _classifier_to_dict,
    _transformer_from_dict,
    _transformer_to_dict,
    load_scrubber,
    save_scrubber,
    scrubber_from_dict,
    scrubber_to_dict,
)
from repro.core.scrubber import IXPScrubber, ScrubberConfig


def small_data(seed=0, n=300):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    return X, y


class TestTransformerRoundtrip:
    @pytest.mark.parametrize(
        "transformer",
        [Imputer(fill_value=-2.0), Standardizer(), MinMaxNormalizer(), FeatureReducer(), PCA(3)],
        ids=lambda t: type(t).__name__,
    )
    def test_roundtrip_preserves_transform(self, transformer):
        X, _ = small_data()
        transformer.fit(X)
        restored = _transformer_from_dict(_transformer_to_dict(transformer))
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
        restored = _classifier_from_dict(_classifier_to_dict(classifier))
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
        restored = _classifier_from_dict(_classifier_to_dict(classifier))
        np.testing.assert_array_equal(restored.predict(X), classifier.predict(X))

    def test_gbt_importances_preserved(self):
        X, y = small_data()
        model = GradientBoostedTrees(n_estimators=4, max_depth=3).fit(X, y)
        restored = _classifier_from_dict(_classifier_to_dict(model))
        np.testing.assert_allclose(restored.average_gain(), model.average_gain())


class TestScrubberRoundtrip:
    @pytest.fixture(scope="class")
    def fitted(self):
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
        assert data["config"]["bin_seconds"] == 60
        data["config"]["bin_seconds"] = 30
        with pytest.raises(ValueError, match="30-second bins"):
            scrubber_from_dict(data)


class TestAllModelPipelinesRoundtrip:
    """Every Table 5 model type survives a scrubber save/load."""

    @pytest.fixture(scope="class")
    def tiny_aggregated(self):
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
