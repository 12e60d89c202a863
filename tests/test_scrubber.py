"""End-to-end tests for the two-step IXP Scrubber."""

import pickle

import numpy as np
import pytest

from repro.core.models.metrics import fbeta_score
from repro.core.rules.model import RuleStatus
from repro.core.scrubber import IXPScrubber, ScrubberConfig


@pytest.fixture(scope="module")
def fitted_scrubber_and_flows():
    """A scrubber fitted on a tiny vantage point (module-scoped: slow)."""
    import numpy as np

    from repro.core.labeling import balance
    from repro.ixp.fabric import IXPFabric
    from repro.ixp.profiles import IXPProfile
    from repro.traffic.workload import WorkloadGenerator

    profile = IXPProfile(
        name="IXP-TEST", region=7, n_members=8, traffic_scale=0.01,
        attacks_per_day=12.0, attack_intensity=25.0,
        benign_flows_per_target=5.0, benign_targets_per_minute=24,
        bins_per_day=48, seed=42,
    )
    fabric = IXPFabric(profile)
    capture = WorkloadGenerator(fabric).generate(0, 3)
    balanced = balance(capture.labeled_flows(), np.random.default_rng(1))
    scrubber = IXPScrubber(ScrubberConfig(model="XGB", model_params={"n_estimators": 20}))
    scrubber.fit(balanced.flows)
    return scrubber, balanced.flows


class TestFit:
    def test_rules_mined(self, fitted_scrubber_and_flows):
        scrubber, _ = fitted_scrubber_and_flows
        assert len(scrubber.rule_set) > 0
        assert len(scrubber.accepted_rules) > 0

    def test_predict_flows_returns_verdicts(self, fitted_scrubber_and_flows):
        scrubber, flows = fitted_scrubber_and_flows
        verdicts = scrubber.predict_flows(flows)
        assert len(verdicts) > 0
        assert any(v.is_ddos for v in verdicts)
        assert any(not v.is_ddos for v in verdicts)
        for v in verdicts[:20]:
            assert 0.0 <= v.score <= 1.0

    def test_training_performance(self, fitted_scrubber_and_flows):
        """In-sample performance must be high (sanity bound)."""
        scrubber, flows = fitted_scrubber_and_flows
        data = scrubber.aggregate_flows(flows)
        predictions = scrubber.predict_aggregated(data)
        assert fbeta_score(data.labels.astype(int), predictions) > 0.9

    def test_generate_acls(self, fitted_scrubber_and_flows):
        scrubber, flows = fitted_scrubber_and_flows
        verdicts = scrubber.predict_flows(flows)
        acls = scrubber.generate_acls(verdicts)
        accepted_ids = {r.rule_id for r in scrubber.accepted_rules}
        assert all(r.rule_id in accepted_ids for r in acls)
        positive_rules = {
            rule_id for v in verdicts if v.is_ddos for rule_id in v.matched_rules
        }
        assert {r.rule_id for r in acls} == positive_rules

    def test_score_aggregated_probabilities(self, fitted_scrubber_and_flows):
        scrubber, flows = fitted_scrubber_and_flows
        data = scrubber.aggregate_flows(flows)
        scores = scrubber.score_aggregated(data)
        assert ((scores >= 0) & (scores <= 1)).all()


    def test_fit_with_a_flow_without_packets(self, fitted_scrubber_and_flows):
        """One such flow in the training window used to raise out of
        rule mining ("packet size must be positive")."""
        import warnings

        from tests import strategies

        _, flows = fitted_scrubber_and_flows
        flows = strategies.without_packets(flows, np.arange(0, len(flows), 50))
        scrubber = IXPScrubber(ScrubberConfig(model="XGB", model_params={"n_estimators": 5}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scrubber.fit(flows)
            verdicts = scrubber.predict_flows(flows)
        assert scrubber.accepted_rules
        assert any(v.is_ddos for v in verdicts)


class TestUnfitted:
    def test_predict_requires_fit(self, handmade_flows):
        with pytest.raises(RuntimeError):
            IXPScrubber().predict_flows(handmade_flows)

    def test_feature_matrix_requires_woe(self, handmade_flows):
        from repro.core.features.aggregation import aggregate

        scrubber = IXPScrubber()
        with pytest.raises(RuntimeError):
            scrubber.feature_matrix(aggregate(handmade_flows))


class TestCuration:
    def test_manual_curation_honoured(self, fitted_scrubber_and_flows):
        scrubber, flows = fitted_scrubber_and_flows
        rule = scrubber.accepted_rules[0]
        scrubber.rule_set.set_status(rule.rule_id, RuleStatus.DECLINE)
        try:
            assert rule.rule_id not in {r.rule_id for r in scrubber.accepted_rules}
        finally:
            scrubber.rule_set.set_status(rule.rule_id, RuleStatus.ACCEPT)

    def test_no_auto_accept_config(self, handmade_flows):
        scrubber = IXPScrubber(ScrubberConfig(auto_accept_rules=False, min_support=0.01))
        records = [handmade_flows.record(i) for i in range(len(handmade_flows))]
        from repro.netflow.dataset import FlowDataset

        # Repeat the handmade flows to clear min support thresholds.
        flows = FlowDataset.concat([handmade_flows] * 20)
        scrubber.mine_tagging_rules(flows)
        assert scrubber.accepted_rules == []
        assert len(scrubber.rule_set.staged()) > 0


class TestCompiledRules:
    """The per-epoch compiled matcher: current, and never serialised."""

    def test_curation_on_a_live_scrubber_retags(self, fitted_scrubber_and_flows):
        from repro.core.rules.matcher import match_matrix
        from repro.core.rules.model import PortMatch, TaggingRule

        scrubber, flows = fitted_scrubber_and_flows

        def tagged() -> set[str]:
            tags = scrubber.aggregate_flows(flows).rule_tags
            return {rule_id for record in tags for rule_id in record}

        rules = scrubber.accepted_rules
        hits = match_matrix(rules, flows).any(axis=0)
        rule = rules[int(np.flatnonzero(hits)[0])]
        assert rule.rule_id in tagged()
        compiled = scrubber._compiled_rules()
        assert scrubber._compiled_rules() is compiled  # one build per rule set
        scrubber.rule_set.set_status(rule.rule_id, RuleStatus.DECLINE)
        try:
            assert compiled.is_stale(scrubber.accepted_rules)
            assert rule.rule_id not in tagged()
        finally:
            scrubber.rule_set.set_status(rule.rule_id, RuleStatus.ACCEPT)
        assert rule.rule_id in tagged()
        extra = TaggingRule(
            rule_id="added-live", confidence=0.9, support=0.1,
            port_dst=PortMatch(frozenset({0}), negated=True), status=RuleStatus.ACCEPT,
        )
        scrubber.rule_set.add(extra)
        try:
            assert "added-live" in tagged()
        finally:
            del scrubber.rule_set._rules["added-live"]
        assert "added-live" not in tagged()

    def test_classifying_leaves_every_serialised_form_alone(
        self, fitted_scrubber_and_flows
    ):
        import json
        import pickle

        from repro.core.persistence import scrubber_from_dict, scrubber_to_dict

        scrubber, flows = fitted_scrubber_and_flows
        scrubber._matcher = scrubber._assembler = None
        for table in scrubber.woe.tables.values():
            table._lookup = None
        before = (
            len(pickle.dumps(scrubber)),
            json.dumps(scrubber_to_dict(scrubber)),
        )
        verdicts = scrubber.classify_flows_batch(flows)
        assert scrubber._matcher is not None
        assert scrubber._assembler is not None
        assert all(t._lookup is not None for t in scrubber.woe.tables.values())
        assert before == (
            len(pickle.dumps(scrubber)),
            json.dumps(scrubber_to_dict(scrubber)),
        )
        copies = [
            pickle.loads(pickle.dumps(scrubber)),
            scrubber_from_dict(json.loads(before[1])),
        ]
        for copy in copies:
            # all rebuilt on first use
            assert copy._matcher is None and copy._assembler is None
            assert all(t._lookup is None for t in copy.woe.tables.values())
            assert copy.classify_flows_batch(flows) == verdicts


class _RecordingPipeline:
    """A fitted pipeline that keeps a copy of every matrix it scores."""

    def __init__(self, pipeline):
        self._pipeline = pipeline
        self.scored = []

    def predict_proba(self, X):
        self.scored.append(np.array(X))
        return self._pipeline.predict_proba(X)


class TestOperatorOverride:
    """§6.6: a WoE pinned with ``set_override`` on a live scrubber is
    what every encode path uses from the next matrix on, whatever was
    cached before — both streaming engines included (the sharded one
    used to keep scoring with the tables it froze at broadcast)."""

    PINNED = 7.5  # no fitted WoE (a log of count ratios) equals it

    def test_every_encode_path_sees_the_override(self, fitted_scrubber_and_flows):
        from repro.core.encoding.matrix import feature_columns
        from repro.core.parallel import ShardedStreamingScrubber
        from repro.core.streaming import StreamingScrubber
        from repro.netflow.dataset import BIN_SECONDS

        fitted, flows = fitted_scrubber_and_flows
        scrubber = pickle.loads(pickle.dumps(fitted))  # the override stays local
        recorder = _RecordingPipeline(scrubber.pipeline)
        scrubber.pipeline = recorder
        column = "protocol/bytes/0"
        j = feature_columns().index(column)
        data = scrubber.aggregate_flows(flows)
        values, counts = np.unique(data.categorical[column], return_counts=True)
        value = int(values[np.argmax(counts)])
        pinned_rows = data.categorical[column] == value

        def scored_column():
            scored = np.concatenate(recorder.scored)[:, j]
            recorder.scored.clear()
            return scored

        bins = flows.time // BIN_SECONDS
        split = int(np.median(bins))
        engine_kwargs = dict(
            config=scrubber.config, min_flows_per_verdict=1, label_grace_bins=10**6
        )
        engines = [
            StreamingScrubber(**engine_kwargs),
            ShardedStreamingScrubber(n_shards=2, backend="serial", **engine_kwargs),
        ]
        # Warm every cache there is before the operator steps in.
        scrubber.feature_matrix(data)
        scrubber.classify_flows_batch(flows)
        for engine in engines:
            engine.warm_start(scrubber).ingest(flows.select(bins < split))
        assert not (scored_column() == self.PINNED).any()

        scrubber.woe.table("protocol").set_override(value, self.PINNED)

        matrix = scrubber.feature_matrix(data)
        assert np.array_equal(matrix.X[:, j] == self.PINNED, pinned_rows)
        scrubber.score_aggregated(data)
        assert np.array_equal(scored_column() == self.PINNED, pinned_rows)
        scrubber.classify_flows_batch(flows)
        assert np.array_equal(scored_column() == self.PINNED, pinned_rows)
        # ingest() left the last bin below the split open: it closes now.
        still_to_close = data.bins >= bins[bins < split].max()
        expected = int((pinned_rows & still_to_close).sum())
        assert expected > 0
        for engine in engines:
            engine.ingest(flows.select(bins >= split))
            engine.flush()
            assert int((scored_column() == self.PINNED).sum()) == expected, (
                f"{type(engine).__name__} encoded with a stale table"
            )


class TestTransfer:
    def test_transfer_keeps_local_woe(self, fitted_scrubber_and_flows):
        scrubber, flows = fitted_scrubber_and_flows
        other = IXPScrubber(ScrubberConfig(model="XGB", model_params={"n_estimators": 5}))
        data = scrubber.aggregate_flows(flows)
        other.fit_aggregated(data)
        transferred = scrubber.transfer_classifier_from(other)
        assert transferred.woe is scrubber.woe
        assert transferred.pipeline is other.pipeline
        predictions = transferred.predict_aggregated(data)
        assert predictions.shape == (len(data),)

    def test_transfer_requires_fitted_source(self, fitted_scrubber_and_flows):
        scrubber, _ = fitted_scrubber_and_flows
        with pytest.raises(RuntimeError):
            scrubber.transfer_classifier_from(IXPScrubber())

    def test_transfer_requires_local_woe(self, fitted_scrubber_and_flows):
        scrubber, _ = fitted_scrubber_and_flows
        with pytest.raises(RuntimeError):
            IXPScrubber().transfer_classifier_from(scrubber)
