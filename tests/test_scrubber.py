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
        scrubber._matcher = scrubber._scorer = None
        before = (
            len(pickle.dumps(scrubber)),
            json.dumps(scrubber_to_dict(scrubber)),
        )
        verdicts = scrubber.classify_flows_batch(flows)
        assert scrubber._matcher is not None
        assert scrubber._scorer is not None
        encoded = {c.split("/")[0] for c in scrubber._scorer.columns if not c.endswith("/value")}
        assert encoded  # the forest reads at least one WoE column
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
            assert copy._matcher is None and copy._scorer is None
            assert copy.classify_flows_batch(flows) == verdicts
            assert copy._scorer is not None
            assert copy._scorer.columns == scrubber._scorer.columns
            assert copy._scorer.woe is copy.woe and copy._scorer.source is copy.pipeline


class TestCompiledScorer:
    """The per-epoch compiled scorer against ``tests/reference_classify.py``,
    the full-width body it replaced: every verdict equal, bit for bit."""

    TREES = ("XGB", "DT")

    @pytest.fixture(scope="class")
    def scrubbers(self, fitted_scrubber_and_flows):
        """One fitted scrubber per model, sharing rules and records."""
        fitted, flows = fitted_scrubber_and_flows
        data = fitted.aggregate_flows(flows)
        out = {"XGB": fitted}
        for model in ("DT", "LSVM", "NB-G"):
            scrubber = pickle.loads(pickle.dumps(fitted))
            scrubber.config = ScrubberConfig(model=model)
            out[model] = scrubber.fit_aggregated(data)
        return out

    @staticmethod
    def with_classifier(fitted, classifier) -> IXPScrubber:
        from repro.core.models.pipeline import ModelPipeline

        scrubber = pickle.loads(pickle.dumps(fitted))
        scrubber.pipeline = ModelPipeline(scrubber.pipeline.transformers, classifier)
        return scrubber

    @staticmethod
    def assert_matches_reference(scrubber, flows) -> None:
        from tests.reference_classify import reference_classify

        bins = flows.time // 60
        one_bin = flows.select(bins == np.bincount(bins).argmax())
        for batch in (flows, one_bin):
            for min_flows in (1, 3, len(batch) + 1):
                expected = reference_classify(scrubber, batch, min_flows)
                assert scrubber.classify_flows_batch(batch, min_flows) == expected
        assert scrubber.classify_flows_batch(flows.select(bins < 0)) == []

    @pytest.mark.parametrize("model", ["XGB", "DT", "LSVM", "NB-G"])
    def test_matches_full_width_reference(self, scrubbers, fitted_scrubber_and_flows, model):
        _, flows = fitted_scrubber_and_flows
        scrubber = scrubbers[model]
        self.assert_matches_reference(scrubber, flows)
        verdicts = scrubber.classify_flows_batch(flows)
        assert any(v.is_ddos for v in verdicts) and not all(v.is_ddos for v in verdicts)

        scorer = scrubber._compiled_scorer()
        reducer, imputer, *rest = scrubber.pipeline.transformers
        assert scorer.assembler.fill == imputer.fill_value
        assert scorer.pipeline.transformers == rest
        if model in self.TREES:
            # FR -> I -> C: the forest's own columns, nothing else.
            assert not rest and 0 < len(scorer.columns) < int(reducer.keep_.sum())
        else:
            assert len(scorer.columns) == int(reducer.keep_.sum())
            assert scorer.pipeline.classifier is scrubber.pipeline.classifier

    @pytest.mark.parametrize("model", TREES)
    def test_a_model_of_leaves_reads_no_column(self, scrubbers, fitted_scrubber_and_flows, model):
        import copy

        from repro.core.models.kernels import LEAF, ForestKernel, TreeKernel

        def leaf(value: float) -> TreeKernel:
            ints = np.array([LEAF], dtype=np.int32)
            return TreeKernel(
                feature=ints, threshold=np.zeros(1), split_bin=ints, left=ints, right=ints,
                value=np.array([value]),
            )

        _, flows = fitted_scrubber_and_flows
        classifier = copy.copy(scrubbers[model].pipeline.classifier)
        if model == "XGB":
            classifier.forest_ = ForestKernel.from_trees([leaf(0.4), leaf(-0.1), leaf(0.25)])
        else:
            classifier.kernel_ = leaf(0.75)
        scrubber = self.with_classifier(scrubbers[model], classifier)
        assert scrubber.scored_columns == ()
        self.assert_matches_reference(scrubber, flows)

    def test_forest_reading_absent_ranks_and_missing_keys(self, fitted_scrubber_and_flows):
        """A hand-built tree that tells absent ranks apart from present
        ones only once NaN is imputed to -1, reads a key column at its
        ``MISSING_KEY`` WoE, and sits at kept positions that are not its
        schema positions: a scorer that skipped the fill, the
        renumbering or ``keep_`` would score differently."""
        import copy

        from repro.core.encoding.matrix import feature_columns
        from repro.core.features import schema
        from repro.core.models.kernels import LEAF, ForestKernel, TreeKernel

        fitted, flows = fitted_scrubber_and_flows
        columns = feature_columns()
        keep = np.flatnonzero(fitted.pipeline.transformers[0].keep_)
        data = fitted.aggregate_flows(flows)

        def absent_share(name: str) -> float:
            return float(np.isnan(data.metrics[name]).mean())

        fv = next(
            f for f in range(len(keep) - 1, -1, -1)
            if columns[keep[f]].endswith("/value") and 0.2 < absent_share(columns[keep[f]]) < 0.8
        )
        value_column = columns[keep[fv]]
        key_column = value_column.removesuffix("/value")
        fk = int(np.flatnonzero(keep == columns.index(key_column))[0])
        assert keep[fv] != fv  # FR dropped columns before the value column
        missing = data.categorical[key_column] == schema.MISSING_KEY
        assert missing.any() and not missing.all()
        domain = key_column.split("/")[0]
        missing_woe = fitted.woe.table(domain).encode_value(schema.MISSING_KEY)

        def ints(*values: int) -> np.ndarray:
            return np.array(values, dtype=np.int32)

        tree = TreeKernel(
            # root: value column; -1 (an imputed absent rank) and every
            # present value (>= 0) go right, an unimputed NaN left.
            # node 2: key column, MISSING_KEY's WoE left.
            feature=ints(fv, LEAF, fk, LEAF, LEAF),
            threshold=np.array([-1.5, 0.0, missing_woe, 0.0, 0.0]),
            split_bin=ints(LEAF, LEAF, LEAF, LEAF, LEAF),
            left=ints(1, LEAF, 3, LEAF, LEAF),
            right=ints(2, LEAF, 4, LEAF, LEAF),
            value=np.array([0.0, 5.0, 0.0, -2.0, 3.0]),
        )
        classifier = copy.copy(fitted.pipeline.classifier)
        classifier.forest_ = ForestKernel.from_trees([tree])
        scrubber = self.with_classifier(fitted, classifier)
        assert scrubber.scored_columns == (key_column, value_column)
        self.assert_matches_reference(scrubber, flows)
        scores = {v.score for v in scrubber.classify_flows_batch(flows)}
        assert len(scores) == 2  # both leaves under node 2, none under node 1


class TestOperatorOverride:
    """§6.6: a WoE pinned with ``set_override`` on a live scrubber is
    what every encode path uses from the next matrix on, whatever was
    cached before — both streaming engines included (the sharded one
    used to keep scoring with the tables it froze at broadcast)."""

    PINNED = -7.5  # no fitted WoE (a log of count ratios) equals it

    def test_every_encode_path_sees_the_override(
        self, fitted_scrubber_and_flows, monkeypatch
    ):
        from repro.core.encoding.matrix import MatrixAssembler, feature_columns
        from repro.core.parallel import ShardedStreamingScrubber
        from repro.core.streaming import StreamingScrubber
        from repro.netflow.dataset import BIN_SECONDS
        from tests.reference_classify import reference_classify

        fitted, flows = fitted_scrubber_and_flows
        scrubber = pickle.loads(pickle.dumps(fitted))  # the override stays local
        data = scrubber.aggregate_flows(flows)
        reads = scrubber.scored_columns
        # A key column the compiled forest reads, and a value of it that
        # moves scores once pinned.
        column, value = next(
            (c, v) for c in reads if not c.endswith("/value")
            for v in np.unique(data.categorical[c])[::-1]
            if self._moves_scores(scrubber, flows, c.split("/")[0], int(v))
        )
        domain = column.split("/")[0]
        pinned_rows = data.categorical[column] == value

        scored: list[np.ndarray] = []
        assemble = MatrixAssembler.assemble

        def recorded(assembler, records):
            matrix = assemble(assembler, records)
            if column in matrix.columns:
                scored.append(matrix.X[:, matrix.columns.index(column)].copy())
            return matrix

        monkeypatch.setattr(MatrixAssembler, "assemble", recorded)

        def scored_column():
            out = np.concatenate(scored)
            scored.clear()
            return out

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
        before = scrubber.classify_flows_batch(flows)
        for engine in engines:
            engine.warm_start(scrubber).ingest(flows.select(bins < split))
        assert not (scored_column() == self.PINNED).any()

        scrubber.woe.table(domain).set_override(value, self.PINNED)

        matrix = scrubber.feature_matrix(data)
        j = feature_columns().index(column)
        assert np.array_equal(matrix.X[:, j] == self.PINNED, pinned_rows)
        assert np.array_equal(
            scrubber.score_aggregated(data), scrubber.pipeline.predict_proba(matrix.X)
        )
        assert np.array_equal(scored_column() == self.PINNED, pinned_rows)
        after = scrubber.classify_flows_batch(flows)
        assert after == reference_classify(scrubber, flows) != before
        assert np.array_equal(scored_column() == self.PINNED, pinned_rows)
        # ingest() left the last bin below the split open: it closes now.
        reopened = bins[bins < split].max()
        expected = reference_classify(scrubber, flows.select(bins >= reopened))
        assert int((pinned_rows & (data.bins >= reopened)).sum()) > 0
        for engine in engines:
            verdicts = engine.ingest(flows.select(bins >= split)) + engine.flush()
            assert verdicts == expected, f"{type(engine).__name__} scored with a stale table"
            assert int((scored_column() == self.PINNED).sum()) == int(
                (pinned_rows & (data.bins >= reopened)).sum()
            )

    @classmethod
    def _moves_scores(cls, scrubber, flows, domain: str, value: int) -> bool:
        copy = pickle.loads(pickle.dumps(scrubber))
        before = copy.classify_flows_batch(flows)
        copy.woe.table(domain).set_override(value, cls.PINNED)
        return copy.classify_flows_batch(flows) != before


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
