"""Tests for experiment infrastructure: caching, results, attribution,
registry and CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.features.aggregation import aggregate
from repro.experiments import EXPERIMENTS
from repro.experiments.attribution import TABLE3_VECTORS, attribute_records, vector_masks
from repro.experiments.common import ExperimentResult, cached, check_scale
from repro.netflow.dataset import FlowDataset
from tests.conftest import make_flow


class TestCache:
    def test_build_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []

        def builder():
            calls.append(1)
            return {"value": 42}

        assert cached(("k",), builder) == {"value": 42}
        assert cached(("k",), builder) == {"value": 42}
        assert len(calls) == 1

    def test_distinct_keys(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cached(("a",), lambda: 1) == 1
        assert cached(("b",), lambda: 2) == 2

    def test_corrupt_cache_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cached(("x",), lambda: 1)
        for f in tmp_path.glob("*.pkl"):
            f.write_bytes(b"garbage")
        assert cached(("x",), lambda: 3) == 3


class TestExperimentResult:
    def test_format_table(self):
        result = ExperimentResult(experiment="t")
        result.rows = [{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}]
        text = result.format_table()
        assert "a" in text and "20" in text and "0.2500" in text

    def test_empty_table(self):
        assert "(no rows)" in ExperimentResult(experiment="t").format_table()

    def test_summary_mentions_series_and_notes(self):
        result = ExperimentResult(experiment="t")
        result.series["s"] = ([1, 2], [3, 4])
        result.notes["k"] = "v"
        summary = result.summary()
        assert "series s" in summary and "k=v" in summary

    def test_check_scale(self):
        assert check_scale("small") == "small"
        with pytest.raises(ValueError):
            check_scale("huge")


class TestAttribution:
    def build(self, src_port, protocol=17, extra=()):
        records = [
            make_flow(time=0, dst_ip=1, src_port=src_port, protocol=protocol,
                      packets=50, bytes_=25000, blackhole=True)
        ]
        records += list(extra)
        return aggregate(FlowDataset.from_records(records))

    def test_ntp_attribution(self):
        labels = attribute_records(self.build(123))
        assert labels == ["NTP"]

    def test_fragment_attribution(self):
        labels = attribute_records(self.build(0))
        assert labels == ["UDP Fragm."]

    def test_benign_none(self):
        labels = attribute_records(self.build(443, protocol=6))
        assert labels == [None]

    def test_known_port_wins_over_fragment(self):
        extra = [
            make_flow(time=1, dst_ip=1, src_port=0, dst_port=0, packets=10, bytes_=14000)
        ]
        labels = attribute_records(self.build(53, extra=extra))
        assert labels == ["DNS"]

    def test_vector_masks_shapes(self):
        data = self.build(123)
        masks = vector_masks(data)
        assert set(masks) == set(TABLE3_VECTORS)
        assert masks["NTP"].tolist() == [True]
        assert masks["DNS"].tolist() == [False]


def test_fig16_spearman_skips_constant_columns():
    """A zero-variance column neither warns nor yields a NaN pair."""
    import warnings

    from repro.experiments.fig16_correlation import _spearman_cdf

    rng = np.random.default_rng(0)
    a = rng.normal(size=50)
    X = np.stack([a, np.full(50, 3.0), 2 * a + 1, rng.normal(size=50)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = _spearman_cdf(X)
    assert values.size == 3  # the three pairs among the non-constant columns
    assert values[-1] == pytest.approx(1.0)


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        expected = {
            "fig3", "table2", "fig4", "rules", "operators", "table3", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table4",
            # extensions
            "security", "ablations",
        }
        assert set(EXPERIMENTS) == expected

    def test_every_module_has_run(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "fig12" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_smallest_experiment(self, capsys, tmp_path, monkeypatch):
        """Exercise the run path end-to-end with the cheapest experiment
        on a tiny ad-hoc cache."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "rules"]) == 0
        out = capsys.readouterr().out
        assert "rule-mining-funnel" in out
        assert "completed" in out
