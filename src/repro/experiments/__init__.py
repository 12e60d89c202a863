"""Experiment harness: one module per paper table/figure (see DESIGN.md).

``EXPERIMENTS`` is built on first use (PEP 562 ``__getattr__``), so
importing ``SCALES`` loads no figure module: the commands that run the
engine (``repro stream``, ``stats``, ...) need only that, and a
scrubber process should not carry the figures' code.
"""

from repro.experiments.common import ExperimentResult, SCALES, cache_dir


def __getattr__(name: str):
    if name != "EXPERIMENTS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.experiments import (
        ablations,
        fig3_balancing,
        fig4_validation,
        fig10_features,
        fig11_temporal,
        fig12_geographic,
        fig13_new_vectors,
        fig14_explainability,
        fig15_sensitivity,
        fig16_correlation,
        operator_study,
        rule_mining,
        security,
        table2_datasets,
        table3_models,
        table4_hyperparams,
    )

    # Registry: experiment id -> module with a ``run(scale=...)`` callable.
    registry = globals()["EXPERIMENTS"] = {
        "fig3": fig3_balancing,
        "table2": table2_datasets,
        "fig4": fig4_validation,
        "rules": rule_mining,
        "operators": operator_study,
        "table3": table3_models,
        "fig10": fig10_features,
        "fig11": fig11_temporal,
        "fig12": fig12_geographic,
        "fig13": fig13_new_vectors,
        "fig14": fig14_explainability,
        "fig15": fig15_sensitivity,
        "fig16": fig16_correlation,
        "table4": table4_hyperparams,
        # Extensions beyond the paper's figures: Appendix E attack/defense
        # simulation and ablations of this reproduction's design choices.
        "security": security,
        "ablations": ablations,
    }
    return registry


__all__ = ["EXPERIMENTS", "ExperimentResult", "SCALES", "cache_dir"]
